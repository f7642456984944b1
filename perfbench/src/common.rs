//! Pieces every workload shares: the seeded generator, profile-derived
//! database options, layer counters and the per-round record.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sbdms::config::{ArchitectureConfig, Profile};
use sbdms_access::exec::engine::{Engine, EngineKind, TupleEngine, VectorEngine};
use sbdms_data::ast::Statement;
use sbdms_data::{parse, plan_select, Database, DbOptions, Durability, QueryResult};
use sbdms_storage::backend::FileBackend;

use crate::backend::{CountingBackend, IoSnapshot};
use crate::trace::{self, Span};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Database options a profile deploys, taken from the profile's
/// architecture configuration so a profile change is measured rather
/// than copied here.
pub fn profile_options(profile: Profile) -> DbOptions {
    let c = ArchitectureConfig::for_profile(profile, "unused");
    DbOptions {
        buffer_frames: c.buffer_frames,
        replacement: c.replacement,
        buffer_shards: c.buffer_shards,
        sort_budget: c.sort_budget,
        parallelism: c.parallelism,
        plan_cache_capacity: c.plan_cache,
        histogram_buckets: c.histogram_buckets,
        execution_engine: Some(c.execution_engine),
        governor: c.governor.clone(),
        concurrency: c.concurrency,
        commit_window_micros: c.commit_window_micros,
    }
}

/// When set, databases open over the plain [`FileBackend`] instead of
/// the counting wrapper, to measure what the wrapper costs. Device
/// counters then read zero and the crash check is skipped.
pub static PLAIN_BACKEND: AtomicBool = AtomicBool::new(false);

/// Whether databases open over the plain backend.
pub fn plain_backend() -> bool {
    PLAIN_BACKEND.load(Ordering::Relaxed)
}

/// Open a fresh database in `dir` over the counting backend (or the
/// plain one, see [`PLAIN_BACKEND`]).
pub fn open_db(
    dir: &Path,
    profile: Profile,
    shadow: bool,
) -> Result<(Arc<Database>, Arc<CountingBackend>), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let backend = Arc::new(CountingBackend::new(dir, shadow));
    let opts = profile_options(profile);
    let db = if plain_backend() {
        Database::open_at(&FileBackend::new(dir), opts)
    } else {
        Database::open_at(&*backend, opts)
    }
    .map_err(|e| e.to_string())?;
    Ok((db, backend))
}

/// After a bulk load: make it durable, empty the log and switch to
/// the durability the timed phase runs under.
pub fn seal_load(db: &Database) -> Result<(), String> {
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    db.set_durability(Durability::Full);
    Ok(())
}

/// Public counters of every layer at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub buf_hits: u64,
    pub buf_misses: u64,
    pub buf_evictions: u64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub wal_lsn: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub plans_selected: u64,
    pub mvcc_commits: u64,
    pub mvcc_conflicts: u64,
    pub shed: u64,
    pub degraded: u64,
    pub cancelled: u64,
    /// Storage-wrapper counters of the data file.
    pub data_file: IoSnapshot,
    /// Storage-wrapper counters of the log file.
    pub wal_file: IoSnapshot,
}

impl Counters {
    /// Storage-wrapper counters of both files together.
    pub fn device(&self) -> IoSnapshot {
        self.data_file.plus(&self.wal_file)
    }

    /// Read every counter now.
    pub fn read(db: &Database, backend: &CountingBackend) -> Counters {
        let storage = db.storage();
        let buf = storage.buffer.stats();
        let (disk_reads, disk_writes) = storage.disk.io_counts();
        let cache = db.plan_cache_stats();
        let mvcc = db.mvcc().map(|m| m.stats());
        let gov = db.governor().snapshot();
        Counters {
            buf_hits: buf.hits,
            buf_misses: buf.misses,
            buf_evictions: buf.evictions,
            disk_reads,
            disk_writes,
            wal_lsn: storage.wal.next_lsn(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            plans_selected: db.plans_selected(),
            mvcc_commits: mvcc.map_or(0, |m| m.commits),
            mvcc_conflicts: mvcc.map_or(0, |m| m.conflicts),
            shed: gov.shed,
            degraded: gov.degraded,
            cancelled: gov.cancelled,
            data_file: backend.io("data.db"),
            wal_file: backend.io("wal.log"),
        }
    }

    /// Counts accumulated between `earlier` and `self`.
    pub fn since(&self, e: &Counters) -> Counters {
        Counters {
            buf_hits: self.buf_hits - e.buf_hits,
            buf_misses: self.buf_misses - e.buf_misses,
            buf_evictions: self.buf_evictions - e.buf_evictions,
            disk_reads: self.disk_reads - e.disk_reads,
            disk_writes: self.disk_writes - e.disk_writes,
            wal_lsn: self.wal_lsn.saturating_sub(e.wal_lsn),
            cache_hits: self.cache_hits - e.cache_hits,
            cache_misses: self.cache_misses - e.cache_misses,
            plans_selected: self.plans_selected - e.plans_selected,
            mvcc_commits: self.mvcc_commits - e.mvcc_commits,
            mvcc_conflicts: self.mvcc_conflicts - e.mvcc_conflicts,
            shed: self.shed - e.shed,
            degraded: self.degraded - e.degraded,
            cancelled: self.cancelled - e.cancelled,
            data_file: self.data_file.since(&e.data_file),
            wal_file: self.wal_file.since(&e.wal_file),
        }
    }
}

/// Buffer-pool page accesses (hits + misses) so far.
pub fn buffer_accesses(db: &Database) -> u64 {
    let s = db.storage().buffer.stats();
    s.hits + s.misses
}

/// Latency samples in microseconds, by operation class.
#[derive(Debug, Default)]
pub struct Latencies(pub BTreeMap<&'static str, Vec<f64>>);

impl Latencies {
    /// Record one sample.
    pub fn add(&mut self, class: &'static str, us: f64) {
        self.0.entry(class).or_default().push(us);
    }

    /// Samples of one class.
    pub fn class(&self, class: &str) -> &[f64] {
        self.0.get(class).map_or(&[], Vec::as_slice)
    }

    /// Every sample.
    pub fn all(&self) -> Vec<f64> {
        self.0.values().flatten().copied().collect()
    }

    /// Fold in another set.
    pub fn extend(&mut self, other: Latencies) {
        for (class, v) in other.0 {
            self.0.entry(class).or_default().extend(v);
        }
    }
}

/// What one round — set-up, timed phase, checks — produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Wall time of the timed phase, seconds.
    pub ops_s: f64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored after the retry policy.
    pub errored: u64,
    /// Operations whose result was wrong.
    pub wrong: u64,
    /// Acknowledged writes missing after the crash check (in ops).
    pub lost: u64,
    /// Latency samples by class.
    pub lat: Latencies,
    /// Layer counters accumulated over the timed phase.
    pub counts: Counters,
    /// Point UPDATE/DELETE operations.
    pub point_writes: u64,
    /// Acknowledged durable units: autocommit writes and committed
    /// transactions.
    pub commits: u64,
    /// Logical bytes users wrote in the timed phase.
    pub user_bytes_written: u64,
    /// Data file bytes at the end of the timed phase.
    pub data_bytes: u64,
    /// Log bytes at the end of the timed phase.
    pub wal_bytes: u64,
    /// Logical bytes of live user rows at the end.
    pub live_user_bytes: u64,
    /// Buffer accesses of each point write (traced rounds only).
    pub write_accesses: Vec<f64>,
    /// Spans recorded (traced rounds only).
    pub spans: Vec<Span>,
    /// Human-readable findings.
    pub notes: Vec<String>,
}

impl Round {
    /// Record the sizes of the database files in `dir`.
    pub fn record_files(&mut self, dir: &Path) {
        let len = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
        self.data_bytes = len("data.db");
        self.wal_bytes = len("wal.log");
    }
}

/// Run `f` with the client's retry policy: up to three retries of a
/// recoverable conflict. Returns the result and the retries used.
pub fn with_retries<T>(
    mut f: impl FnMut() -> sbdms_kernel::error::Result<T>,
) -> (sbdms_kernel::error::Result<T>, u32) {
    let mut retries = 0;
    loop {
        match f() {
            Err(e) if e.code() == "conflict" && retries < 3 => retries += 1,
            out => return (out, retries),
        }
    }
}

/// Run a SELECT through the public calls one at a time — `parse`,
/// `plan_select`, then `run_plan_with` + `collect` on the profile's
/// engine — each a span.
pub fn run_select_traced(db: &Database, sql: &str) -> Result<QueryResult, String> {
    let stmt = {
        let _s = trace::span("data.parse");
        parse(sql).map_err(|e| e.to_string())?
    };
    let Statement::Select(select) = stmt else {
        return Err(format!("not a SELECT: {sql}"));
    };
    let planned = {
        let _s = trace::span("data.plan");
        plan_select(&select, db).map_err(|e| e.to_string())?
    };
    let _s = trace::span("access.exec");
    fn collect<E: Engine>(
        db: &Database,
        engine: E,
        plan: &sbdms_data::Plan,
    ) -> sbdms_kernel::error::Result<Vec<sbdms_access::record::Tuple>> {
        let stream = db.run_plan_with(&engine, plan)?;
        engine.collect(stream)
    }
    let rows = match db.execution_engine() {
        EngineKind::Tuple => collect(db, TupleEngine::default(), &planned.plan),
        EngineKind::Vectorized => collect(db, VectorEngine::default(), &planned.plan),
    }
    .map_err(|e| e.to_string())?;
    Ok(QueryResult {
        columns: planned.columns,
        rows,
        affected: 0,
    })
}
