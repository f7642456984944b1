//! The SBDMS benchmark: seeded user workloads measured end to end, with
//! a traced run that attributes the time to the layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp-server --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `oltp-server`, `analytics`, `embedded-writes` (see
//! `perfbench/README.md`). A run sets up the workload [`ROUNDS`] times
//! and runs a fixed, seeded operation count after each set-up; the
//! count scales with `--seconds`. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs one untraced and one traced round and
//! prints the per-layer metrics. `--backend plain` opens the databases
//! without the counting storage wrapper (no device counters, no crash
//! check) to measure the wrapper's own cost. Human-readable lines come first; the
//! last line of standard output is the JSON result. Working files go
//! under `.perfbench/` in the current directory.

mod analytics;
mod backend;
mod common;
mod embedded;
mod kv;
mod oltp;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use common::Round;
use stats::{median, percentile, ratio};

/// Set-ups (and timed phases) per untraced run.
const ROUNDS: u64 = 7;

const WORKLOADS: [&str; 3] = ["oltp-server", "analytics", "embedded-writes"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--backend" => match value()?.as_str() {
                "counting" => {}
                "plain" => common::PLAIN_BACKEND.store(true, std::sync::atomic::Ordering::Relaxed),
                other => return Err(format!("--backend must be counting or plain, not {other}")),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Run one round of the workload. Operation counts are per second of
/// `--seconds`, split over [`ROUNDS`], sized so one run measures about
/// that long on a 2-core machine.
fn round(args: &Args, dir: &Path, round_no: u64, traced: bool) -> Result<Round, String> {
    let per_round = |per_second: u64| (per_second * args.seconds / ROUNDS).max(100);
    match args.workload.as_str() {
        "oltp-server" => oltp::round(dir, args.seed, round_no, per_round(430), traced),
        "analytics" => analytics::round(dir, args.seed, round_no, per_round(95), traced),
        _ => embedded::round(dir, args.seed, round_no, per_round(600), traced),
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples (or events) behind the value.
    samples: u64,
    /// Extra context for the human-readable line.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        note: String::new(),
    }
}

/// A latency percentile of `samples` in microseconds (0 with too few).
fn pct_metric(name: &'static str, samples: &[f64], want: f64) -> Metric {
    match percentile(samples, want) {
        Some(p) => Metric {
            note: format!("p{:.2}", p.pct),
            ..metric(name, p.value, "us", p.samples as u64)
        },
        None => Metric {
            note: "too few samples".into(),
            ..metric(name, 0.0, "us", samples.len() as u64)
        },
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A latency percentile taken in each round (of one class, or of every
/// op), reported as the median over the rounds: each round runs the same
/// operation count, so the percentile is the same in every round, and a
/// round disturbed by something outside the benchmark does not move it.
fn round_pct(name: &'static str, rounds: &[Round], class: Option<&str>, want: f64) -> Metric {
    let per_round: Vec<Metric> = rounds
        .iter()
        .map(|r| match class {
            Some(c) => pct_metric(name, r.lat.class(c), want),
            None => pct_metric(name, &r.lat.all(), want),
        })
        .collect();
    let values: Vec<f64> = per_round.iter().map(|m| m.value).collect();
    Metric {
        note: format!(
            "{} per round, median of {} rounds",
            per_round[0].note,
            rounds.len()
        ),
        ..metric(
            name,
            median(&values),
            "us",
            per_round.iter().map(|m| m.samples).sum(),
        )
    }
}

/// End-to-end metrics of the untraced rounds, each the median over the
/// rounds. The first block is what `BENCHMARK.json` names and gates; the
/// rest is reported for reading only: the tails swing with the host's
/// load by more than the largest bound a gated metric may have.
fn end_to_end(rounds: &[Round]) -> (Vec<Metric>, Vec<Metric>) {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let n = rounds.len() as u64;
    let gated = vec![
        metric("setup_s", per_round(&|r| r.setup_s), "s", n),
        metric(
            "throughput_ops_s",
            per_round(&|r| ratio(r.attempted as f64, r.ops_s)),
            "1/s",
            attempted,
        ),
        round_pct("read_p50_us", rounds, Some("read"), 50.0),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        metric(
            "space_amp",
            per_round(&|r| {
                ratio(
                    (r.data_bytes + r.wal_bytes) as f64,
                    r.live_user_bytes as f64,
                )
            }),
            "x",
            n,
        ),
    ];
    let mut extra = vec![
        round_pct("read_p99_us", rounds, Some("read"), 99.0),
        round_pct("op_p50_us", rounds, None, 50.0),
        round_pct("op_p99_us", rounds, None, 99.0),
    ];
    // Per operation class, pooled over the rounds.
    let mut lat = common::Latencies::default();
    for r in rounds {
        for (class, v) in &r.lat.0 {
            for &s in v {
                lat.add(class, s);
            }
        }
    }
    let failed: u64 = rounds.iter().map(|r| r.errored + r.wrong + r.lost).sum();
    for (class, label) in [
        ("point_write", ["point_write_p50_us", "point_write_p99_us"]),
        ("insert", ["insert_p50_us", "insert_p99_us"]),
        ("txn", ["txn_p50_us", "txn_p99_us"]),
    ] {
        if !lat.class(class).is_empty() {
            extra.push(pct_metric(label[0], lat.class(class), 50.0));
            extra.push(pct_metric(label[1], lat.class(class), 99.0));
        }
    }
    extra.push(metric(
        "failed_ops_frac",
        ratio(failed as f64, attempted as f64),
        "frac",
        attempted,
    ));
    (gated, extra)
}

fn spans_by_op(spans: &[trace::Span]) -> HashMap<u64, Vec<&trace::Span>> {
    let mut by_op: HashMap<u64, Vec<&trace::Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.op != 0) {
        by_op.entry(s.op).or_default().push(s);
    }
    by_op
}

/// Median duration of the spans called `name`, microseconds.
fn span_us(spans: &[trace::Span], name: &str) -> (f64, u64) {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    (median(&d), d.len() as u64)
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Per-layer metrics: counters from the untraced round `base`, span
/// times from the traced round `traced`.
fn per_layer(base: &Round, traced: &Round) -> Vec<Metric> {
    let c = &base.counts;
    let device = c.device();
    let ops = base.attempted as f64;
    let commits = base.commits as f64;
    let user = base.user_bytes_written as f64;
    let spans = &traced.spans;
    let span_metric = |name: &'static str, span: &str| {
        let (v, n) = span_us(spans, span);
        metric(name, v, "us", n)
    };

    // Reads of the server workload are replayed in-process: the round
    // trip minus the replayed parse, plan, execute, encode and decode is
    // the server's own share (wire, dispatch, admission, plan cache,
    // session).
    let (mut read_roundtrips, mut server_self) = (Vec::new(), Vec::new());
    for op_spans in spans_by_op(spans).values() {
        if !op_spans.iter().any(|s| s.name == "replay") {
            continue;
        }
        let total = |names: &[&str]| -> u64 {
            op_spans
                .iter()
                .filter(|s| names.contains(&s.name))
                .map(|s| s.dur_ns())
                .sum()
        };
        let roundtrip = total(&["server.roundtrip"]);
        let inner = total(&[
            "data.parse",
            "data.plan",
            "access.exec",
            "server.encode",
            "server.decode",
        ]);
        read_roundtrips.push(roundtrip as f64 / 1e3);
        server_self.push(roundtrip.saturating_sub(inner) as f64 / 1e3);
    }
    let self_ns = trace::self_times(spans);
    let op_self: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| self_ns[&s.id] as f64 / 1e3)
        .collect();
    let base_lat = mean(&base.lat.all());
    let traced_lat = mean(&traced.lat.all());

    vec![
        metric(
            "server.roundtrip_us",
            median(&read_roundtrips),
            "us",
            read_roundtrips.len() as u64,
        ),
        span_metric("server.encode_us", "server.encode"),
        span_metric("server.decode_us", "server.decode"),
        metric(
            "server.self_us",
            median(&server_self),
            "us",
            server_self.len() as u64,
        ),
        metric(
            "kernel.governor.shed",
            c.shed as f64,
            "count",
            base.attempted,
        ),
        metric(
            "kernel.governor.degraded",
            c.degraded as f64,
            "count",
            base.attempted,
        ),
        metric(
            "kernel.governor.cancelled",
            c.cancelled as f64,
            "count",
            base.attempted,
        ),
        metric(
            "kernel.mvcc.conflicts_per_commit",
            ratio(c.mvcc_conflicts as f64, c.mvcc_commits as f64),
            "ratio",
            c.mvcc_commits,
        ),
        metric(
            "data.plan_cache.hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
            c.cache_hits + c.cache_misses,
        ),
        metric(
            "data.plans_selected_per_op",
            ratio(c.plans_selected as f64, ops),
            "ratio",
            base.attempted,
        ),
        span_metric("data.parse_us", "data.parse"),
        span_metric("data.plan_us", "data.plan"),
        span_metric("access.exec_us", "access.exec"),
        span_metric("data.dml_us", "data.dml"),
        metric(
            "storage.buffer.accesses_per_write",
            median(&traced.write_accesses),
            "count",
            traced.write_accesses.len() as u64,
        ),
        span_metric("data.commit_us", "data.commit"),
        metric(
            "storage.buffer.hit_ratio",
            ratio(c.buf_hits as f64, (c.buf_hits + c.buf_misses) as f64),
            "ratio",
            c.buf_hits + c.buf_misses,
        ),
        metric(
            "storage.buffer.evictions_per_op",
            ratio(c.buf_evictions as f64, ops),
            "ratio",
            base.attempted,
        ),
        metric(
            "storage.disk.page_reads_per_op",
            ratio(c.disk_reads as f64, ops),
            "ratio",
            base.attempted,
        ),
        metric(
            "storage.disk.page_writes_per_commit",
            ratio(c.disk_writes as f64, commits),
            "ratio",
            base.commits,
        ),
        metric(
            "storage.wal.bytes_per_user_byte",
            ratio(c.wal_lsn as f64, user),
            "ratio",
            base.user_bytes_written,
        ),
        metric(
            "storage.device.bytes_written_per_user_byte",
            ratio(device.bytes_written as f64, user),
            "ratio",
            base.user_bytes_written,
        ),
        metric(
            "storage.device.syncs_per_commit",
            ratio(device.syncs as f64, commits),
            "ratio",
            base.commits,
        ),
        metric(
            "storage.device.sync_us",
            ratio(device.sync_ns as f64 / 1e3, device.syncs as f64),
            "us",
            device.syncs,
        ),
        metric(
            "bench.op_self_us",
            median(&op_self),
            "us",
            op_self.len() as u64,
        ),
        Metric {
            note: "traced vs untraced mean op latency".into(),
            ..metric(
                "bench.trace_overhead_frac",
                ratio(traced_lat, base_lat) - 1.0,
                "frac",
                traced.attempted,
            )
        },
    ]
}

fn print_metrics(prefix: &str, metrics: &[Metric]) {
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!(", {}", m.note)
        };
        println!(
            "{prefix} {} = {} {} (n={}{note})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run(args: &Args, root: &Path) -> Result<(), String> {
    let dir = root.join(format!("run-{}", std::process::id()));
    let rounds: Vec<(u64, bool)> = if args.trace {
        vec![(0, false), (0, true)]
    } else {
        (0..ROUNDS).map(|r| (r, false)).collect()
    };
    let mut done = Vec::new();
    for (round_no, traced) in rounds {
        let r = round(args, &dir, round_no, traced);
        let _ = std::fs::remove_dir_all(&dir);
        done.push(r?);
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} rounds={} cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        done.len()
    );
    for (i, r) in done.iter().enumerate() {
        println!(
            "# round {i}: setup {:.3} s, {} ops in {:.3} s",
            r.setup_s, r.attempted, r.ops_s
        );
    }
    let mut notes: Vec<&String> = done.iter().flat_map(|r| &r.notes).collect();
    notes.dedup();
    for n in notes {
        println!("# {n}");
    }
    let attempted: u64 = done.iter().map(|r| r.attempted).sum();
    let failed: u64 = done.iter().map(|r| r.errored + r.wrong + r.lost).sum();
    let wrong: u64 = done.iter().map(|r| r.wrong).sum();
    let results = root.join("results");
    let _ = std::fs::create_dir_all(&results);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let metrics = if args.trace {
        let layers = per_layer(&done[0], &done[1]);
        print_metrics("layer", &layers);
        let c = &done[0].counts;
        for (name, io) in [("data.db", c.data_file), ("wal.log", c.wal_file)] {
            println!(
                "info device {name}: reads={} writes={} bytes_read={} bytes_written={} syncs={} \
                 read_us={:.0} write_us={:.0} sync_us={:.0} (untraced round)",
                io.reads,
                io.writes,
                io.bytes_read,
                io.bytes_written,
                io.syncs,
                io.read_ns as f64 / 1e3,
                io.write_ns as f64 / 1e3,
                io.sync_ns as f64 / 1e3
            );
        }
        let spans = trace::to_json(&done[1].spans);
        let _ = std::fs::write(results.join(format!("{stem}-spans.json")), spans);
        layers
    } else {
        let (gated, extra) = end_to_end(&done);
        print_metrics("metric", &gated);
        print_metrics("info", &extra);
        gated
    };
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        wrong == 0,
        metrics_json(&metrics)
    );
    let _ = std::fs::write(results.join(format!("{stem}.json")), &json);
    println!("{json}");
    Ok(())
}

/// Scratch directory for tests, inside the package.
#[cfg(test)]
pub fn test_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".perfbench")
        .join(format!("test-{name}-{}", std::process::id()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root: PathBuf = PathBuf::from(".perfbench");
    if let Err(e) = run(&args, &root) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
