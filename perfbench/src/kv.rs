//! The indexed key-value table both write workloads run on, and the
//! model of acknowledged writes their reads and crash checks are
//! judged against.
//!
//! Rows are `(k INT, v INT, pad TEXT)`. Every write a workload issues
//! is an insert (new key, `v = 0`), an increment `v = v + 1`, or a
//! delete, so the model of a key is the range of values its acknowledged
//! and attempted writes allow: exact with one client, and consistent
//! with commutative increments with several.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use sbdms_access::record::{Datum, Tuple};
use sbdms_data::{Database, DbOptions};
use sbdms_storage::backend::FileBackend;

use sbdms::config::Profile;

use crate::backend::{materialise, CountingBackend};
use crate::common::{profile_options, Rng, Round};

/// Characters of the pad column.
pub const PAD_LEN: usize = 96;
/// Rows per INSERT statement while loading.
const LOAD_BATCH: usize = 250;

/// The deterministic pad of key `k`.
pub fn pad(seed: u64, k: i64) -> String {
    let mut r = Rng::new(seed, k as u64);
    let mut s = String::with_capacity(PAD_LEN);
    while s.len() < PAD_LEN {
        s.push_str(&format!("{:016x}", r.next_u64()));
    }
    s.truncate(PAD_LEN);
    s
}

/// Initial value of preloaded key `k`.
pub fn initial_v(k: i64) -> i64 {
    k % 1000
}

/// Logical bytes of one row: two 8-byte integers plus the pad.
pub const ROW_BYTES: u64 = 16 + PAD_LEN as u64;
/// Logical bytes a delete writes: the key.
pub const KEY_BYTES: u64 = 8;

pub fn select_sql(k: i64) -> String {
    format!("SELECT k, v, pad FROM kv WHERE k = {k}")
}

pub fn update_sql(k: i64) -> String {
    format!("UPDATE kv SET v = v + 1 WHERE k = {k}")
}

pub fn insert_sql(seed: u64, k: i64) -> String {
    format!("INSERT INTO kv VALUES ({k}, 0, '{}')", pad(seed, k))
}

pub fn delete_sql(k: i64) -> String {
    format!("DELETE FROM kv WHERE k = {k}")
}

/// Every row, for the end-of-run and crash checks.
pub const SCAN_SQL: &str = "SELECT k, v, pad FROM kv";

/// Create the table and its index and load keys `0..rows`.
pub fn create_and_load(db: &Database, seed: u64, rows: i64) -> Result<(), String> {
    let run = |sql: &str| {
        db.execute(sql)
            .map(|_| ())
            .map_err(|e| format!("{e}: {sql:.80}"))
    };
    run("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, pad TEXT)")?;
    run("CREATE INDEX kv_k ON kv (k)")?;
    let mut k = 0;
    while k < rows {
        let end = (k + LOAD_BATCH as i64).min(rows);
        let values: Vec<String> = (k..end)
            .map(|k| format!("({k}, {}, '{}')", initial_v(k), pad(seed, k)))
            .collect();
        run(&format!("INSERT INTO kv VALUES {}", values.join(", ")))?;
        k = end;
    }
    run("ANALYZE kv")
}

/// Whether a key's row must, must not, or may exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    Yes,
    No,
    Either,
}

/// What the acknowledged (and attempted) writes allow for one key.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub presence: Presence,
    /// Value implied by the acknowledged writes.
    pub lo: i64,
    /// Value if every attempted write also applied.
    pub hi: i64,
    /// Op ids of the acknowledged writes, oldest first.
    pub acked_ops: Vec<u64>,
    /// Whether the row existed before the timed phase.
    pub preloaded: bool,
}

/// The model: expectations for every key ever touched or loaded.
#[derive(Debug, Default, Clone)]
pub struct Model {
    pub keys: BTreeMap<i64, Expect>,
    /// Pad seed.
    pub seed: u64,
}

impl Model {
    /// Keys `0..rows` as loaded.
    pub fn loaded(seed: u64, rows: i64) -> Model {
        let keys = (0..rows)
            .map(|k| {
                let v = initial_v(k);
                (
                    k,
                    Expect {
                        presence: Presence::Yes,
                        lo: v,
                        hi: v,
                        acked_ops: Vec::new(),
                        preloaded: true,
                    },
                )
            })
            .collect();
        Model { keys, seed }
    }

    /// An acknowledged insert of `k` (value 0) by op `op`.
    pub fn insert_acked(&mut self, k: i64, op: u64) {
        self.keys.insert(
            k,
            Expect {
                presence: Presence::Yes,
                lo: 0,
                hi: 0,
                acked_ops: vec![op],
                preloaded: false,
            },
        );
    }

    /// An insert that failed: the row may or may not be there.
    pub fn insert_failed(&mut self, k: i64) {
        self.keys.insert(
            k,
            Expect {
                presence: Presence::Either,
                lo: 0,
                hi: 0,
                acked_ops: Vec::new(),
                preloaded: false,
            },
        );
    }

    /// An increment of `k`: `acked` says whether it was acknowledged.
    pub fn increment(&mut self, k: i64, op: u64, acked: bool) {
        let e = self.keys.get_mut(&k).expect("increment of a modelled key");
        e.hi += 1;
        if acked {
            e.lo += 1;
            e.acked_ops.push(op);
        }
    }

    /// A delete of `k`: acknowledged or not.
    pub fn delete(&mut self, k: i64, op: u64, acked: bool) {
        let e = self.keys.get_mut(&k).expect("delete of a modelled key");
        if acked {
            e.presence = Presence::No;
            e.acked_ops.push(op);
        } else {
            e.presence = Presence::Either;
        }
    }

    /// Logical bytes of the rows that must exist.
    pub fn live_bytes(&self) -> u64 {
        self.keys
            .values()
            .filter(|e| e.presence == Presence::Yes)
            .count() as u64
            * ROW_BYTES
    }

    /// Whether one read row is what the model allows for key `k`.
    pub fn row_ok(&self, k: i64, row: &Tuple) -> bool {
        let Some(e) = self.keys.get(&k) else {
            return false;
        };
        row_matches(self.seed, k, row, e.lo, e.hi) && e.presence != Presence::No
    }
}

/// Whether `row` is key `k` with a value in `lo..=hi` and its pad.
pub fn row_matches(seed: u64, k: i64, row: &Tuple, lo: i64, hi: i64) -> bool {
    match row.as_slice() {
        [Datum::Int(rk), Datum::Int(v), Datum::Str(p)] => {
            *rk == k && (lo..=hi).contains(v) && *p == pad(seed, k)
        }
        _ => false,
    }
}

/// What comparing a table's rows with the model found.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Check {
    /// Rows (or keys) that no history of the writes can explain.
    pub wrong: u64,
    /// Op ids of acknowledged writes missing from the rows.
    pub lost_ops: Vec<u64>,
}

/// Compare every row of the table with the model. Missing
/// acknowledged writes are attributed to the newest acknowledged ops of
/// their key; duplicate keys, unknown keys, bad pads and values above
/// what was attempted are wrong.
pub fn check_rows(model: &Model, rows: &[Tuple]) -> Check {
    let mut check = Check::default();
    let mut seen: BTreeMap<i64, &Tuple> = BTreeMap::new();
    for row in rows {
        let Some(Datum::Int(k)) = row.first() else {
            check.wrong += 1;
            continue;
        };
        if seen.insert(*k, row).is_some() {
            check.wrong += 1;
        }
    }
    for (k, e) in &model.keys {
        let row = seen.remove(k);
        let newest = |n: usize| e.acked_ops[e.acked_ops.len().saturating_sub(n)..].to_vec();
        match (row, e.presence) {
            (None, Presence::Yes) => {
                // Every acknowledged write of the key is gone; a lost
                // preloaded row is data loss no op accounts for.
                check.lost_ops.extend(e.acked_ops.iter().copied());
                if e.preloaded {
                    check.wrong += 1;
                }
            }
            (None, _) => {}
            (Some(_), Presence::No) => check.lost_ops.extend(newest(1)),
            (Some(row), _) => {
                let v = match row.get(1) {
                    Some(Datum::Int(v)) => *v,
                    _ => i64::MIN,
                };
                if !row_matches(model.seed, *k, row, i64::MIN, e.hi) {
                    check.wrong += 1;
                } else if v < e.lo {
                    check.lost_ops.extend(newest((e.lo - v) as usize));
                }
            }
        }
    }
    check.wrong += seen.len() as u64;
    check.lost_ops.sort_unstable();
    check.lost_ops.dedup();
    check
}

/// The crash check: write the synced image to `dir`, reopen it (running
/// crash recovery) and compare every row with the model.
pub fn crash_check(
    image: &HashMap<String, Vec<u8>>,
    dir: &Path,
    opts: DbOptions,
    model: &Model,
) -> Result<Check, String> {
    let _ = std::fs::remove_dir_all(dir);
    materialise(image, dir).map_err(|e| format!("write crash image: {e}"))?;
    let db = Database::open_at(&FileBackend::new(dir), opts)
        .map_err(|e| format!("reopen after crash: {e}"))?;
    let rows = db
        .execute(SCAN_SQL)
        .map_err(|e| format!("scan after crash: {e}"))?
        .rows;
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    Ok(check_rows(model, &rows))
}

/// The end-of-run checks both write workloads share: file sizes, every
/// live row against the model, then the crash image. Missing
/// acknowledged writes in the crash image count as lost ops.
pub fn finish_checks(
    db: &Database,
    backend: &CountingBackend,
    dir: &Path,
    profile: Profile,
    model: &Model,
    out: &mut Round,
) -> Result<(), String> {
    out.record_files(&dir.join("db"));
    let rows = db.execute(SCAN_SQL).map_err(|e| e.to_string())?.rows;
    let live = check_rows(model, &rows);
    out.wrong += live.wrong + live.lost_ops.len() as u64;
    if live != Check::default() {
        out.notes.push(format!(
            "live check: {} wrong rows, {} acknowledged writes missing",
            live.wrong,
            live.lost_ops.len()
        ));
    }
    if crate::common::plain_backend() {
        out.notes
            .push("crash check: skipped on the plain backend".into());
        return Ok(());
    }
    let image = backend.synced_image();
    let crash = crash_check(&image, &dir.join("crash"), profile_options(profile), model)?;
    out.wrong += crash.wrong;
    out.lost += crash.lost_ops.len() as u64;
    out.notes.push(format!(
        "crash check: {} acknowledged ops missing after reopening the synced image, {} wrong rows",
        crash.lost_ops.len(),
        crash.wrong
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(seed: u64, k: i64, v: i64) -> Tuple {
        vec![Datum::Int(k), Datum::Int(v), Datum::Str(pad(seed, k))]
    }

    fn model() -> Model {
        let mut m = Model::loaded(7, 3);
        m.increment(1, 10, true);
        m.insert_acked(100, 11);
        m.increment(100, 12, true);
        m
    }

    fn rows_of(m: &Model) -> Vec<Tuple> {
        m.keys
            .iter()
            .filter(|(_, e)| e.presence == Presence::Yes)
            .map(|(k, e)| row(m.seed, *k, e.lo))
            .collect()
    }

    #[test]
    fn model_accepts_the_rows_it_describes() {
        let m = model();
        assert_eq!(check_rows(&m, &rows_of(&m)), Check::default());
        assert!(m.row_ok(1, &row(7, 1, initial_v(1) + 1)));
    }

    #[test]
    fn model_flags_a_wrong_row() {
        let m = model();
        // Value off by one on a read.
        assert!(!m.row_ok(1, &row(7, 1, initial_v(1) + 2)));
        // Corrupted pad in a full scan.
        let mut rows = rows_of(&m);
        rows[0][2] = Datum::Str("x".repeat(PAD_LEN));
        assert_eq!(check_rows(&m, &rows).wrong, 1);
        // A key nobody wrote.
        let mut rows = rows_of(&m);
        rows.push(row(7, 555, 0));
        assert_eq!(check_rows(&m, &rows).wrong, 1);
    }

    #[test]
    fn missing_writes_are_attributed_to_their_ops() {
        let m = model();
        let mut rows = rows_of(&m);
        // The increment of key 100 (op 12) is missing.
        let i = rows.iter().position(|r| r[0] == Datum::Int(100)).unwrap();
        rows[i] = row(7, 100, 0);
        assert_eq!(check_rows(&m, &rows).lost_ops, vec![12]);
        // The whole inserted row is missing: both of its ops are lost.
        rows.remove(i);
        let c = check_rows(&m, &rows);
        assert_eq!((c.lost_ops, c.wrong), (vec![11, 12], 0));
    }

    #[test]
    fn crash_check_flags_a_write_dropped_from_the_shadow() {
        use crate::common::seal_load;

        let root = crate::test_dir("crash-check");
        let opts = profile_options(Profile::Embedded);
        let backend = CountingBackend::new(&root.join("db"), true);
        let db = Database::open_at(&backend, opts.clone()).unwrap();
        create_and_load(&db, 7, 20).unwrap();
        seal_load(&db).unwrap();
        let mut model = Model::loaded(7, 20);
        let txn = |db: &Database, sql: &str| {
            db.begin().unwrap();
            db.execute(sql).unwrap();
            db.commit().unwrap();
        };
        txn(&db, &update_sql(3));
        model.increment(3, 1, true);
        let image = backend.synced_image();
        let clean = crash_check(&image, &root.join("crash"), opts.clone(), &model).unwrap();
        assert_eq!(clean, Check::default());

        // The device drops what the next commit syncs: the commit is
        // acknowledged but not on the synced image.
        backend.drop_syncs("wal.log", true);
        backend.drop_syncs("data.db", true);
        txn(&db, &update_sql(5));
        model.increment(5, 2, true);
        let image = backend.synced_image();
        let lost = crash_check(&image, &root.join("crash"), opts, &model).unwrap();
        assert_eq!((lost.lost_ops, lost.wrong), (vec![2], 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_increments_allow_a_range() {
        let mut m = model();
        m.increment(2, 20, false);
        let base = initial_v(2);
        assert!(m.row_ok(2, &row(7, 2, base)));
        assert!(m.row_ok(2, &row(7, 2, base + 1)));
        assert!(!m.row_ok(2, &row(7, 2, base + 2)));
    }
}
