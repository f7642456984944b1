//! `embedded-writes`: the embedded profile (single-writer undo path,
//! tuple engine, 16-frame Clock pool, no plan cache, no governor) under
//! a write-heavy mix from one in-process client with `Durability::Full`.

use std::path::Path;
use std::time::Instant;

use sbdms::config::Profile;
use sbdms_data::{parse, Database, QueryResult};

use crate::common::{buffer_accesses, open_db, run_select_traced, seal_load, Counters, Rng, Round};
use crate::kv::{self, Model};
use crate::trace;

/// Rows loaded before the timed phase.
pub const ROWS: i64 = 5_000;
/// First key the client inserts.
const FIRST_NEW_KEY: i64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    Insert,
    Update,
    Txn,
}

fn pick(r: &mut Rng) -> Op {
    match r.below(100) {
        0..=29 => Op::Read,
        30..=59 => Op::Insert,
        60..=74 => Op::Update,
        _ => Op::Txn,
    }
}

/// A statement run through the public calls one at a time, each a
/// span: parse, plan and execute for reads, parse and
/// `execute_statement` for writes.
fn run_traced(db: &Database, sql: &str, dml_span: &'static str) -> Result<QueryResult, String> {
    if sql.starts_with("SELECT") {
        return run_select_traced(db, sql);
    }
    let stmt = {
        let _s = trace::span("data.parse");
        parse(sql).map_err(|e| e.to_string())?
    };
    let _s = trace::span(dml_span);
    db.execute_statement(stmt).map_err(|e| e.to_string())
}

/// One round: set up, run `ops` operations, check reads against the
/// model, then check the table and the crash image.
pub fn round(
    dir: &Path,
    seed: u64,
    round_no: u64,
    ops: u64,
    traced: bool,
) -> Result<Round, String> {
    let setup_start = Instant::now();
    let (db, backend) = open_db(&dir.join("db"), Profile::Embedded, true)?;
    kv::create_and_load(&db, seed, ROWS)?;
    seal_load(&db)?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut out = Round {
        setup_s,
        ..Round::default()
    };
    let mut model = Model::loaded(seed, ROWS);
    let mut keys: Vec<i64> = (0..ROWS).collect();
    let mut next_key = FIRST_NEW_KEY;
    let mut rng = Rng::new(seed, 1000 + round_no);
    let exec = |sql: &str, span: &'static str| -> Result<QueryResult, String> {
        if traced {
            run_traced(&db, sql, span)
        } else {
            db.execute(sql).map_err(|e| e.to_string())
        }
    };

    let before = Counters::read(&db, &backend);
    trace::set_enabled(traced);
    let start = Instant::now();
    for op_id in 1..=ops {
        let op = pick(&mut rng);
        let t0 = Instant::now();
        let _op_span = trace::op(op_id);
        match op {
            Op::Read => {
                let k = keys[rng.below(keys.len() as u64) as usize];
                let res = exec(&kv::select_sql(k), "data.dml")?;
                let us = t0.elapsed().as_secs_f64() * 1e6;
                out.lat.add("read", us);
                if res.rows.len() != 1 || !model.row_ok(k, &res.rows[0]) {
                    out.wrong += 1;
                }
            }
            Op::Insert => {
                let k = next_key;
                next_key += 1;
                exec(&kv::insert_sql(seed, k), "data.insert")?;
                out.lat.add("insert", t0.elapsed().as_secs_f64() * 1e6);
                model.insert_acked(k, op_id);
                keys.push(k);
                out.user_bytes_written += kv::ROW_BYTES;
                out.commits += 1;
            }
            Op::Update => {
                let k = keys[rng.below(keys.len() as u64) as usize];
                let acc = traced.then(|| buffer_accesses(&db));
                exec(&kv::update_sql(k), "data.dml")?;
                out.lat.add("point_write", t0.elapsed().as_secs_f64() * 1e6);
                if let Some(a) = acc {
                    out.write_accesses.push((buffer_accesses(&db) - a) as f64);
                }
                model.increment(k, op_id, true);
                out.point_writes += 1;
                out.user_bytes_written += kv::ROW_BYTES;
                out.commits += 1;
            }
            Op::Txn => {
                let new: Vec<i64> = (0..3).map(|i| next_key + i).collect();
                next_key += 3;
                let k = keys[rng.below(keys.len() as u64) as usize];
                db.begin().map_err(|e| e.to_string())?;
                for &nk in &new {
                    exec(&kv::insert_sql(seed, nk), "data.insert")?;
                }
                exec(&kv::update_sql(k), "data.dml")?;
                {
                    let _s = trace::span("data.commit");
                    db.commit().map_err(|e| e.to_string())?;
                }
                out.lat.add("txn", t0.elapsed().as_secs_f64() * 1e6);
                for &nk in &new {
                    model.insert_acked(nk, op_id);
                    keys.push(nk);
                }
                model.increment(k, op_id, true);
                out.user_bytes_written += 4 * kv::ROW_BYTES;
                out.commits += 1;
            }
        }
    }
    out.ops_s = start.elapsed().as_secs_f64();
    trace::set_enabled(false);
    out.spans = trace::drain();
    out.attempted = ops;
    out.counts = Counters::read(&db, &backend).since(&before);
    out.live_user_bytes = model.live_bytes();
    kv::finish_checks(&db, &backend, dir, Profile::Embedded, &model, &mut out)?;
    Ok(out)
}
