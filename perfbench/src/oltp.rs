//! `oltp-server`: the full-fledged profile (MVCC, vectorized engine,
//! governor, 64-entry plan cache, group commit) behind the TCP server,
//! with two client connections sending autocommit `query` ops under
//! `Durability::Full`. Keys are skewed: 80% of ops go to the hottest 2%.

use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sbdms::config::Profile;
use sbdms_data::{Database, QueryResult};
use sbdms_server::client::Client;
use sbdms_server::protocol::{decode_rows, rows_response};
use sbdms_server::{Server, ServerConfig};

use crate::common::{
    buffer_accesses, open_db, run_select_traced, seal_load, with_retries, Counters, Latencies, Rng,
    Round,
};
use crate::kv::{self, Model};
use crate::trace;

/// Rows loaded before the timed phase.
pub const ROWS: i64 = 20_000;
/// Client connections.
pub const CLIENTS: u64 = 2;
/// Hot keys: every `ROWS / HOT`-th key; 80% of key picks land here.
const HOT: i64 = 400;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    Update,
    Insert,
    Delete,
}

/// A write as the client saw it, for building the model afterwards.
#[derive(Debug, Clone, Copy)]
enum Event {
    Increment { k: i64, op: u64, acked: bool },
    Insert { k: i64, op: u64, acked: bool },
    Delete { k: i64, op: u64, acked: bool },
}

/// What the clients of one round share: the seed, whether spans are
/// recorded, and the increments of each preloaded key — started, and
/// acknowledged — that reads are checked against.
struct Shared {
    seed: u64,
    traced: bool,
    started: Vec<AtomicI64>,
    acked: Vec<AtomicI64>,
}

#[derive(Default)]
struct ClientOut {
    lat: Latencies,
    events: Vec<Event>,
    wrong: u64,
    errored: u64,
    point_writes: u64,
    commits: u64,
    user_bytes: u64,
    write_accesses: Vec<f64>,
}

fn skewed_key(r: &mut Rng) -> i64 {
    if r.unit() < 0.8 {
        r.below(HOT as u64) as i64 * (ROWS / HOT)
    } else {
        r.below(ROWS as u64) as i64
    }
}

fn pick(r: &mut Rng, own_live: usize) -> Op {
    match r.below(100) {
        0..=81 => Op::Read,
        82..=91 => Op::Update,
        92..=95 => Op::Insert,
        // Deletes remove a key this client inserted; with none yet, the
        // op inserts one instead.
        _ if own_live > 0 => Op::Delete,
        _ => Op::Insert,
    }
}

/// Replay a read in-process through the calls the server makes — parse,
/// plan, execute — and the wire encode/decode of its result, each a
/// span, so the round trip can be split.
fn replay_read(db: &Database, sql: &str) -> Result<(), String> {
    let _s = trace::span("replay");
    let result: QueryResult = run_select_traced(db, sql)?;
    let frame = {
        let _s = trace::span("server.encode");
        rows_response(&result, false)
    };
    let _s = trace::span("server.decode");
    decode_rows(&frame).map_err(|e| e.to_string())?;
    Ok(())
}

fn client_loop(
    client: &mut Client,
    db: &Database,
    inc: &Shared,
    id: u64,
    round_no: u64,
    ops: u64,
) -> Result<ClientOut, String> {
    let (seed, traced) = (inc.seed, inc.traced);
    let mut out = ClientOut::default();
    let mut rng = Rng::new(seed, 2000 + round_no * 16 + id);
    let first_key = 10_000_000 * (id as i64 + 1);
    let mut next_key = first_key;
    let mut own: std::collections::VecDeque<i64> = Default::default();
    for i in 0..ops {
        let op_id = id * 1_000_000_000 + i + 1;
        let op = pick(&mut rng, own.len());
        let t0 = Instant::now();
        let _op_span = trace::op(op_id);
        let mut roundtrip = |sql: &str| {
            let _s = trace::span("server.roundtrip");
            with_retries(|| client.query(sql)).0
        };
        match op {
            Op::Read => {
                let k = skewed_key(&mut rng);
                let sql = kv::select_sql(k);
                let init = kv::initial_v(k);
                let lo = init + inc.acked[k as usize].load(Ordering::SeqCst);
                let res = roundtrip(&sql);
                let hi = init + inc.started[k as usize].load(Ordering::SeqCst);
                out.lat.add("read", t0.elapsed().as_secs_f64() * 1e6);
                match res {
                    Ok(r) => {
                        if r.rows.len() != 1 || !kv::row_matches(seed, k, &r.rows[0], lo, hi) {
                            out.wrong += 1;
                        }
                    }
                    Err(_) => out.errored += 1,
                }
                if traced {
                    replay_read(db, &sql)?;
                }
            }
            Op::Update => {
                let k = skewed_key(&mut rng);
                inc.started[k as usize].fetch_add(1, Ordering::SeqCst);
                let acc = traced.then(|| buffer_accesses(db));
                let acked = roundtrip(&kv::update_sql(k)).is_ok();
                out.lat.add("point_write", t0.elapsed().as_secs_f64() * 1e6);
                if let Some(a) = acc {
                    out.write_accesses.push((buffer_accesses(db) - a) as f64);
                }
                if acked {
                    inc.acked[k as usize].fetch_add(1, Ordering::SeqCst);
                }
                out.events.push(Event::Increment {
                    k,
                    op: op_id,
                    acked,
                });
                out.point_writes += 1;
                out.user_bytes += kv::ROW_BYTES;
                if acked {
                    out.commits += 1;
                } else {
                    out.errored += 1;
                }
            }
            Op::Insert => {
                let k = next_key;
                next_key += 1;
                let acked = roundtrip(&kv::insert_sql(seed, k)).is_ok();
                out.lat.add("insert", t0.elapsed().as_secs_f64() * 1e6);
                out.events.push(Event::Insert {
                    k,
                    op: op_id,
                    acked,
                });
                out.user_bytes += kv::ROW_BYTES;
                if acked {
                    own.push_back(k);
                    out.commits += 1;
                } else {
                    out.errored += 1;
                }
            }
            Op::Delete => {
                let k = own.pop_front().expect("pick only deletes own keys");
                let acc = traced.then(|| buffer_accesses(db));
                let acked = roundtrip(&kv::delete_sql(k)).is_ok();
                out.lat.add("point_write", t0.elapsed().as_secs_f64() * 1e6);
                if let Some(a) = acc {
                    out.write_accesses.push((buffer_accesses(db) - a) as f64);
                }
                out.events.push(Event::Delete {
                    k,
                    op: op_id,
                    acked,
                });
                out.point_writes += 1;
                out.user_bytes += kv::KEY_BYTES;
                if acked {
                    out.commits += 1;
                } else {
                    out.errored += 1;
                }
            }
        }
    }
    Ok(out)
}

/// One round: set up and start the server, run the clients, check reads
/// as they go, then check the table and the crash image.
/// `ops` is split evenly over the clients.
pub fn round(
    dir: &Path,
    seed: u64,
    round_no: u64,
    ops: u64,
    traced: bool,
) -> Result<Round, String> {
    let per_client = ops / CLIENTS;
    let setup_start = Instant::now();
    let (db, backend) = open_db(&dir.join("db"), Profile::FullFledged, true)?;
    kv::create_and_load(&db, seed, ROWS)?;
    seal_load(&db)?;
    let server = Server::start(db.clone(), ServerConfig::default()).map_err(|e| e.to_string())?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let inc = Arc::new(Shared {
        seed,
        traced,
        started: (0..ROWS).map(|_| AtomicI64::new(0)).collect(),
        acked: (0..ROWS).map(|_| AtomicI64::new(0)).collect(),
    });
    let before = Counters::read(&db, &backend);
    trace::set_enabled(traced);
    let start = Instant::now();
    let outs: Vec<Result<(Client, ClientOut), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(id, mut client)| {
                let (db, inc) = (&db, &inc);
                s.spawn(move || {
                    client_loop(&mut client, db, inc, id as u64, round_no, per_client)
                        .map(|out| (client, out))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let ops_s = start.elapsed().as_secs_f64();
    trace::set_enabled(false);
    let counts = Counters::read(&db, &backend).since(&before);

    let mut out = Round {
        setup_s,
        ops_s,
        attempted: CLIENTS * per_client,
        counts,
        spans: trace::drain(),
        ..Round::default()
    };
    let mut model = Model::loaded(seed, ROWS);
    for res in outs {
        let (client, c) = res?;
        let _ = client.close();
        out.lat.extend(c.lat);
        out.wrong += c.wrong;
        out.errored += c.errored;
        out.point_writes += c.point_writes;
        out.commits += c.commits;
        out.user_bytes_written += c.user_bytes;
        out.write_accesses.extend(c.write_accesses);
        for e in c.events {
            match e {
                Event::Increment { k, op, acked } => model.increment(k, op, acked),
                Event::Insert { k, op, acked: true } => model.insert_acked(k, op),
                Event::Insert {
                    k, acked: false, ..
                } => model.insert_failed(k),
                Event::Delete { k, op, acked } => model.delete(k, op, acked),
            }
        }
    }
    server.shutdown();
    out.live_user_bytes = model.live_bytes();
    kv::finish_checks(&db, &backend, dir, Profile::FullFledged, &model, &mut out)?;
    Ok(out)
}
