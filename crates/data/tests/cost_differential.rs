//! Differential tests for cost-based plan selection: whatever plan the
//! cost model picks, the answer must be byte-identical to every forced
//! baseline (forced join algorithms, textual join order, sequential
//! scans only, statistics disabled). A proptest closes the loop on the
//! ANALYZE lifecycle: fresh statistics must change the chosen plan for
//! a non-selective indexed predicate and invalidate cached plans.

use proptest::prelude::*;
use sbdms_access::exec::join::JoinAlgorithm;
use sbdms_data::executor::{Database, DbOptions, QueryResult};
use sbdms_data::ast::Statement;
use sbdms_data::{parse, plan_select, ConcurrencyControl, Plan};
use sbdms_storage::{SimBackend, SimConfig};

fn open_db(seed: u64) -> std::sync::Arc<Database> {
    let sim = SimBackend::new(SimConfig::seeded(seed));
    Database::open_at(&*sim, DbOptions::default()).unwrap()
}

/// A star-ish schema with skewed sizes: a 600-row fact table, a 3-row
/// dimension and a 120-row dimension, plus indexes the access-path
/// selector can pick or reject.
fn load_workload(db: &Database) {
    db.execute("CREATE TABLE fact (id INT NOT NULL, d1 INT NOT NULL, d2 INT NOT NULL, val INT NOT NULL)")
        .unwrap();
    db.execute("CREATE TABLE dim_small (id INT NOT NULL, name TEXT NOT NULL)")
        .unwrap();
    db.execute("CREATE TABLE dim_big (id INT NOT NULL, label TEXT NOT NULL)")
        .unwrap();
    db.execute("CREATE INDEX fact_val ON fact (val)").unwrap();
    db.execute("CREATE INDEX dim_big_id ON dim_big (id)").unwrap();
    for chunk in (0..600i64).collect::<Vec<_>>().chunks(150) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, {}, {})", i % 3, i % 120, (i * 7) % 600))
            .collect();
        db.execute(&format!("INSERT INTO fact VALUES {}", vals.join(", ")))
            .unwrap();
    }
    let vals: Vec<String> = (0..3i64).map(|i| format!("({i}, 'n{i}')")).collect();
    db.execute(&format!("INSERT INTO dim_small VALUES {}", vals.join(", ")))
        .unwrap();
    let vals: Vec<String> = (0..120i64).map(|i| format!("({i}, 'l{i}')")).collect();
    db.execute(&format!("INSERT INTO dim_big VALUES {}", vals.join(", ")))
        .unwrap();
}

/// Queries spanning the decisions the cost model makes: join algorithm,
/// join order (fact listed first = worst textual order), access path
/// (selective range, non-selective range, point probe, BETWEEN).
const QUERIES: &[&str] = &[
    "SELECT fact.id, dim_small.name FROM fact JOIN dim_small ON fact.d1 = dim_small.id",
    "SELECT fact.id, dim_big.label FROM fact JOIN dim_big ON fact.d2 = dim_big.id WHERE dim_big.id < 4",
    "SELECT fact.id, dim_small.name, dim_big.label FROM fact \
     JOIN dim_small ON fact.d1 = dim_small.id \
     JOIN dim_big ON fact.d2 = dim_big.id \
     WHERE dim_big.id < 10 AND fact.val < 300",
    "SELECT id FROM fact WHERE val >= 590",
    "SELECT id FROM fact WHERE val >= 0",
    "SELECT id FROM fact WHERE val >= 100 AND val <= 110",
    "SELECT fact.id FROM fact JOIN dim_big ON fact.d2 = dim_big.id WHERE fact.val = 7",
];

fn sorted_rows(db: &Database, sql: &str) -> (Vec<String>, Vec<String>) {
    sorted_result(db.execute(sql).unwrap())
}

fn sorted_result(result: QueryResult) -> (Vec<String>, Vec<String>) {
    let mut rows: Vec<String> = result
        .rows
        .iter()
        .map(|row| row.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("|"))
        .collect();
    rows.sort();
    (result.columns, rows)
}

#[test]
fn cost_based_plans_match_every_forced_baseline() {
    let db = open_db(11);
    load_workload(&db);
    for table in ["fact", "dim_small", "dim_big"] {
        db.execute(&format!("ANALYZE {table}")).unwrap();
    }

    // Reference answers under full cost-based selection.
    let reference: Vec<_> = QUERIES.iter().map(|q| sorted_rows(&db, q)).collect();

    // Forced-join baselines: every equi-join runs the named algorithm.
    for forced in [
        JoinAlgorithm::Hash,
        JoinAlgorithm::Merge,
        JoinAlgorithm::NestedLoop,
    ] {
        db.force_join_algorithm(Some(forced));
        for (q, want) in QUERIES.iter().zip(&reference) {
            let got = sorted_rows(&db, q);
            assert_eq!(&got, want, "forced {forced:?} diverged on `{q}`");
        }
        db.force_join_algorithm(None);
    }

    // Textual join order.
    db.set_join_reordering(false);
    for (q, want) in QUERIES.iter().zip(&reference) {
        let got = sorted_rows(&db, q);
        assert_eq!(&got, want, "textual join order diverged on `{q}`");
    }
    db.set_join_reordering(true);

    // Sequential scans only.
    db.set_index_selection(false);
    for (q, want) in QUERIES.iter().zip(&reference) {
        let got = sorted_rows(&db, q);
        assert_eq!(&got, want, "seq-scan-only diverged on `{q}`");
    }
    db.set_index_selection(true);

    // Statistics ignored entirely (the seed's syntactic planner).
    db.set_use_stats(false);
    for (q, want) in QUERIES.iter().zip(&reference) {
        let got = sorted_rows(&db, q);
        assert_eq!(&got, want, "stats-off planning diverged on `{q}`");
    }
}

#[test]
fn knob_flips_invalidate_cached_plans() {
    let db = open_db(12);
    load_workload(&db);
    let sql = QUERIES[0];
    db.execute(sql).unwrap();
    let hits_before = db.plan_cache_stats().hits;
    db.execute(sql).unwrap();
    assert_eq!(db.plan_cache_stats().hits, hits_before + 1, "repeat should hit");
    // Any knob change moves the epoch: the cached plan no longer serves.
    db.force_join_algorithm(Some(JoinAlgorithm::Merge));
    db.execute(sql).unwrap();
    assert_eq!(db.plan_cache_stats().hits, hits_before + 1, "knob flip must miss");
}

fn explain_text(db: &Database, sql: &str) -> String {
    explain_lines(db.execute(&format!("EXPLAIN {sql}")).unwrap())
}

fn explain_lines(result: QueryResult) -> String {
    result
        .rows
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// 900 events over 9 tenants with a composite (tenant, ts) index and a
/// nullable `kind` index; every 97th kind is NULL.
fn load_events(db: &Database) {
    db.execute(
        "CREATE TABLE ev (tenant INT NOT NULL, ts INT NOT NULL, kind INT, payload TEXT)",
    )
    .unwrap();
    db.execute("CREATE INDEX ev_tenant_ts ON ev (tenant, ts)").unwrap();
    db.execute("CREATE INDEX ev_kind ON ev (kind)").unwrap();
    for chunk in (0..900i64).collect::<Vec<_>>().chunks(150) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|i| {
                let kind = if i % 97 == 0 {
                    "NULL".to_string()
                } else {
                    (i % 45).to_string()
                };
                format!("({}, {i}, {kind}, 'p{i}')", i % 9)
            })
            .collect();
        db.execute(&format!("INSERT INTO ev VALUES {}", vals.join(", ")))
            .unwrap();
    }
    db.execute("ANALYZE ev").unwrap();
}

/// One query per richer access path: (query, marker the chosen plan
/// must carry in `EXPLAIN`).
const ACCESS_PATH_CASES: &[(&str, &str)] = &[
    // Composite equality on both key columns.
    (
        "SELECT payload FROM ev WHERE tenant = 4 AND ts = 400",
        "eq=[Int(4), Int(400)]",
    ),
    // Equality prefix + range on the next key column.
    (
        "SELECT payload FROM ev WHERE tenant = 4 AND ts >= 100 AND ts <= 140",
        "eq=[Int(4)] lo=Some(Int(100)) hi=Some(Int(140)) hi_inc=true",
    ),
    // IN list → IndexOr; the duplicate literal dedups to 2 keys.
    (
        "SELECT payload FROM ev WHERE kind IN (3, 3, 7)",
        "IndexOr ev.ev_kind (2 keys)",
    ),
    // Two moderately selective equalities → sorted-rid intersection.
    // (tenant = i%9 and kind = i%45 correlate: kind 7 rows all live
    // in tenant 7, so the intersection is non-empty.)
    (
        "SELECT payload FROM ev WHERE tenant = 7 AND kind = 7",
        "IndexAnd ev [ev_tenant_ts ∩ ev_kind]",
    ),
    // Key columns answer the query → index-only scan.
    (
        "SELECT tenant, ts FROM ev WHERE tenant = 7",
        "covering",
    ),
];

/// The richer access paths — composite-equality probes, prefix-range
/// scans, IndexOr probe unions, IndexAnd intersections, covering
/// index-only scans — must each be provably *chosen* by the cost model
/// on a shape built for it, and byte-identical to the forced
/// sequential-scan baseline. The data includes NULLs in an indexed
/// column (NULL keys live in the B-tree but `= NULL` is never true in
/// SQL: the residual filter must drop what the probe admits) and the
/// IN list carries a duplicate literal (plan-time key dedup).
#[test]
fn new_access_paths_chosen_and_differentially_correct() {
    let db = open_db(21);
    load_events(&db);

    for (sql, marker) in ACCESS_PATH_CASES {
        let explain = explain_text(&db, sql);
        assert!(explain.contains(marker), "`{sql}` should plan {marker}:\n{explain}");
        let chosen = sorted_rows(&db, sql);
        db.set_index_selection(false);
        let baseline = sorted_rows(&db, sql);
        db.set_index_selection(true);
        assert_eq!(chosen, baseline, "`{sql}` diverged from seq-scan baseline");
        assert!(!chosen.1.is_empty(), "`{sql}` should return rows");
    }

    // NULL keys sit in ev_kind's B-tree, but SQL `=` never matches NULL:
    // the probes above must not leak the 10 NULL-kind rows, and IS NULL
    // (not index-eligible) still finds them.
    let (_, nulls) = sorted_rows(&db, "SELECT payload FROM ev WHERE kind IS NULL");
    assert_eq!(nulls.len(), 10);

    // Adversarial shapes: the cost model must *decline* the new paths.
    // A 4-of-9-tenants OR covers ~44% of the table — random fetches
    // lose to one sequential pass.
    let explain = explain_text(&db, "SELECT payload FROM ev WHERE tenant IN (1, 2, 3, 4)");
    assert!(
        explain.contains("TableScan ev") && !explain.contains("IndexOr"),
        "non-selective OR must fall back to seq scan:\n{explain}"
    );
    // ts is not a leading key column anywhere: no candidate exists.
    let explain = explain_text(&db, "SELECT payload FROM ev WHERE ts = 400");
    assert!(
        explain.contains("TableScan ev") && !explain.contains("IndexScan"),
        "weak prefix (non-leading column) must not probe:\n{explain}"
    );
}

/// The same access paths under MVCC, read from inside an open snapshot
/// whose rows the B-trees no longer describe. The default session (A)
/// pins a snapshot; session B then commits updates that move keys into
/// and out of the probed ranges, deletes (leaving chain-only versions)
/// and inserts; A then buffers its own updates, deletes and inserts.
/// Every probe shape must still be chosen and must answer exactly what
/// the sequential scan of the same snapshot answers — probed rids
/// resolved through the overlay, chain versions the probe missed, and
/// A's unindexed own writes all included. The index leaf alone (run
/// without the planner's residual filter) must already return exactly
/// those rows: replaced and buffered images are re-checked against the
/// probe's key constraints. After A commits, the autocommit
/// (latest-state) probes are checked the same way from B.
#[test]
fn new_access_paths_correct_against_mvcc_snapshots() {
    let sim = SimBackend::new(SimConfig::seeded(22));
    let opts = DbOptions {
        concurrency: ConcurrencyControl::Mvcc,
        ..DbOptions::default()
    };
    let db = Database::open_at(&*sim, opts).unwrap();
    load_events(&db);

    db.begin().unwrap();
    let count = |rows: Vec<Vec<sbdms_access::record::Datum>>| rows[0][0].to_string();
    let before: i64 = count(db.execute("SELECT COUNT(*) FROM ev").unwrap().rows)
        .parse()
        .unwrap();

    let b = db.session();
    for sql in [
        // Into the composite point / out of it, into the prefix range.
        "UPDATE ev SET ts = 120 WHERE tenant = 4 AND ts = 400",
        // Out of tenant 4's prefix range (the B-tree no longer sees it).
        "UPDATE ev SET tenant = 5 WHERE tenant = 4 AND ts = 112",
        // Out of and into the IN list.
        "UPDATE ev SET kind = 11 WHERE kind = 3 AND ts < 300",
        "UPDATE ev SET kind = 3 WHERE kind = 12 AND ts < 200",
        // Chain-only versions under every shape.
        "DELETE FROM ev WHERE tenant = 7 AND ts < 200",
        "DELETE FROM ev WHERE tenant = 4 AND ts >= 130 AND ts <= 135",
        "DELETE FROM ev WHERE kind = 7 AND ts > 800",
        // Inserts the snapshot must not see (some reuse freed rids).
        "INSERT INTO ev VALUES (4, 105, 3, 'b1'), (7, 7000, 7, 'b2'), (4, 400, 7, 'b3')",
    ] {
        b.execute(sql).unwrap();
    }

    for sql in [
        "UPDATE ev SET ts = 110 WHERE tenant = 4 AND ts = 499",
        "UPDATE ev SET ts = 999 WHERE tenant = 4 AND ts = 103",
        "UPDATE ev SET kind = 7 WHERE tenant = 7 AND ts = 601",
        "UPDATE ev SET kind = 5 WHERE kind = 7 AND ts > 500 AND ts < 700",
        "DELETE FROM ev WHERE tenant = 4 AND ts = 121",
        "DELETE FROM ev WHERE tenant = 7 AND ts >= 250 AND ts < 300",
        "INSERT INTO ev VALUES (4, 400, 7, 'a1'), (4, 125, 3, 'a2'), (7, 7, 7, 'a3'), (7, 9999, NULL, 'a4')",
        "UPDATE ev SET ts = 130 WHERE payload = 'a4'",
    ] {
        db.execute(sql).unwrap();
    }
    // One own delete, six in the range, four own inserts.
    let after = count(db.execute("SELECT COUNT(*) FROM ev").unwrap().rows);
    assert_eq!(after, (before - 1 - 6 + 4).to_string(), "snapshot plus own writes only");

    let check = |run: &dyn Fn(&str) -> QueryResult, label: &str| {
        for (sql, marker) in ACCESS_PATH_CASES {
            let explain = explain_lines(run(&format!("EXPLAIN {sql}")));
            assert!(explain.contains(marker), "{label}: `{sql}` should plan {marker}:\n{explain}");
            let chosen = sorted_result(run(sql));
            db.set_index_selection(false);
            let baseline = sorted_result(run(sql));
            db.set_index_selection(true);
            assert_eq!(chosen, baseline, "{label}: `{sql}` diverged from seq-scan baseline");
            assert!(!chosen.1.is_empty(), "{label}: `{sql}` should return rows");
        }
    };
    check(&|sql| db.execute(sql).unwrap(), "snapshot");

    // The index leaf alone, without the residual filter above it.
    for (sql, _) in ACCESS_PATH_CASES {
        let Statement::Select(select) = parse(sql).unwrap() else {
            panic!("`{sql}` is a SELECT");
        };
        let planned = plan_select(&select, &*db).unwrap();
        let leaf = index_leaf(&planned.plan).expect("an index leaf");
        let covering = matches!(leaf, Plan::IndexScan { covering: true, .. });
        let mut rows: Vec<String> = db
            .run_plan(leaf)
            .unwrap()
            .map(|row| {
                let row = row.unwrap();
                match covering {
                    true => row.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("|"),
                    false => row[3].to_string(),
                }
            })
            .collect();
        rows.sort();
        assert_eq!(rows, sorted_rows(&db, sql).1, "index leaf of `{sql}` under the snapshot");
    }

    // Spot checks of what the snapshot must see.
    let point = sorted_rows(&db, ACCESS_PATH_CASES[0].0).1;
    assert_eq!(point, vec!["a1".to_string(), "p400".to_string()]);
    let range = sorted_rows(&db, ACCESS_PATH_CASES[1].0).1;
    assert!(range.contains(&"p112".to_string()) && range.contains(&"p499".to_string()));
    assert!(!range.contains(&"p103".to_string()) && !range.contains(&"b1".to_string()));

    db.commit().unwrap();
    check(&|sql| b.execute(sql).unwrap(), "autocommit");
}

/// The index access-path node of a plan, wherever it sits.
fn index_leaf(plan: &Plan) -> Option<&Plan> {
    match plan {
        Plan::IndexScan { .. } | Plan::IndexOr { .. } | Plan::IndexAnd { .. } => Some(plan),
        _ => plan.children().into_iter().find_map(index_leaf),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After a bulk load, ANALYZE (a) changes the chosen plan for a
    /// non-selective predicate on an indexed column — the syntactic
    /// planner always takes the index, the cost model rejects it once
    /// row counts say a sequential scan is cheaper — and (b) bumps the
    /// plan-cache epoch so the stale cached plan stops serving.
    #[test]
    fn analyze_changes_plan_and_invalidates_cache(
        rows in 100i64..400,
        seed in 0u64..1_000,
    ) {
        let db = open_db(0x5eed ^ seed);
        db.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)").unwrap();
        db.execute("CREATE INDEX t_k ON t (k)").unwrap();
        for chunk in (0..rows).collect::<Vec<_>>().chunks(200) {
            let vals: Vec<String> = chunk
                .iter()
                .map(|i| format!("({i}, {})", (i * 13 + seed as i64) % 50))
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", vals.join(", "))).unwrap();
        }
        // k >= 0 matches every row: a seq scan is the right plan, but
        // only statistics can prove it.
        let sql = "SELECT v FROM t WHERE k >= 0";
        let before = explain_text(&db, sql);
        prop_assert!(before.contains("IndexScan"), "syntactic planner should take the index:\n{before}");

        db.execute(sql).unwrap();
        let hits0 = db.plan_cache_stats().hits;
        db.execute(sql).unwrap();
        prop_assert_eq!(db.plan_cache_stats().hits, hits0 + 1, "repeat before ANALYZE should hit");

        db.execute("ANALYZE t").unwrap();
        let after = explain_text(&db, sql);
        prop_assert!(after.contains("TableScan"), "cost model should reject the index:\n{after}");
        prop_assert_ne!(&before, &after, "ANALYZE must change the chosen plan");

        // The cached pre-ANALYZE plan must not serve the post-ANALYZE query.
        db.execute(sql).unwrap();
        prop_assert_eq!(db.plan_cache_stats().hits, hits0 + 1, "ANALYZE must invalidate the cached plan");
        // And the refreshed plan caches normally again.
        db.execute(sql).unwrap();
        prop_assert_eq!(db.plan_cache_stats().hits, hits0 + 2);
    }
}
