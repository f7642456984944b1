//! `analytics`: the full-fledged profile in-process, one session,
//! read-only queries over an ANALYZEd star schema several times the
//! buffer pool. The vectorized engine, the cost-based planner, parallel
//! scans and buffer misses do the work; WAL, MVCC commit and the wire do
//! none. Every result is checked against values computed here from the
//! generated data.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use sbdms::config::Profile;
use sbdms_access::record::Datum;
use sbdms_data::Database;

use crate::common::{open_db, run_select_traced, seal_load, Counters, Rng, Round};
use crate::trace;

/// Rows of the `sales` fact table.
pub const SALES: usize = 30_000;
const STORES: usize = 100;
const PRODUCTS: usize = 1_000;
const REGIONS: u64 = 8;
const CATEGORIES: u64 = 20;
const DAYS: i64 = 365;
/// Rows per INSERT statement while loading.
const LOAD_BATCH: usize = 500;

/// The generated data, kept to compute expected answers.
struct Star {
    store_region: Vec<i64>,
    product_category: Vec<i64>,
    product_price: Vec<i64>,
    /// `(day, s_id, p_id, qty, amount)` per sale.
    sales: Vec<[i64; 5]>,
}

impl Star {
    fn generate(seed: u64) -> Star {
        let mut r = Rng::new(seed, 3000);
        let store_region = (0..STORES).map(|_| r.below(REGIONS) as i64).collect();
        let product_category: Vec<i64> =
            (0..PRODUCTS).map(|_| r.below(CATEGORIES) as i64).collect();
        let product_price: Vec<i64> = (0..PRODUCTS).map(|_| 100 + r.below(9_900) as i64).collect();
        let sales = (0..SALES)
            .map(|_| {
                let p = r.below(PRODUCTS as u64) as usize;
                let qty = 1 + r.below(10) as i64;
                [
                    r.below(DAYS as u64) as i64,
                    r.below(STORES as u64) as i64,
                    p as i64,
                    qty,
                    qty * product_price[p],
                ]
            })
            .collect();
        Star {
            store_region,
            product_category,
            product_price,
            sales,
        }
    }

    /// Logical bytes: every column is an 8-byte integer.
    fn logical_bytes(&self) -> u64 {
        8 * (2 * STORES + 3 * PRODUCTS + 6 * self.sales.len()) as u64
    }

    fn load(&self, db: &Database) -> Result<(), String> {
        let run = |sql: &str| {
            db.execute(sql)
                .map(|_| ())
                .map_err(|e| format!("{e}: {sql:.80}"))
        };
        run("CREATE TABLE stores (s_id INT NOT NULL, region INT NOT NULL)")?;
        run(
            "CREATE TABLE products (p_id INT NOT NULL, category INT NOT NULL, price INT NOT NULL)",
        )?;
        run(
            "CREATE TABLE sales (id INT NOT NULL, day INT NOT NULL, s_id INT NOT NULL, \
             p_id INT NOT NULL, qty INT NOT NULL, amount INT NOT NULL)",
        )?;
        let stores: Vec<String> = self
            .store_region
            .iter()
            .enumerate()
            .map(|(s, r)| format!("({s}, {r})"))
            .collect();
        run(&format!("INSERT INTO stores VALUES {}", stores.join(", ")))?;
        let products: Vec<String> = (0..PRODUCTS)
            .map(|p| {
                format!(
                    "({p}, {}, {})",
                    self.product_category[p], self.product_price[p]
                )
            })
            .collect();
        for chunk in products.chunks(LOAD_BATCH) {
            run(&format!("INSERT INTO products VALUES {}", chunk.join(", ")))?;
        }
        for (c, chunk) in self.sales.chunks(LOAD_BATCH).enumerate() {
            let rows: Vec<String> = chunk
                .iter()
                .enumerate()
                .map(|(i, [d, s, p, q, a])| {
                    format!("({}, {d}, {s}, {p}, {q}, {a})", c * LOAD_BATCH + i)
                })
                .collect();
            run(&format!("INSERT INTO sales VALUES {}", rows.join(", ")))?;
        }
        run("CREATE INDEX sales_day ON sales (day)")?;
        for t in ["stores", "products", "sales"] {
            run(&format!("ANALYZE {t}"))?;
        }
        Ok(())
    }

    fn region(&self, s: i64) -> i64 {
        self.store_region[s as usize]
    }

    fn category(&self, p: i64) -> i64 {
        self.product_category[p as usize]
    }

    /// `(key, sum)` groups, biggest sum first then key, first `limit`.
    fn top(groups: BTreeMap<i64, i64>, limit: usize) -> Vec<Vec<i64>> {
        let mut v: Vec<(i64, i64)> = groups.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().take(limit).map(|(k, s)| vec![k, s]).collect()
    }

    /// The SQL of query template `t` with its seeded parameters, and the
    /// answer it must return.
    fn query(&self, t: u64, r: &mut Rng) -> (String, Vec<Vec<i64>>) {
        match t {
            // Join + group-by: revenue per region over a quarter.
            0 => {
                let a = r.below((DAYS - 90) as u64) as i64;
                let b = a + 89;
                let mut g = BTreeMap::new();
                for &[d, s, _, _, amt] in &self.sales {
                    if (a..=b).contains(&d) {
                        *g.entry(self.region(s)).or_insert(0) += amt;
                    }
                }
                let sql = format!(
                    "SELECT st.region, SUM(s.amount) FROM sales s JOIN stores st ON s.s_id = st.s_id \
                     WHERE s.day BETWEEN {a} AND {b} GROUP BY st.region ORDER BY 1"
                );
                (sql, g.into_iter().map(|(k, s)| vec![k, s]).collect())
            }
            // Revenue by category, ORDER BY/LIMIT.
            1 => {
                let q = 1 + r.below(5) as i64;
                let mut g = BTreeMap::new();
                for &[_, _, p, qty, amt] in &self.sales {
                    if qty >= q {
                        *g.entry(self.category(p)).or_insert(0) += amt;
                    }
                }
                let sql = format!(
                    "SELECT p.category, SUM(s.amount) FROM sales s JOIN products p ON s.p_id = p.p_id \
                     WHERE s.qty >= {q} GROUP BY p.category ORDER BY 2 DESC, 1 LIMIT 5"
                );
                (sql, Star::top(g, 5))
            }
            // Indexed BETWEEN aggregate over three days.
            2 => {
                let a = r.below((DAYS - 3) as u64) as i64;
                let b = a + 2;
                let (mut n, mut sum) = (0, 0);
                for &[d, _, _, _, amt] in &self.sales {
                    if (a..=b).contains(&d) {
                        n += 1;
                        sum += amt;
                    }
                }
                let sql = format!(
                    "SELECT COUNT(*), SUM(amount) FROM sales WHERE day BETWEEN {a} AND {b}"
                );
                (sql, vec![vec![n, sum]])
            }
            // Range + group + top-10 stores by units over a month.
            3 => {
                let a = r.below((DAYS - 30) as u64) as i64;
                let b = a + 29;
                let mut g = BTreeMap::new();
                for &[d, s, _, qty, _] in &self.sales {
                    if (a..=b).contains(&d) {
                        *g.entry(s).or_insert(0) += qty;
                    }
                }
                let sql = format!(
                    "SELECT s_id, SUM(qty) FROM sales WHERE day BETWEEN {a} AND {b} \
                     GROUP BY s_id ORDER BY 2 DESC, 1 LIMIT 10"
                );
                (sql, Star::top(g, 10))
            }
            // Three-way join count.
            _ => {
                let reg = r.below(REGIONS) as i64;
                let cat = r.below(CATEGORIES) as i64;
                let n = self
                    .sales
                    .iter()
                    .filter(|&&[_, s, p, _, _]| self.region(s) == reg && self.category(p) == cat)
                    .count() as i64;
                let sql = format!(
                    "SELECT COUNT(*) FROM sales s JOIN stores st ON s.s_id = st.s_id \
                     JOIN products p ON s.p_id = p.p_id WHERE st.region = {reg} AND p.category = {cat}"
                );
                (sql, vec![vec![n]])
            }
        }
    }
}

/// Templates in rotation.
pub const TEMPLATES: u64 = 5;

fn as_int(d: &Datum) -> Option<i64> {
    match d {
        Datum::Int(i) => Some(*i),
        Datum::Float(f) if f.fract() == 0.0 => Some(*f as i64),
        _ => None,
    }
}

/// Whether a result equals the expected integer rows, in order.
pub fn result_matches(rows: &[Vec<Datum>], expected: &[Vec<i64>]) -> bool {
    rows.len() == expected.len()
        && rows.iter().zip(expected).all(|(row, exp)| {
            row.len() == exp.len() && row.iter().zip(exp).all(|(d, e)| as_int(d) == Some(*e))
        })
}

/// One round: generate and load the star schema, then run `queries`
/// queries rotating through the templates.
pub fn round(
    dir: &Path,
    seed: u64,
    round_no: u64,
    queries: u64,
    traced: bool,
) -> Result<Round, String> {
    let star = Star::generate(seed);
    let setup_start = Instant::now();
    let (db, backend) = open_db(&dir.join("db"), Profile::FullFledged, false)?;
    star.load(&db)?;
    seal_load(&db)?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut rng = Rng::new(seed, 4000 + round_no);
    let work: Vec<(String, Vec<Vec<i64>>)> = (0..queries)
        .map(|i| star.query((i + round_no) % TEMPLATES, &mut rng))
        .collect();
    let mut out = Round {
        setup_s,
        attempted: queries,
        ..Round::default()
    };
    let before = Counters::read(&db, &backend);
    trace::set_enabled(traced);
    let start = Instant::now();
    for (i, (sql, expected)) in work.iter().enumerate() {
        let t0 = Instant::now();
        let _op = trace::op(i as u64 + 1);
        let res = if traced {
            run_select_traced(&db, sql)
        } else {
            db.execute(sql).map_err(|e| e.to_string())
        };
        out.lat.add("read", t0.elapsed().as_secs_f64() * 1e6);
        match res {
            Ok(r) if result_matches(&r.rows, expected) => {}
            Ok(_) => out.wrong += 1,
            Err(_) => out.errored += 1,
        }
    }
    out.ops_s = start.elapsed().as_secs_f64();
    trace::set_enabled(false);
    out.spans = trace::drain();
    out.counts = Counters::read(&db, &backend).since(&before);
    out.record_files(&dir.join("db"));
    out.live_user_bytes = star.logical_bytes();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_check_flags_a_wrong_row() {
        let expected = vec![vec![1, 10], vec![2, 20]];
        let good = vec![
            vec![Datum::Int(1), Datum::Int(10)],
            vec![Datum::Int(2), Datum::Float(20.0)],
        ];
        assert!(result_matches(&good, &expected));
        let mut bad = good.clone();
        bad[1][1] = Datum::Int(21);
        assert!(!result_matches(&bad, &expected));
        assert!(!result_matches(&good[..1], &expected));
    }
}
