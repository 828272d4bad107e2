//! Tables 4–8: simulated-LETOR comparisons (Section 7.2).
//!
//! Quality = sum of integer relevance grades; distance = cosine distance
//! between feature vectors (both exactly as the paper defines for its
//! LETOR experiments; see `msd-data::letor` and DESIGN.md §2 for the
//! corpus substitution).
//!
//! * **Table 4** — one query, top-50 documents, `p ∈ {3..7}`, with OPT.
//! * **Table 5** — the same query, top-370 documents, `p ∈ {5,…,75}`,
//!   Greedy A / Greedy B / LS with times.
//! * **Table 6** — `AF`s averaged over 5 queries, top-50 each.
//! * **Table 7** — relative `AF`s and times averaged over 5 queries, full
//!   pools.
//! * **Table 8** — the document ids selected by Greedy A / Greedy B / OPT
//!   on the top-50 pool, `p ∈ {3..7}`.

use std::time::Duration;

use msd_core::{
    exact_max_diversification, greedy_a, greedy_b, local_search_refine, GreedyAConfig,
    GreedyBConfig, LocalSearchConfig,
};
use msd_data::{LetorConfig, LetorQuery};

use crate::experiments::synthetic_tables::SyntheticRow;
use crate::fmt::Table;
use crate::stats::{as_millis, mean, timed};

/// Configuration for the LETOR-style tables.
#[derive(Debug, Clone)]
pub struct LetorTableConfig {
    /// Documents generated per query pool.
    pub docs_per_query: usize,
    /// Size of the "top-k by relevance" slice (`None` = whole pool).
    pub top_k: Option<usize>,
    /// Cardinalities to sweep.
    pub ps: Vec<usize>,
    /// Queries averaged over (Tables 6/7 use 5; Tables 4/5/8 use 1).
    pub queries: u32,
    /// Generator seed.
    pub seed: u64,
    /// Trade-off λ.
    pub lambda: f64,
    /// Compute OPT (only feasible for small `top_k` × small `p`).
    pub with_opt: bool,
    /// Run the budgeted LS.
    pub with_local_search: bool,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Latent topics per pool.
    pub topics: usize,
}

impl LetorTableConfig {
    /// Table 4: one query, top 50, with OPT.
    pub fn table4() -> Self {
        Self {
            docs_per_query: 1000,
            top_k: Some(50),
            ps: vec![3, 4, 5, 6, 7],
            queries: 1,
            seed: 4,
            lambda: 0.2,
            with_opt: true,
            with_local_search: false,
            feature_dim: 46,
            topics: 8,
        }
    }

    /// Table 5: one query, top 370, with LS and times.
    pub fn table5() -> Self {
        Self {
            docs_per_query: 1000,
            top_k: Some(370),
            ps: (1..=15).map(|i| 5 * i).collect(),
            queries: 1,
            seed: 4, // same query as Table 4, as in the paper
            lambda: 0.2,
            with_opt: false,
            with_local_search: true,
            feature_dim: 46,
            topics: 8,
        }
    }

    /// Table 6: 5 queries, top 50, AFs averaged.
    pub fn table6() -> Self {
        Self {
            queries: 5,
            seed: 6,
            ..Self::table4()
        }
    }

    /// Table 7: 5 queries, full pools, relative AFs and times averaged.
    pub fn table7() -> Self {
        Self {
            docs_per_query: 400,
            top_k: None,
            ps: (1..=15).map(|i| 5 * i).collect(),
            queries: 5,
            seed: 6,
            lambda: 0.2,
            with_opt: false,
            with_local_search: true,
            feature_dim: 46,
            topics: 8,
        }
    }

    /// Table 8 uses Table 4's pool.
    pub fn table8() -> Self {
        Self::table4()
    }

    fn query(&self, q: u32) -> LetorQuery {
        LetorConfig {
            docs_per_query: self.docs_per_query,
            feature_dim: self.feature_dim,
            topics: self.topics,
            lambda: self.lambda,
        }
        .generate(self.seed, q)
    }
}

/// Runs a LETOR table, aggregating over queries; reuses
/// [`SyntheticRow`] since the columns coincide.
fn run_letor(
    config: &LetorTableConfig,
    a_cfg: GreedyAConfig,
    b_cfg: GreedyBConfig,
) -> Vec<SyntheticRow> {
    let mut rows = Vec::with_capacity(config.ps.len());
    // Pre-build per-query problems once (shared across p).
    let problems: Vec<_> = (0..config.queries)
        .map(|q| {
            let query = config.query(q);
            let k = config.top_k.unwrap_or(query.len());
            query.top_k(k).0
        })
        .collect();
    for &p in &config.ps {
        let mut opts = Vec::new();
        let mut vals_a = Vec::new();
        let mut vals_b = Vec::new();
        let mut vals_ls = Vec::new();
        let mut times_a = Vec::new();
        let mut times_b = Vec::new();
        for problem in &problems {
            let (set_a, ta) = timed(|| greedy_a(problem, p, a_cfg));
            let (set_b, tb) = timed(|| greedy_b(problem, p, b_cfg));
            vals_a.push(problem.objective(&set_a));
            vals_b.push(problem.objective(&set_b));
            times_a.push(as_millis(ta));
            times_b.push(as_millis(tb));
            if config.with_local_search {
                // Budget 10× Greedy B's wall time. The refine reuses the
                // distance cache Greedy B left on the problem, so its time
                // holds no rebuild and the budget goes to swaps.
                let budget =
                    Duration::from_secs_f64(tb.as_secs_f64() * 10.0).max(Duration::from_micros(50));
                let ls = local_search_refine(
                    problem,
                    &set_b,
                    LocalSearchConfig {
                        time_budget: Some(budget),
                        ..LocalSearchConfig::default()
                    },
                );
                vals_ls.push(ls.objective);
            }
            if config.with_opt {
                opts.push(exact_max_diversification(problem, p).objective);
            }
        }
        rows.push(SyntheticRow {
            p,
            opt: config.with_opt.then(|| mean(&opts)),
            greedy_a: mean(&vals_a),
            greedy_b: mean(&vals_b),
            local_search: config.with_local_search.then(|| mean(&vals_ls)),
            time_a_ms: mean(&times_a),
            time_b_ms: mean(&times_b),
        });
    }
    rows
}

/// Table 4: one query, top-50, with OPT.
pub fn run_table4(config: &LetorTableConfig) -> Vec<SyntheticRow> {
    run_letor(config, GreedyAConfig::default(), GreedyBConfig::default())
}

/// Table 5: one query, top-370, LS and times.
pub fn run_table5(config: &LetorTableConfig) -> Vec<SyntheticRow> {
    run_letor(config, GreedyAConfig::default(), GreedyBConfig::default())
}

/// Table 6: AFs averaged over queries (top-50 pools).
pub fn run_table6(config: &LetorTableConfig) -> Vec<SyntheticRow> {
    run_letor(config, GreedyAConfig::default(), GreedyBConfig::default())
}

/// Table 7: relative AFs and times averaged over queries (full pools).
pub fn run_table7(config: &LetorTableConfig) -> Vec<SyntheticRow> {
    run_letor(config, GreedyAConfig::default(), GreedyBConfig::default())
}

/// One `p`-setting of Table 8: the documents each method returns.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// Cardinality.
    pub p: usize,
    /// Original document indices chosen by Greedy A.
    pub greedy_a_docs: Vec<usize>,
    /// Original document indices chosen by Greedy B.
    pub greedy_b_docs: Vec<usize>,
    /// Original document indices of the exact optimum.
    pub opt_docs: Vec<usize>,
}

impl Table8Row {
    /// How many of `docs` are not in the optimal set (the paper highlights
    /// e.g. "Greedy B differs on one document while Greedy A differs on
    /// 3").
    pub fn differs_from_opt(&self, docs: &[usize]) -> usize {
        docs.iter().filter(|d| !self.opt_docs.contains(d)).count()
    }
}

/// Table 8: the selected document ids for Greedy A / Greedy B / OPT.
pub fn run_table8(config: &LetorTableConfig) -> Vec<Table8Row> {
    let query = config.query(0);
    let k = config.top_k.unwrap_or(query.len());
    let (problem, doc_ids) = query.top_k(k);
    let to_docs =
        |set: &[u32]| -> Vec<usize> { set.iter().map(|&e| doc_ids[e as usize]).collect() };
    config
        .ps
        .iter()
        .map(|&p| {
            let a = greedy_a(&problem, p, GreedyAConfig::default());
            let b = greedy_b(&problem, p, GreedyBConfig::default());
            let opt = exact_max_diversification(&problem, p).set;
            Table8Row {
                p,
                greedy_a_docs: to_docs(&a),
                greedy_b_docs: to_docs(&b),
                opt_docs: to_docs(&opt),
            }
        })
        .collect()
}

/// Renders Table 8 in the paper's per-p block layout.
pub fn render_table8(rows: &[Table8Row]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!("p = {}\n", r.p));
        let mut t = Table::new(&["GreedyA", "GreedyB", "OPT"]);
        for i in 0..r.p {
            t.row(vec![
                r.greedy_a_docs
                    .get(i)
                    .map_or(String::new(), |d| d.to_string()),
                r.greedy_b_docs
                    .get(i)
                    .map_or(String::new(), |d| d.to_string()),
                r.opt_docs.get(i).map_or(String::new(), |d| d.to_string()),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "  (GreedyA differs from OPT on {} docs; GreedyB on {})\n\n",
            r.differs_from_opt(&r.greedy_a_docs),
            r.differs_from_opt(&r.greedy_b_docs),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(with_opt: bool, with_ls: bool, queries: u32) -> LetorTableConfig {
        LetorTableConfig {
            docs_per_query: 80,
            top_k: Some(20),
            ps: vec![3, 5],
            queries,
            seed: 9,
            lambda: 0.2,
            with_opt,
            with_local_search: with_ls,
            feature_dim: 10,
            topics: 4,
        }
    }

    #[test]
    fn table4_bounds_hold() {
        let rows = run_table4(&tiny(true, false, 1));
        for r in &rows {
            let opt = r.opt.unwrap();
            assert!(opt >= r.greedy_a - 1e-9);
            assert!(opt >= r.greedy_b - 1e-9);
            assert!(r.af_b().unwrap() <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn table5_ls_dominates_greedy_b() {
        let rows = run_table5(&tiny(false, true, 1));
        for r in &rows {
            assert!(r.local_search.unwrap() >= r.greedy_b - 1e-9);
        }
    }

    #[test]
    fn table6_averages_multiple_queries() {
        let rows = run_table6(&tiny(true, false, 3));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.af_a().unwrap() >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn table8_sets_are_consistent() {
        let rows = run_table8(&tiny(false, false, 1));
        for r in &rows {
            assert_eq!(r.greedy_a_docs.len(), r.p);
            assert_eq!(r.greedy_b_docs.len(), r.p);
            assert_eq!(r.opt_docs.len(), r.p);
            assert_eq!(r.differs_from_opt(&r.opt_docs), 0);
            assert!(r.differs_from_opt(&r.greedy_a_docs) <= r.p);
        }
        let rendered = render_table8(&rows);
        assert!(rendered.contains("p = 3"));
        assert!(rendered.contains("differs from OPT"));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_table4(&tiny(false, false, 1));
        let b = run_table4(&tiny(false, false, 1));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.greedy_a, y.greedy_a);
            assert_eq!(x.greedy_b, y.greedy_b);
        }
    }
}
