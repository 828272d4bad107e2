//! Tables 1–3: synthetic-data comparisons of Greedy A, Greedy B and LS.
//!
//! Workload (Section 7.1): `f(v) ~ U[0,1]`, `d(u,v) ~ U[1,2]`, `λ = 0.2`;
//! 5 trials averaged per parameter setting.
//!
//! * **Table 1** (`N = 50`, `p ∈ {3..7}`): observed average approximation
//!   factors `AF_ALG = OPT_avg / ALG_avg` for plain Greedy A and Greedy B.
//! * **Table 2** (`N = 500`, `p ∈ {5, 10, …, 75}`): Greedy A, Greedy B and
//!   LS (local search seeded by Greedy B, stopped at 10× Greedy B's time)
//!   with wall times.
//! * **Table 3** (`N = 50`): the *improved* variants — Greedy A choosing
//!   its best last vertex, Greedy B starting from the best pair — one
//!   trial per setting, with OPT.

use std::time::Duration;

use msd_core::{
    exact_max_diversification, greedy_a, greedy_b, local_search_refine, GreedyAConfig,
    GreedyBConfig, LocalSearchConfig,
};
use msd_data::SyntheticConfig;

use crate::fmt::{f3, ms, Table};
use crate::stats::{as_millis, mean, timed};

/// Shared configuration for the synthetic tables.
#[derive(Debug, Clone)]
pub struct SyntheticTableConfig {
    /// Ground-set size `N`.
    pub n: usize,
    /// The cardinalities to sweep.
    pub ps: Vec<usize>,
    /// Trials averaged per setting.
    pub trials: u64,
    /// Base seed; trial `t` uses `seed + t`.
    pub seed: u64,
    /// Trade-off λ.
    pub lambda: f64,
    /// Compute the exact optimum (Tables 1/3; infeasible for Table 2).
    pub with_opt: bool,
    /// Run the budgeted local search (Table 2).
    pub with_local_search: bool,
}

impl SyntheticTableConfig {
    /// Table 1's published parameters.
    pub fn table1() -> Self {
        Self {
            n: 50,
            ps: vec![3, 4, 5, 6, 7],
            trials: 5,
            seed: 1,
            lambda: 0.2,
            with_opt: true,
            with_local_search: false,
        }
    }

    /// Table 2's published parameters.
    pub fn table2() -> Self {
        Self {
            n: 500,
            ps: (1..=15).map(|i| 5 * i).collect(),
            trials: 5,
            seed: 2,
            lambda: 0.2,
            with_opt: false,
            with_local_search: true,
        }
    }

    /// Table 3's published parameters (improved variants, single trial).
    pub fn table3() -> Self {
        Self {
            n: 50,
            ps: vec![3, 4, 5, 6, 7],
            trials: 1,
            seed: 3,
            lambda: 0.2,
            with_opt: true,
            with_local_search: false,
        }
    }
}

/// One aggregated row of a synthetic table.
#[derive(Debug, Clone)]
pub struct SyntheticRow {
    /// Cardinality constraint.
    pub p: usize,
    /// Average optimum (when computed).
    pub opt: Option<f64>,
    /// Average Greedy A objective.
    pub greedy_a: f64,
    /// Average Greedy B objective.
    pub greedy_b: f64,
    /// Average LS objective (when run).
    pub local_search: Option<f64>,
    /// Average Greedy A time (ms).
    pub time_a_ms: f64,
    /// Average Greedy B time (ms).
    pub time_b_ms: f64,
}

impl SyntheticRow {
    /// `AF_GreedyA = OPT_avg / GreedyA_avg`.
    pub fn af_a(&self) -> Option<f64> {
        self.opt.map(|o| o / self.greedy_a)
    }

    /// `AF_GreedyB = OPT_avg / GreedyB_avg`.
    pub fn af_b(&self) -> Option<f64> {
        self.opt.map(|o| o / self.greedy_b)
    }

    /// Relative average approximation `AF^{GreedyB}_{GreedyA} = B_avg / A_avg`.
    pub fn rel_b_over_a(&self) -> f64 {
        self.greedy_b / self.greedy_a
    }

    /// Relative improvement of LS over Greedy B, `LS_avg / B_avg`.
    pub fn rel_ls_over_b(&self) -> Option<f64> {
        self.local_search.map(|l| l / self.greedy_b)
    }

    /// `Time(GreedyA) / Time(GreedyB)`.
    pub fn time_ratio(&self) -> f64 {
        self.time_a_ms / self.time_b_ms
    }
}

/// Runs one synthetic table with the given algorithm variants.
fn run_synthetic(
    config: &SyntheticTableConfig,
    a_cfg: GreedyAConfig,
    b_cfg: GreedyBConfig,
) -> Vec<SyntheticRow> {
    let gen = SyntheticConfig {
        n: config.n,
        lambda: config.lambda,
    };
    let mut rows = Vec::with_capacity(config.ps.len());
    for &p in &config.ps {
        let mut opts = Vec::new();
        let mut vals_a = Vec::new();
        let mut vals_b = Vec::new();
        let mut vals_ls = Vec::new();
        let mut times_a = Vec::new();
        let mut times_b = Vec::new();
        for t in 0..config.trials {
            let problem = gen.generate(config.seed.wrapping_add(t));
            let (set_a, ta) = timed(|| greedy_a(&problem, p, a_cfg));
            let (set_b, tb) = timed(|| greedy_b(&problem, p, b_cfg));
            vals_a.push(problem.objective(&set_a));
            vals_b.push(problem.objective(&set_b));
            times_a.push(as_millis(ta));
            times_b.push(as_millis(tb));
            if config.with_local_search {
                // The paper's LS: seeded by Greedy B, budget 10× Greedy B's
                // wall time. The refine reuses the distance cache Greedy B
                // left on the problem, so its time holds no rebuild and the
                // budget goes to swaps.
                let budget =
                    Duration::from_secs_f64(tb.as_secs_f64() * 10.0).max(Duration::from_micros(50));
                let ls = local_search_refine(
                    &problem,
                    &set_b,
                    LocalSearchConfig {
                        time_budget: Some(budget),
                        ..LocalSearchConfig::default()
                    },
                );
                vals_ls.push(ls.objective);
            }
            if config.with_opt {
                opts.push(exact_max_diversification(&problem, p).objective);
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

/// Table 1: plain Greedy A vs plain Greedy B vs OPT.
pub fn run_table1(config: &SyntheticTableConfig) -> Vec<SyntheticRow> {
    run_synthetic(config, GreedyAConfig::default(), GreedyBConfig::default())
}

/// Table 2: Greedy A, Greedy B and budgeted LS with times.
pub fn run_table2(config: &SyntheticTableConfig) -> Vec<SyntheticRow> {
    run_synthetic(config, GreedyAConfig::default(), GreedyBConfig::default())
}

/// Table 3: improved Greedy A (best last vertex) vs improved Greedy B
/// (best-pair start).
pub fn run_table3(config: &SyntheticTableConfig) -> Vec<SyntheticRow> {
    run_synthetic(
        config,
        GreedyAConfig {
            best_last_vertex: true,
        },
        GreedyBConfig {
            best_pair_start: true,
        },
    )
}

/// Renders rows in the layout of Tables 1/3 (with OPT columns).
pub fn render_with_opt(rows: &[SyntheticRow]) -> String {
    let mut t = Table::new(&[
        "p",
        "OPT",
        "GreedyA",
        "GreedyB",
        "AF_GreedyA",
        "AF_GreedyB",
        "AF_B/A",
    ]);
    for r in rows {
        t.row(vec![
            r.p.to_string(),
            f3(r.opt.unwrap_or(f64::NAN)),
            f3(r.greedy_a),
            f3(r.greedy_b),
            f3(r.af_a().unwrap_or(f64::NAN)),
            f3(r.af_b().unwrap_or(f64::NAN)),
            f3(r.rel_b_over_a()),
        ]);
    }
    t.render()
}

/// Renders rows in the layout of Table 2 (LS + times).
pub fn render_with_times(rows: &[SyntheticRow]) -> String {
    let mut t = Table::new(&[
        "p",
        "GreedyA",
        "GreedyB",
        "LS",
        "AF_B/A",
        "AF_LS/B",
        "Time_A(ms)",
        "Time_B(ms)",
        "Time_A/B",
    ]);
    for r in rows {
        t.row(vec![
            r.p.to_string(),
            f3(r.greedy_a),
            f3(r.greedy_b),
            f3(r.local_search.unwrap_or(f64::NAN)),
            f3(r.rel_b_over_a()),
            f3(r.rel_ls_over_b().unwrap_or(f64::NAN)),
            ms(r.time_a_ms),
            ms(r.time_b_ms),
            f3(r.time_ratio()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(with_opt: bool, with_ls: bool) -> SyntheticTableConfig {
        SyntheticTableConfig {
            n: 20,
            ps: vec![3, 5],
            trials: 2,
            seed: 7,
            lambda: 0.2,
            with_opt,
            with_local_search: with_ls,
        }
    }

    #[test]
    fn table1_shape_and_bounds() {
        let rows = run_table1(&tiny(true, false));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            let opt = r.opt.unwrap();
            // OPT dominates both algorithms; both are 2-approximations.
            assert!(opt >= r.greedy_a - 1e-9);
            assert!(opt >= r.greedy_b - 1e-9);
            assert!(r.af_a().unwrap() >= 1.0 - 1e-9);
            assert!(r.af_b().unwrap() >= 1.0 - 1e-9);
            assert!(r.af_a().unwrap() <= 2.0 + 1e-9);
            assert!(r.af_b().unwrap() <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn table2_ls_never_below_greedy_b() {
        let rows = run_table2(&tiny(false, true));
        for r in &rows {
            assert!(r.local_search.unwrap() >= r.greedy_b - 1e-9);
            assert!(r.rel_ls_over_b().unwrap() >= 1.0 - 1e-9);
            assert!(r.time_a_ms >= 0.0 && r.time_b_ms >= 0.0);
        }
    }

    #[test]
    fn table3_improved_variants_stay_within_opt() {
        let rows = run_table3(&tiny(true, false));
        for r in &rows {
            assert!(r.opt.unwrap() >= r.greedy_b - 1e-9);
            assert!(r.opt.unwrap() >= r.greedy_a - 1e-9);
        }
    }

    #[test]
    fn renderers_produce_one_line_per_row() {
        let rows = run_table1(&tiny(true, false));
        let s = render_with_opt(&rows);
        assert_eq!(s.lines().count(), rows.len() + 2);
        let rows = run_table2(&tiny(false, true));
        let s = render_with_times(&rows);
        assert_eq!(s.lines().count(), rows.len() + 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_table1(&tiny(false, false));
        let b = run_table1(&tiny(false, false));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.greedy_a, y.greedy_a);
            assert_eq!(x.greedy_b, y.greedy_b);
        }
    }
}
