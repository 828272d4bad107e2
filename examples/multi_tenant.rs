//! Serving many users over one corpus — without cloning it per user.
//!
//! The paper frames max-sum diversification as a query-time problem:
//! many users query the *same* corpus with their own trade-off `λ` and
//! their own stream of distance/weight rewrites (personalization,
//! feedback, staleness corrections). A [`DynamicSession`] per user used
//! to mean a full metric clone per user — `k·O(n²)` resident memory.
//!
//! [`ServingFrontend`] shares the corpus instead: every tenant session
//! reads one immutable `Arc<DistanceMatrix>` through a private
//! copy-on-write overlay, so a tenant's rewrites land in its own sparse
//! side table — never the shared base, never another tenant — and the
//! fleet costs `O(n²) + k·O(Δ)` where `Δ` is the handful of pairs a
//! tenant actually rewrote. Perturbations submitted between a tenant's
//! queries coalesce into a single batch repair at the next query.
//!
//! The run drives three tenants with conflicting rewrites of the same
//! document pair and prints each tenant's maintained selection, the
//! per-tenant overlay sizes, and proof the shared base never moved.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use std::sync::Arc;

use max_sum_diversification::prelude::*;

/// Deterministic pseudo-random stream (keeps the example dependency-free
/// and its output reproducible).
struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

const N: usize = 400;
const P: usize = 8;

fn main() {
    // One shared corpus: 400 documents, distances in [1, 2).
    let mut rng = XorShift(0xD1CE);
    let base = Arc::new(DistanceMatrix::from_fn(N, |_, _| 1.0 + rng.next_f64()));
    let quality = ModularFunction::new((0..N).map(|_| rng.next_f64()).collect::<Vec<_>>());

    // Every tenant starts from Greedy B's solution for its own λ.
    let mut frontend = ServingFrontend::new(Arc::clone(&base));
    let mut tenants = Vec::new();
    for &lambda in &[0.1, 0.3, 1.0] {
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, lambda);
        let init = greedy_b(&problem, P, GreedyBConfig::default());
        tenants.push((frontend.register_tenant(&quality, lambda, &init), lambda));
    }

    let probe = (3u32, 7u32);
    let original = base.distance(probe.0, probe.1);
    println!(
        "shared base: n = {N}, d({}, {}) = {original:.4}\n",
        probe.0, probe.1
    );

    // Conflicting rewrites of the same pair: each tenant sees its own
    // value; the base and the other tenants never do.
    for (i, &(tenant, _)) in tenants.iter().enumerate() {
        frontend
            .try_submit(
                tenant,
                SessionPerturbation::SetDistance {
                    u: probe.0,
                    v: probe.1,
                    value: 0.5 + i as f64,
                },
            )
            .expect("submission admitted");
        // Plus a private weight update per tenant.
        frontend
            .try_submit(
                tenant,
                SessionPerturbation::SetWeight {
                    u: (40 * (i + 1)) as ElementId,
                    value: 3.0,
                },
            )
            .expect("submission admitted");
    }

    for &(tenant, lambda) in &tenants {
        let response = frontend.query(tenant);
        let stats = frontend.stats(tenant);
        println!(
            "tenant {tenant} (λ = {lambda}): flushed {} perturbations in one batch, \
             {} swap(s), φ(S) = {:.3}",
            response.flushed, response.swaps, response.objective
        );
        println!("  selection: {:?}", response.solution);
        println!(
            "  overlay: {} rewritten pair(s); sees d({}, {}) = {:.4}",
            frontend.session(tenant).metric().override_count(),
            probe.0,
            probe.1,
            frontend.session(tenant).metric().distance(probe.0, probe.1),
        );
        println!(
            "  stats: {} queries, {} perturbations, {} batches",
            stats.queries, stats.perturbations, stats.batches
        );
    }

    assert_eq!(base.distance(probe.0, probe.1), original);
    println!(
        "\nshared base unchanged: d({}, {}) = {:.4}",
        probe.0,
        probe.1,
        base.distance(probe.0, probe.1)
    );
    let triangle = N * (N - 1) / 2 * 8;
    println!(
        "resident metric memory: shared ≈ {} KiB + overlays; \
         per-tenant clones would be ≈ {} KiB",
        triangle / 1024,
        3 * triangle / 1024
    );
}
