//! `serve`: multi-tenant serving over one shared dense base (Section 6).
//!
//! One [`ServingFrontend`] sits over a shared n = 2000 distance matrix
//! (16 MB, larger than a core's L2) with 8 tenants of mixed p and λ. Each
//! step, one tenant sends a burst of 0 (a pure read), 1, 8 or 32
//! perturbations through `try_submit` and then calls `query`. Bursts
//! carry weight and distance rewrites, about 5% departures and arrivals,
//! and about 2% of them hold one malformed entry, which the frontend must
//! reject whole. Every perturbation is generated from the seed before
//! set-up. Distance rewrites draw from a small fixed pool of pairs per
//! tenant that the warm-up fills, so per-request work does not grow with
//! the number of steps a run reaches.
//!
//! The answers are checked against twin sessions: one
//! [`DynamicSession::new_shared`] per tenant (the type `register_tenant`
//! builds) replays that tenant's stream in the frontend's call order, in
//! a pass of its own, and must agree bit for bit. The traced run takes its
//! session-stage times from the twins.

use std::sync::Arc;
use std::time::{Duration, Instant};

use max_sum_diversification::core::{
    greedy_b, AdmissionPolicy, DiversificationProblem, DynamicSession, GreedyBConfig, ScanExtent,
    ServingFrontend, SessionPerturbation, TenantId,
};
use max_sum_diversification::metric::{DistanceMatrix, ElementId, Metric};
use max_sum_diversification::submodular::ModularFunction;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::bound::DistanceProfile;
use crate::stats::{self, Outcome};
use crate::wrappers::TimedMetric;
use crate::{closed_loop, push_end_to_end, push_trace_summary, trace, RunConfig};

const N: usize = 2000;
const TENANTS: usize = 8;
const PS: [usize; 3] = [8, 16, 32];
const LAMBDAS: [f64; 3] = [0.1, 0.3, 1.0];
/// Burst sizes; 0 is a pure read.
const BURSTS: [usize; 4] = [0, 1, 8, 32];
/// Burst sizes of every block of ten steps, shuffled within the block:
/// 10% reads, 10% single writes, 60% of 8 and 20% of 32. The median
/// request then falls among the bursts of 8 and the 90th percentile among
/// the bursts of 32, below the few queries (about 5%) that swap, whose
/// latency is a thousand times a read's. Every tenant also steps once in
/// each block of eight steps, so runs differ in what each step does, not
/// in how many steps of each kind they hold.
const BURST_BLOCK: [usize; 10] = [0, 1, 8, 8, 8, 8, 8, 8, 32, 32];
/// Untimed warm-up steps; the tenants' answers after them are the
/// quality set. Sixteen steps per tenant write every pair of its pair pool.
const WARMUP: usize = 128;
/// Distance rewrites per tenant draw from this many fixed pairs, half of
/// them touching the tenant's initial answer. The warm-up writes each pair
/// in turn and the timed phase rewrites only written pairs, so the overlay
/// (and with it every checkpoint) stops growing before timing starts.
const PAIRS: usize = 32;
/// Share of entries that are departures or arrivals.
const AVAILABILITY_SHARE: f64 = 0.05;
const MAX_DEPARTED: usize = 64;
const POISON_SHARE: f64 = 0.02;
const CHECKPOINT_EVERY: usize = 4;
/// Swap cap per query: the frontend's default.
const MAX_UPDATES: usize = 256;
const SETUP_REPS: usize = 41;
/// Timed steps in the script. A run that reaches the end starts over on a
/// fresh frontend (after an untimed warm-up) and replays them, so memory
/// stays fixed however many steps a run completes.
const CYCLE: usize = 20_000;

fn tenant_config(t: usize) -> (usize, f64) {
    (PS[t % PS.len()], LAMBDAS[(t / PS.len()) % LAMBDAS.len()])
}

fn policy() -> AdmissionPolicy {
    AdmissionPolicy {
        // The script never poisons two flushes of one tenant in a row, so
        // quarantine never triggers; it turns the checkpoints on.
        quarantine_after: Some(2),
        checkpoint_every: CHECKPOINT_EVERY,
        ..AdmissionPolicy::default()
    }
}

/// One step of the op script, fixed by the seed.
struct Step {
    tenant: usize,
    burst: Vec<SessionPerturbation>,
    /// The burst holds one malformed entry and must be rejected whole.
    poisoned: bool,
}

/// Latency class of a step: the index of its burst size.
fn class(step: &Step) -> usize {
    BURSTS
        .iter()
        .position(|&b| b == step.burst.len())
        .unwrap_or(0)
}

struct Inputs {
    base: Arc<DistanceMatrix>,
    weights: Vec<Vec<f64>>,
    qualities: Vec<ModularFunction>,
    script: Vec<Step>,
}

/// Which elements a tenant currently has available.
#[derive(Clone)]
struct Availability {
    active: Vec<bool>,
    departed: Vec<ElementId>,
}

impl Availability {
    fn new() -> Self {
        Self {
            active: vec![true; N],
            departed: Vec::new(),
        }
    }

    fn apply(&mut self, p: &SessionPerturbation) {
        match *p {
            SessionPerturbation::Arrive { u } => {
                self.active[u as usize] = true;
                self.departed.retain(|&x| x != u);
            }
            SessionPerturbation::Depart { u } => {
                self.active[u as usize] = false;
                self.departed.push(u);
            }
            _ => {}
        }
    }
}

/// What the script generator tracks for one tenant.
struct TenantScript {
    /// The tenant's initial `greedy_b` answer.
    initial: Vec<ElementId>,
    /// The pair pool; the first `written` pairs have been rewritten.
    pairs: Vec<(ElementId, ElementId)>,
    written: usize,
    avail: Availability,
}

impl TenantScript {
    fn new(rng: &mut StdRng, initial: Vec<ElementId>) -> Self {
        let pairs = (0..PAIRS)
            .map(|k| {
                let u = if k % 2 == 0 {
                    initial[rng.gen_range(0..initial.len())]
                } else {
                    rng.gen_range(0..N) as ElementId
                };
                let mut v = rng.gen_range(0..N - 1) as ElementId;
                if v >= u {
                    v += 1;
                }
                (u, v)
            })
            .collect();
        Self {
            initial,
            pairs,
            written: 0,
            avail: Availability::new(),
        }
    }

    /// A burst of `size` entries. A poisoned burst holds one malformed
    /// entry; it will be rejected whole, so it changes nothing here.
    fn burst(&mut self, rng: &mut StdRng, size: usize, poisoned: bool) -> Vec<SessionPerturbation> {
        let mut avail = self.avail.clone();
        let mut written = self.written;
        let mut burst: Vec<SessionPerturbation> = (0..size)
            .map(|_| self.entry(rng, &mut avail, &mut written))
            .collect();
        if poisoned {
            let at = rng.gen_range(0..size);
            burst[at] = malformed(rng);
        } else {
            self.avail = avail;
            self.written = written;
        }
        burst
    }

    fn entry(
        &self,
        rng: &mut StdRng,
        avail: &mut Availability,
        written: &mut usize,
    ) -> SessionPerturbation {
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll < AVAILABILITY_SHARE {
            let p = self.availability_change(rng, avail);
            avail.apply(&p);
            p
        } else if roll < (1.0 + AVAILABILITY_SHARE) / 2.0 {
            SessionPerturbation::SetWeight {
                u: rng.gen_range(0..N) as ElementId,
                value: rng.gen_range(0.0..1.0),
            }
        } else {
            let (u, v) = if *written < self.pairs.len() {
                *written += 1;
                self.pairs[*written - 1]
            } else {
                self.pairs[rng.gen_range(0..self.pairs.len())]
            };
            // Distances in [1, 2) always satisfy the triangle inequality.
            SessionPerturbation::SetDistance {
                u,
                v,
                value: rng.gen_range(1.0..2.0),
            }
        }
    }

    /// A departure or an arrival. Departures aim at the initial answer, so
    /// the session refills, and at a random element once all of it left.
    fn availability_change(&self, rng: &mut StdRng, avail: &Availability) -> SessionPerturbation {
        let depart =
            avail.departed.is_empty() || (avail.departed.len() < MAX_DEPARTED && rng.gen_bool(0.5));
        if !depart {
            let u = avail.departed[rng.gen_range(0..avail.departed.len())];
            return SessionPerturbation::Arrive { u };
        }
        let start = rng.gen_range(0..self.initial.len());
        let member = (0..self.initial.len())
            .map(|j| self.initial[(start + j) % self.initial.len()])
            .find(|&u| avail.active[u as usize]);
        let u = member.unwrap_or_else(|| loop {
            let u = rng.gen_range(0..N) as ElementId;
            if avail.active[u as usize] {
                break u;
            }
        });
        SessionPerturbation::Depart { u }
    }
}

/// `len` values: copies of `block`, each shuffled.
fn shuffled_blocks<T: Copy>(rng: &mut StdRng, block: &[T], len: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(len + block.len());
    while out.len() < len {
        let mut b = block.to_vec();
        b.shuffle(rng);
        out.extend(b);
    }
    out.truncate(len);
    out
}

/// A perturbation strict validation rejects.
fn malformed(rng: &mut StdRng) -> SessionPerturbation {
    let u = rng.gen_range(0..N) as ElementId;
    match rng.gen_range(0..4) {
        0 => SessionPerturbation::SetWeight { u, value: f64::NAN },
        1 => SessionPerturbation::SetDistance {
            u,
            v: u,
            value: 1.5,
        },
        2 => SessionPerturbation::SetWeight {
            u: N as ElementId + u,
            value: 0.5,
        },
        _ => SessionPerturbation::SetDistance {
            u,
            v: (u + 1) % N as ElementId,
            value: -1.0,
        },
    }
}

/// Generates every input from the seed: the base, the tenants' weights,
/// and the op script with each burst's concrete perturbations.
fn generate(seed: u64, steps: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e12_7e00);
    let base = Arc::new(DistanceMatrix::from_fn(N, |_, _| rng.gen_range(1.0..2.0)));
    let weights: Vec<Vec<f64>> = (0..TENANTS)
        .map(|_| (0..N).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let qualities: Vec<ModularFunction> = weights
        .iter()
        .map(|w| ModularFunction::new(w.clone()))
        .collect();
    let mut tenants: Vec<TenantScript> = qualities
        .iter()
        .enumerate()
        .map(|(t, quality)| {
            let (p, lambda) = tenant_config(t);
            let problem = DiversificationProblem::new(Arc::clone(&base), quality, lambda);
            let initial = greedy_b(&problem, p, GreedyBConfig::default());
            TenantScript::new(&mut rng, initial)
        })
        .collect();
    let mut last_poisoned = [false; TENANTS];
    let order = shuffled_blocks(&mut rng, &(0..TENANTS).collect::<Vec<_>>(), steps);
    let sizes = shuffled_blocks(&mut rng, &BURST_BLOCK, steps);
    let mut script = Vec::with_capacity(steps);
    for (i, (tenant, size)) in order.into_iter().zip(sizes).enumerate() {
        if i == WARMUP {
            // From here on, rewrite only the pairs the warm-up wrote.
            for t in &mut tenants {
                t.pairs.truncate(t.written.max(1));
            }
        }
        let poisoned = size > 0 && !last_poisoned[tenant] && rng.gen_bool(POISON_SHARE);
        if size > 0 {
            last_poisoned[tenant] = poisoned;
        }
        let burst = tenants[tenant].burst(&mut rng, size, poisoned);
        script.push(Step {
            tenant,
            burst,
            poisoned,
        });
    }
    Inputs {
        base,
        weights,
        qualities,
        script,
    }
}

/// Each tenant's weights and availability after the first `steps` steps.
fn replay(inputs: &Inputs, steps: usize) -> (Vec<Vec<f64>>, Vec<Availability>) {
    let mut weights = inputs.weights.clone();
    let mut avail = vec![Availability::new(); TENANTS];
    for step in inputs.script[..steps].iter().filter(|s| !s.poisoned) {
        for p in &step.burst {
            avail[step.tenant].apply(p);
            if let SessionPerturbation::SetWeight { u, value } = *p {
                weights[step.tenant][u as usize] = value;
            }
        }
    }
    (weights, avail)
}

/// What the frontend answered at one step, in a fixed size so that memory
/// does not grow with the steps a run reaches.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Answer {
    /// FNV-1a hash of the solution and the objective's bits.
    fingerprint: u64,
    rejected: bool,
}

impl Answer {
    fn new(solution: &[ElementId], objective: f64, rejected: bool) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = solution.iter().map(|&u| u64::from(u));
        for word in words.chain([objective.to_bits()]) {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        Self {
            fingerprint: h,
            rejected,
        }
    }
}

type Frontend<'q> = ServingFrontend<'q, DistanceMatrix>;

/// Set-up: the frontend, its tenants, and each tenant's initial
/// `greedy_b` solution.
fn build_frontend<'q>(
    base: &Arc<DistanceMatrix>,
    inputs: &'q Inputs,
) -> (Frontend<'q>, Vec<TenantId>, Vec<Vec<ElementId>>) {
    let mut frontend = ServingFrontend::new(Arc::clone(base)).with_admission_policy(policy());
    let mut ids = Vec::with_capacity(TENANTS);
    let mut initial = Vec::with_capacity(TENANTS);
    for (t, quality) in inputs.qualities.iter().enumerate() {
        let (p, lambda) = tenant_config(t);
        let problem = DiversificationProblem::new(Arc::clone(base), quality, lambda);
        let start = greedy_b(&problem, p, GreedyBConfig::default());
        ids.push(frontend.register_tenant(quality, lambda, &start));
        initial.push(start);
    }
    (frontend, ids, initial)
}

/// Runs step `i` of the script through the frontend and returns the time
/// of its submits and query. Checks admission and rejection against the
/// script; a step answered before (by an earlier pass over the script)
/// must be answered the same.
fn run_step(
    frontend: &mut Frontend<'_>,
    ids: &[TenantId],
    script: &[Step],
    i: usize,
    answers: &mut Vec<Answer>,
    out: &mut Outcome,
) -> Duration {
    let step = &script[i];
    let id = ids[step.tenant];
    let start = Instant::now();
    let mut admitted = true;
    for &p in &step.burst {
        admitted &= trace::span("serving.submit", || frontend.try_submit(id, p)).is_ok();
    }
    let response = trace::span("serving.query", || frontend.query(id));
    let latency = start.elapsed();
    let rejected = response.rejected.is_some();
    if !admitted || rejected != step.poisoned {
        out.failed += 1;
    }
    let answer = Answer::new(&response.solution, response.objective, rejected);
    match answers.get(i) {
        Some(&first) => out.check(answer == first, || {
            format!("serve step {i}: a replay answered differently")
        }),
        None => answers.push(answer),
    }
    latency
}

/// The untimed warm-up steps.
fn warm_up(
    frontend: &mut Frontend<'_>,
    ids: &[TenantId],
    script: &[Step],
    answers: &mut Vec<Answer>,
    out: &mut Outcome,
) {
    for i in 0..WARMUP {
        run_step(frontend, ids, script, i, answers, out);
    }
}

/// Closed loop over the timed steps, cycling through them; see
/// [`closed_loop`] for `seconds`, `min` and `max`. Returns the latencies.
#[allow(clippy::too_many_arguments)]
fn timed_pass<'q>(
    frontend: &mut Frontend<'q>,
    ids: &[TenantId],
    inputs: &'q Inputs,
    seconds: f64,
    min: usize,
    max: usize,
    answers: &mut Vec<Answer>,
    out: &mut Outcome,
) -> Vec<f64> {
    let script = &inputs.script;
    closed_loop(seconds, min, max, |k| {
        if k > 0 && k % CYCLE == 0 {
            trace::untraced(|| {
                *frontend = build_frontend(&inputs.base, inputs).0;
                warm_up(frontend, ids, script, answers, out);
            });
        }
        trace::set_request((WARMUP + k) as u32);
        run_step(frontend, ids, script, WARMUP + k % CYCLE, answers, out)
    })
}

/// Sum of the tenants' overlay sizes.
fn overlay_pairs(frontend: &Frontend<'_>, ids: &[TenantId]) -> usize {
    ids.iter()
        .map(|&id| frontend.session(id).metric().override_count())
        .sum()
}

/// Counts from the twins' reports over the timed steps.
#[derive(Default)]
struct TwinCounts {
    scans: [usize; 4],
    swaps: usize,
    refills: usize,
}

/// Replays the script through one twin session per tenant, in the
/// frontend's call order, checking every answer bit for bit and the
/// solution against the tenant's availability. Tracing, when asked,
/// starts at step `trace_from`.
fn twin_pass<M: Metric>(
    base: &Arc<M>,
    inputs: &Inputs,
    initial: &[Vec<ElementId>],
    answers: &[Answer],
    trace_from: Option<usize>,
    out: &mut Outcome,
) -> TwinCounts {
    let mut twins: Vec<_> = (0..TENANTS)
        .map(|t| {
            DynamicSession::new_shared(base, &inputs.qualities[t], tenant_config(t).1, &initial[t])
        })
        .collect();
    // The frontend anchors every tenant at registration and re-anchors
    // every CHECKPOINT_EVERY applied flushes.
    let mut anchors: Vec<_> = twins.iter().map(DynamicSession::checkpoint).collect();
    let mut since_anchor = [0usize; TENANTS];
    let mut avail = vec![Availability::new(); TENANTS];
    let mut counts = TwinCounts::default();
    let timed_from = trace_from.unwrap_or(WARMUP);
    for (i, (step, answer)) in inputs.script.iter().zip(answers).enumerate() {
        let burst = &step.burst;
        if trace_from == Some(i) {
            trace::start();
        }
        trace::set_request(i as u32);
        let t = step.tenant;
        let twin = &mut twins[t];
        let mut swaps = 0;
        let mut applied = false;
        let mut rejected = false;
        if !burst.is_empty() {
            let ingested = trace::span("session.ingest", || twin.ingest(&burst[..]));
            rejected = ingested.is_err();
            if let Ok(report) = ingested {
                applied = true;
                swaps += usize::from(report.outcome.swap.is_some());
                if i >= timed_from {
                    let scan = match report.scan {
                        ScanExtent::Skipped => 0,
                        ScanExtent::Column => 1,
                        ScanExtent::Cached => 2,
                        ScanExtent::Full => 3,
                    };
                    counts.scans[scan] += 1;
                    counts.refills += report.refills.len();
                }
            }
        }
        swaps += trace::span("session.stabilize", || {
            twin.update_until_stable(MAX_UPDATES - swaps)
        });
        if applied {
            since_anchor[t] += 1;
            if since_anchor[t] >= CHECKPOINT_EVERY {
                anchors[t] = trace::span("session.checkpoint", || twin.checkpoint());
                since_anchor[t] = 0;
            }
            for p in burst {
                avail[t].apply(p);
            }
        }
        if i >= timed_from {
            counts.swaps += swaps;
        }
        out.check(
            Answer::new(twin.solution(), twin.objective(), rejected) == *answer,
            || format!("serve step {i}: frontend answer differs from the twin session"),
        );
        let p = tenant_config(t).0;
        out.check(
            crate::is_distinct_of_size(twin.solution(), p)
                && twin.solution().iter().all(|&u| avail[t].active[u as usize]),
            || {
                format!(
                    "serve step {i}: {:?} is not {p} distinct available elements",
                    twin.solution()
                )
            },
        );
    }
    counts
}

/// Mean φ/UB over the tenants' current answers, the bound taken over
/// their current weights, distances and available elements.
fn quality_ratio(frontend: &Frontend<'_>, ids: &[TenantId], inputs: &Inputs, steps: usize) -> f64 {
    let (weights, avail) = replay(inputs, steps);
    let ratios: Vec<f64> = (0..TENANTS)
        .map(|t| {
            let (p, lambda) = tenant_config(t);
            let session = frontend.session(ids[t]);
            let active = &avail[t].active;
            let candidates: Vec<ElementId> = (0..N as ElementId)
                .filter(|&u| active[u as usize])
                .collect();
            let ub = DistanceProfile::new(session.metric(), &candidates, p - 1).upper_bound(
                |u| weights[t][u as usize],
                lambda,
                p,
            );
            session.objective() / ub
        })
        .collect();
    stats::mean(&ratios)
}

pub fn run(cfg: RunConfig) -> Outcome {
    let inputs = generate(cfg.seed, WARMUP + CYCLE);
    let base = &inputs.base;
    let script = &inputs.script;
    let mut out = Outcome::default();

    let ((mut frontend, ids, initial), setup_s) =
        crate::timed_setups(SETUP_REPS, || build_frontend(base, &inputs));

    let mut answers = Vec::with_capacity(script.len());
    warm_up(&mut frontend, &ids, script, &mut answers, &mut out);
    let quality = quality_ratio(&frontend, &ids, &inputs, WARMUP);

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let untraced = timed_pass(
        &mut frontend,
        &ids,
        &inputs,
        seconds,
        1,
        usize::MAX,
        &mut answers,
        &mut out,
    );
    drop(frontend);
    let timed = untraced.len();
    out.attempted = timed as u64;
    // Steps of the first pass over the script; later passes answered the
    // same.
    let distinct = &script[WARMUP..answers.len()];
    let rejected = answers[WARMUP..].iter().filter(|a| a.rejected).count();
    let poisoned = distinct.iter().filter(|s| s.poisoned).count();
    out.check(rejected == poisoned, || {
        format!("serve: {rejected} rejected flushes but {poisoned} poisoned bursts")
    });

    if !cfg.trace {
        twin_pass(base, &inputs, &initial, &answers, None, &mut out);
        push_end_to_end(&mut out, &untraced, &setup_s, quality);
        return out;
    }

    // Latency per class, from the untraced pass.
    let class_names = [
        ("serving.read_p50_ms", "serving.read_p90_ms"),
        ("serving.write1_p50_ms", "serving.write1_p90_ms"),
        ("serving.write8_p50_ms", "serving.write8_p90_ms"),
        ("serving.write32_p50_ms", "serving.write32_p90_ms"),
    ];
    for (c, (p50, p90)) in class_names.into_iter().enumerate() {
        let samples: Vec<f64> = untraced
            .iter()
            .enumerate()
            .filter(|&(k, _)| class(&script[WARMUP + k % CYCLE]) == c)
            .map(|(_, &ms)| ms)
            .collect();
        if !samples.is_empty() {
            out.push_sampled(p50, stats::median(&samples), "ms", samples.len());
            out.push_sampled(p90, stats::percentile(&samples, 0.9), "ms", samples.len());
        }
    }

    // Traced pass: a fresh frontend replays the warm-up, then the same
    // timed steps with spans around every submit and query.
    let (mut traced_frontend, traced_ids, _) = build_frontend(base, &inputs);
    warm_up(
        &mut traced_frontend,
        &traced_ids,
        script,
        &mut answers,
        &mut out,
    );
    let pairs_start = overlay_pairs(&traced_frontend, &traced_ids);
    trace::start();
    let traced = timed_pass(
        &mut traced_frontend,
        &traced_ids,
        &inputs,
        0.0,
        timed,
        timed,
        &mut answers,
        &mut out,
    );
    let frontend_spans = trace::stop();
    let pairs_end = overlay_pairs(&traced_frontend, &traced_ids);
    drop(traced_frontend);

    // Twin pass over a base wrapped to time the row kernel.
    let timed_base = Arc::new(TimedMetric(Arc::clone(base)));
    let counts = twin_pass(
        &timed_base,
        &inputs,
        &initial,
        &answers,
        Some(WARMUP),
        &mut out,
    );
    let twin_spans = trace::stop();

    // The twins replay the first pass over the script only.
    let twin_steps = distinct.len();
    let per_request = |ns: u64| ns as f64 / 1e6 / twin_steps as f64;
    let front = frontend_spans.layers();
    let twin = twin_spans.layers();
    let submit = front.get("serving.submit").copied().unwrap_or_default();
    let self_ms = |name: &str| twin.get(name).map_or(0.0, |l| per_request(l.self_ns));
    let (ingest, stabilize, checkpoint, kernel) = (
        self_ms("session.ingest"),
        self_ms("session.stabilize"),
        self_ms("session.checkpoint"),
        self_ms("metric.row_kernel"),
    );
    let submit_us = if submit.calls == 0 {
        0.0
    } else {
        submit.total_ns as f64 / 1e3 / submit.calls as f64
    };
    out.push("serving.submit_us", submit_us, "us");
    out.push("serving.rejected_flushes", rejected as f64, "count");
    out.push("session.ingest_ms", ingest, "ms");
    out.push("session.stabilize_ms", stabilize, "ms");
    out.push("session.checkpoint_ms", checkpoint, "ms");
    let scans: usize = counts.scans.iter().sum();
    let share = |k: usize| {
        if scans == 0 {
            0.0
        } else {
            counts.scans[k] as f64 / scans as f64
        }
    };
    out.push("session.scan_skipped_ratio", share(0), "ratio");
    out.push("session.scan_column_ratio", share(1), "ratio");
    out.push("session.scan_cached_ratio", share(2), "ratio");
    out.push("session.scan_full_ratio", share(3), "ratio");
    out.push(
        "session.swaps_per_query",
        counts.swaps as f64 / twin_steps as f64,
        "count",
    );
    out.push(
        "session.refills_per_query",
        counts.refills as f64 / twin_steps as f64,
        "count",
    );
    let kernel_calls = twin.get("metric.row_kernel").map_or(0, |l| l.calls);
    out.push(
        "metric.row_kernel_calls",
        kernel_calls as f64 / twin_steps as f64,
        "count",
    );
    out.push("metric.row_kernel_ms", kernel, "ms");
    out.push("metric.overlay_pairs_start", pairs_start as f64, "count");
    out.push("metric.overlay_pairs", pairs_end as f64, "count");
    let layer_self =
        submit.self_ns as f64 / 1e6 / timed as f64 + ingest + stabilize + checkpoint + kernel;
    push_trace_summary(
        &mut out,
        &traced,
        &untraced,
        layer_self,
        frontend_spans.spans.len() + twin_spans.spans.len(),
    );
    crate::write_trace(&frontend_spans, "serve", cfg.seed);
    crate::write_trace(&twin_spans, "serve-twins", cfg.seed);
    out
}
