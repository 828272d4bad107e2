//! Persistent scan worker pool.
//!
//! Every chunked candidate scan runs on a [`ScanPool`]: the best-swap
//! kernel (the `scan` module), Greedy B's argmax and pair scans, the local
//! search seed, the double-swap rule and the serving frontend's fan-out.
//! The pool is compiled on every build. A one-thread pool has no workers
//! and runs every scan inline as one chunk, which *is* the serial
//! traversal; the `parallel` feature only decides how large the ambient
//! [`ScanPool::global`] pool is (see there).
//!
//! * **Persistent workers.** A pool spawns its worker threads once; every
//!   scan enqueues chunk jobs onto a shared queue and blocks until its
//!   own chunks complete (scoped execution — chunk closures may borrow
//!   the caller's stack). No per-scan thread spawn/join.
//! * **Read-once configuration.** The worker count is fixed at pool
//!   construction. [`ScanPool::global`] reads `MSD_PARALLEL_THREADS`
//!   exactly once (first use, via `OnceLock`); tests and benches that
//!   need a specific chunk schedule construct their own
//!   [`ScanPool::new`] with an explicit count instead of mutating the
//!   environment.
//!
//! **Determinism.** Chunks are contiguous index ranges, each folded in
//! index order, and their results merge in index order with a strict
//! comparison, so every scan returns the same winner for any worker
//! count.
//!
//! An explicitly constructed pool is **forced**: it always chunks
//! (bypassing the work floor, clamped to the work size) — that is how the
//! equivalence suites exercise genuinely chunked execution on few-core
//! machines. The ambient global pool keeps the hardware heuristic and the
//! cost-weighted work floor.
//!
//! **Nested submission runs inline.** A scan or job submitted from inside
//! a pool task — on a worker thread, or in the chunk or job the submitter
//! runs itself — executes on the calling thread as one serial chunk.
//! Workers do not steal while blocked on a latch, so queueing nested work
//! could deadlock; running it inline cannot, and gives the same result
//! because one chunk *is* the serial traversal. A fan-out job may
//! therefore run a session whose scans share the fan-out's pool.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Minimum estimated *weighted* scalar operations in a scan before
/// chunking amortizes: candidate evaluations × the quality oracle's
/// `scan_cost_hint` (1 for the O(1) modular arithmetic, the client count
/// for facility location, and so on).
///
/// The floor is calibrated on the dynamic-update scans: a modular n=5000,
/// p=50 single-swap scan is 250k cost-1 candidate reads, which is
/// memory-bandwidth-bound and measurably *loses* to serial when chunked
/// (`BENCH_dynamic.json` recorded 0.87×), while the same candidate count
/// under coverage or facility quality carries one-to-three orders of
/// magnitude more work per read and wins. Weighting by the oracle hint
/// lets one floor serve every quality family. Scans under the floor run
/// the serial code path — outputs are bit-identical either way, so this
/// is purely a scheduling decision.
pub(crate) const MIN_PAR_OPS: usize = 1 << 21;

/// Hard cap on chunk/worker counts (beyond it the merge overhead
/// outweighs any scan for realistic `n`); also bounds a misconfigured
/// `MSD_PARALLEL_THREADS`.
const MAX_THREADS: usize = 64;

/// A type-erased chunk job. Scans enqueue jobs whose closures borrow the
/// caller's stack; the lifetime is erased to `'static` only because
/// [`ScanPool::run_tasks`] blocks until every enqueued job has run (and
/// funnels worker panics back to the caller), so the borrows outlive the
/// job by construction.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// `true` while this thread runs pool work: always on a worker, and
    /// on a submitting thread while it runs its own share of a scan or
    /// fan-out. Submissions made while it is set run inline (see the
    /// [module docs](self)).
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

struct PoolState {
    queue: VecDeque<Job>,
    shutting_down: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is enqueued (or shutdown begins).
    work_ready: Condvar,
}

/// Completion latch of one scoped scan: counts outstanding jobs and
/// carries the first worker panic back to the submitting thread.
struct ScanLatch {
    state: Mutex<(usize, Option<Box<dyn std::any::Any + Send>>)>,
    done: Condvar,
}

/// Persistent worker pool for the chunked candidate scans. See the
/// [module docs](self).
pub struct ScanPool {
    shared: Option<Arc<PoolShared>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Target chunk/worker count (≥ 1, ≤ 64).
    threads: usize,
    /// `true` for explicitly constructed pools: always chunk, bypassing
    /// the work floor (the old `MSD_PARALLEL_THREADS` semantics).
    forced: bool,
}

impl std::fmt::Debug for ScanPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanPool")
            .field("threads", &self.threads)
            .field("forced", &self.forced)
            .finish()
    }
}

impl ScanPool {
    /// A pool targeting exactly `threads` chunks per scan (clamped to
    /// `1..=64`), with `threads − 1` persistent workers — the submitting
    /// thread always runs the first chunk itself. Explicit pools are
    /// **forced**: every scan chunks (clamped to the work size),
    /// bypassing the cost-weighted work floor, exactly like the old
    /// `MSD_PARALLEL_THREADS` override. This is the API tests and benches
    /// use instead of mutating the process environment.
    pub fn new(threads: usize) -> Self {
        Self::build(threads, true)
    }

    /// The process-wide ambient pool. Without the `parallel` feature it
    /// has one thread and no workers, so every scan that uses it runs
    /// inline. With the feature it is sized by `MSD_PARALLEL_THREADS` when
    /// set (read **once**, on first use) and by the hardware parallelism
    /// otherwise. With the env override the pool is forced (always chunks
    /// — how CI exercises the chunk-merge discipline on few-core runners
    /// without any in-process `set_var`); without it, scans below the
    /// cost-weighted work floor stay inline.
    pub fn global() -> &'static ScanPool {
        static GLOBAL: OnceLock<ScanPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            if !cfg!(feature = "parallel") {
                return Self::build(1, false);
            }
            let forced = std::env::var("MSD_PARALLEL_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok());
            match forced {
                Some(t) => Self::build(t, true),
                None => {
                    let hw = std::thread::available_parallelism()
                        .map(NonZeroUsize::get)
                        .unwrap_or(1);
                    Self::build(hw.min(16), false)
                }
            }
        })
    }

    fn build(threads: usize, forced: bool) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        if threads == 1 {
            return Self {
                shared: None,
                workers: Vec::new(),
                threads,
                forced,
            };
        }
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("msd-scan-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scan worker")
            })
            .collect();
        Self {
            shared: Some(shared),
            workers,
            threads,
            forced,
        }
    }

    /// The pool's target chunk count (fixed at construction).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when scans always chunk (explicit pools and the env-sized
    /// global pool), bypassing the work floor.
    pub fn is_forced(&self) -> bool {
        self.forced
    }

    /// `true` when a scan of `ops` estimated weighted scalar operations
    /// (see [`MIN_PAR_OPS`]) should be distributed.
    fn worthwhile(&self, ops: usize) -> bool {
        self.forced || ops >= MIN_PAR_OPS
    }

    /// `true` when a scan over `n` candidates costing `ops` weighted
    /// operations would really split into chunks on this pool — the
    /// choice point for callers whose inline path is a different (lazy)
    /// algorithm with the same result.
    pub(crate) fn splits(&self, n: usize, ops: usize) -> bool {
        self.shared.is_some()
            && self.worthwhile(ops)
            && self.num_chunks(n) > 1
            && !IN_POOL_TASK.get()
    }

    /// Chunk count for a scan over `work` candidates: the configured
    /// thread count, clamped to the work size; ambient pools additionally
    /// apply the 32-candidates-per-chunk amortization heuristic. These
    /// are exactly the old `num_threads` formulas with the env read
    /// replaced by pool state.
    fn num_chunks(&self, work: usize) -> usize {
        if self.forced {
            self.threads.clamp(1, work.max(1))
        } else {
            self.threads.min(work.div_ceil(32).max(1)).max(1)
        }
    }

    /// Deterministic argmax scan over the range `0..n`, estimated at `ops`
    /// weighted operations: each chunk folds with `scan` (which must
    /// itself break ties toward earlier candidates), and chunks merge in
    /// index order with strictly-greater comparison on the score
    /// extracted by `key`, so the result is the inline `scan(0, n)`'s.
    /// Below the work floor the scan runs inline.
    pub(crate) fn scan_chunks<T, S, K>(&self, n: usize, ops: usize, scan: S, key: K) -> Option<T>
    where
        T: Send,
        S: Fn(usize, usize) -> Option<T> + Sync,
        K: Fn(&T) -> f64,
    {
        self.fold_chunks(n, ops, scan, |a, b| match (a, b) {
            (Some(a), Some(b)) if key(&b) > key(&a) => Some(b),
            (a, b) => a.or(b),
        })
    }

    /// Deterministic *fold* over the range `0..n`, estimated at `ops`
    /// weighted operations: each chunk maps with `scan`, and the
    /// per-chunk results fold left-to-right in **index order** with
    /// `merge` — the shape needed when a scan also collects side state
    /// (e.g. the session's top-K candidate tables). `merge(a, b)` always
    /// receives `a` from earlier indices than `b`. Below the work floor,
    /// on a one-thread pool, and inside a pool task the fold is the one
    /// inline chunk `scan(0, n)`.
    pub(crate) fn fold_chunks<T, S, Me>(&self, n: usize, ops: usize, scan: S, merge: Me) -> T
    where
        T: Send,
        S: Fn(usize, usize) -> T + Sync,
        Me: Fn(T, T) -> T,
    {
        if !self.splits(n, ops) {
            return scan(0, n);
        }
        self.run_chunked(n, &scan)
            .into_iter()
            .reduce(merge)
            .expect("a split scan has chunks")
    }

    /// Runs `scan` over the chunk grid for `n` candidates (the caller has
    /// checked that the scan [`splits`](Self::splits)) and returns the
    /// per-chunk results in index order. Chunk 0 runs on the calling
    /// thread; the rest are executed by the persistent workers.
    fn run_chunked<T, S>(&self, n: usize, scan: &S) -> Vec<T>
    where
        T: Send,
        S: Fn(usize, usize) -> T + Sync,
    {
        let chunks = self.num_chunks(n);
        let chunk = n.div_ceil(chunks);
        let mut results: Vec<Option<T>> = Vec::new();
        results.resize_with(chunks, || None);
        {
            let (first, rest) = results.split_first_mut().expect("chunks >= 2");
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = rest
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let t = i + 1;
                    // Clamp *both* bounds: an over-provisioned chunk count
                    // (e.g. a forced pool exceeding n/chunk) would
                    // otherwise hand trailing chunks lo > n — fatal for
                    // slice-indexed scans.
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        *slot = Some(scan((t * chunk).min(n), ((t + 1) * chunk).min(n)))
                    });
                    task
                })
                .collect();
            self.run_tasks(tasks, || *first = Some(scan(0, chunk.min(n))));
        }
        results
            .into_iter()
            .map(|r| r.expect("every chunk ran"))
            .collect()
    }

    /// Fan-out/join entry point for *whole-task* jobs (the multi-tenant
    /// serving frontend's per-tenant flush+stabilize cycles, as opposed to
    /// the chunked candidate scans above): runs every job to completion
    /// before returning, with the first job on the calling thread and the
    /// rest distributed over the persistent workers under the same scoped
    /// latch/panic discipline as [`run_tasks`](Self::run_tasks). On a
    /// single-thread pool (no workers) the jobs run inline in order.
    ///
    /// Jobs must be *independent* — each touches disjoint state. Scans
    /// they submit run inline (see the [module docs](self)).
    pub(crate) fn run_jobs<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        let mut jobs = jobs;
        if self.shared.is_none() || jobs.len() <= 1 || IN_POOL_TASK.get() {
            for job in jobs {
                job();
            }
            return;
        }
        let first = jobs.remove(0);
        self.run_tasks(jobs, first);
    }

    /// Scoped execution core: enqueues `tasks` onto the worker queue,
    /// runs `inline` (chunk 0) on the calling thread, then blocks until
    /// every task finished. A panicking task is caught on the worker,
    /// carried back, and resumed here — the pool itself survives.
    ///
    /// Safety: the job lifetimes are erased to `'static` for the queue;
    /// this is sound *only* because this function does not return until
    /// the latch counts every job done, so the borrows in `tasks` are
    /// live for as long as any worker can touch them.
    fn run_tasks<'scope>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>,
        inline: impl FnOnce(),
    ) {
        let shared = self.shared.as_ref().expect("run_tasks needs workers");
        let latch = Arc::new(ScanLatch {
            state: Mutex::new((tasks.len(), None)),
            done: Condvar::new(),
        });
        {
            let mut state = shared.state.lock().expect("pool state poisoned");
            for task in tasks {
                let latch = Arc::clone(&latch);
                let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(task));
                    let mut st = latch.state.lock().expect("latch poisoned");
                    st.0 -= 1;
                    if let Err(payload) = outcome {
                        st.1.get_or_insert(payload);
                    }
                    drop(st);
                    latch.done.notify_all();
                });
                // Lifetime erasure — see the safety note above.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
                state.queue.push_back(job);
            }
            drop(state);
            shared.work_ready.notify_all();
        }
        // Chunk 0 runs under `catch_unwind` too: unwinding out of this
        // function before the latch drains would free the scoped result
        // slots while workers can still write them. The panic is re-raised
        // only after every queued job has finished.
        IN_POOL_TASK.set(true);
        let inline_outcome = catch_unwind(AssertUnwindSafe(inline));
        IN_POOL_TASK.set(false);
        let mut st = latch.state.lock().expect("latch poisoned");
        while st.0 > 0 {
            st = latch.done.wait(st).expect("latch poisoned");
        }
        let worker_payload = st.1.take();
        drop(st);
        if let Err(payload) = inline_outcome {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_payload {
            resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    IN_POOL_TASK.set(true);
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.work_ready.wait(state).expect("pool state poisoned");
            }
        };
        // Panics were caught inside the job wrapper; a raw panic here
        // would mean a bug in the pool itself, and is allowed to abort
        // the worker (subsequent scans would hang visibly rather than
        // silently corrupt).
        job();
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared
                .state
                .lock()
                .expect("pool state poisoned")
                .shutting_down = true;
            shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-chunk argmax with the lowest-index tie-break the real scans use.
    fn chunk_argmax(lo: usize, hi: usize, score: impl Fn(usize) -> f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for i in lo..hi {
            let s = score(i);
            if best.is_none_or(|(_, b)| s > b) {
                best = Some((i, s));
            }
        }
        best
    }

    #[test]
    fn explicit_pool_matches_inline_scan() {
        let pool = ScanPool::new(4);
        let score = |i: usize| ((i * 7919) % 1009) as f64;
        for n in [0usize, 1, 3, 7, 64, 1000] {
            let serial = chunk_argmax(0, n, score);
            let par = pool.scan_chunks(n, 0, |lo, hi| chunk_argmax(lo, hi, score), |&(_, s)| s);
            assert_eq!(par, serial, "n = {n}");
        }
    }

    #[test]
    fn fold_chunks_preserves_index_order() {
        let pool = ScanPool::new(5);
        let n = 237;
        let folded: Vec<usize> = pool.fold_chunks(
            n,
            0,
            |lo, hi| (lo..hi).collect::<Vec<_>>(),
            |mut a, b| {
                // Order-sensitive merge: appending is only correct when
                // `a` really comes from earlier indices.
                a.extend(b);
                a
            },
        );
        assert_eq!(folded, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn overprovisioned_pool_clamps_chunks_to_work() {
        // 7 chunks over 3 candidates: trailing chunks must clamp to empty
        // ranges instead of scanning past the end.
        let pool = ScanPool::new(7);
        let best = pool.scan_chunks(
            3,
            0,
            |lo, hi| chunk_argmax(lo, hi, |i| i as f64),
            |&(_, s)| s,
        );
        assert_eq!(best, Some((2, 2.0)));
    }

    #[test]
    fn pool_survives_a_panicking_scan() {
        let pool = ScanPool::new(3);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            pool.scan_chunks::<(), _, _>(
                100,
                0,
                |lo, _| {
                    if lo > 0 {
                        panic!("chunk worker exploded");
                    }
                    None
                },
                |_| 0.0,
            )
        }));
        assert!(boom.is_err(), "panic must propagate to the caller");
        // The pool remains usable for later scans.
        let best = pool.scan_chunks(
            10,
            0,
            |lo, hi| chunk_argmax(lo, hi, |i| i as f64),
            |&(_, s)| s,
        );
        assert_eq!(best, Some((9, 9.0)));
    }

    #[test]
    fn pool_survives_a_panicking_inline_chunk() {
        // Chunk 0 runs on the submitting thread; its panic must not
        // unwind past the latch while workers still borrow the scoped
        // result slots (use-after-free), and must still reach the caller.
        let pool = ScanPool::new(3);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            pool.scan_chunks::<(), _, _>(
                100,
                0,
                |lo, _| {
                    if lo == 0 {
                        panic!("inline chunk exploded");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    None
                },
                |_| 0.0,
            )
        }));
        assert!(boom.is_err(), "inline panic must propagate to the caller");
        let best = pool.scan_chunks(
            10,
            0,
            |lo, hi| chunk_argmax(lo, hi, |i| i as f64),
            |&(_, s)| s,
        );
        assert_eq!(best, Some((9, 9.0)));
    }

    #[test]
    fn nested_scans_in_fan_out_jobs_run_inline() {
        // Every job scans on the pool that runs it. Queued nested chunks
        // would wait behind jobs whose workers block on them, so the
        // check runs on its own thread and fails on a timeout instead of
        // hanging.
        let (done, wait) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let pool = ScanPool::new(4);
            let score = |i: usize| ((i * 7919) % 1009) as f64;
            let sizes = [64usize, 500, 1000, 3, 0, 257, 999, 128];
            let mut results = vec![None; sizes.len()];
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = results
                .iter_mut()
                .zip(sizes)
                .map(|(slot, n)| {
                    let pool = &pool;
                    Box::new(move || {
                        *slot = pool.scan_chunks(
                            n,
                            0,
                            |lo, hi| chunk_argmax(lo, hi, score),
                            |&(_, s)| s,
                        );
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_jobs(jobs);
            let serial: Vec<_> = sizes.iter().map(|&n| chunk_argmax(0, n, score)).collect();
            done.send(results == serial).expect("receiver alive");
        });
        let matched = wait
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("nested submission deadlocked");
        handle.join().expect("fan-out thread");
        assert!(matched, "nested scans diverged from the serial scan");
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ScanPool::new(1);
        assert_eq!(pool.threads(), 1);
        let best = pool.scan_chunks(
            5,
            0,
            |lo, hi| chunk_argmax(lo, hi, |i| i as f64),
            |&(_, s)| s,
        );
        assert_eq!(best, Some((4, 4.0)));
    }

    /// Without the `parallel` feature the ambient pool has one thread and
    /// no workers, so everything that scans on it by default runs inline.
    #[cfg(not(feature = "parallel"))]
    #[test]
    fn global_pool_is_single_threaded_without_the_feature() {
        let pool = ScanPool::global();
        assert_eq!(pool.threads(), 1);
        assert!(!pool.is_forced());
        assert!(!pool.splits(1 << 20, usize::MAX));
    }
}
