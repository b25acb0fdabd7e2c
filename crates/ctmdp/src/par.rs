//! The value-iteration step loop, and batched timed reachability.
//!
//! Every engine — single queries, [`ReachBatch`] runs, [`ReachEngine`]
//! queries, guarded runs and resumes — runs Algorithm 1's backward loop
//! through one step loop and one step executor in this module. The
//! module scales the loop along two axes:
//!
//! * **across states** — each value-iteration step splits the output
//!   plane into contiguous ranges, one per worker. The calling thread
//!   sweeps the first range and scoped `std::thread` workers sweep the
//!   rest, each writing its own `split_at_mut` chunk in place; one worker
//!   runs inline and spawns nothing;
//! * **across queries** — a [`ReachBatch`] answers many `(time bound,
//!   objective)` queries in one pass, building the CSR traversal
//!   structures once and caching Fox–Glynn weight vectors keyed by
//!   `(rate, t, epsilon)`.
//!
//! What differs between the engines — budgets, health checks,
//! checkpoints, fault injection, worker-panic policy — is a set of hooks
//! the loop calls between steps; the guarded engine
//! ([`crate::guard`]) supplies them, the plain engines pass none.
//!
//! # Determinism contract
//!
//! Results are **bitwise identical** for every thread count:
//!
//! * each state's update runs the one shared sweep kernel, reading the
//!   previous iterate as an immutable plane and writing a disjoint output
//!   slot — no cross-state arithmetic exists that could reassociate;
//! * the per-query value checksum reported in [`QueryStats`] is a chunked
//!   Neumaier reduction over **fixed-size** blocks
//!   ([`unicon_numeric::chunked_stable_sum`]), so its grouping never
//!   depends on the worker count.
//!
//! The differential test suites (`tests/par_differential.rs`,
//! `tests/kernel_differential.rs`) pin this contract for 1, 2 and 8
//! threads on randomly generated uniform CTMDPs.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use unicon_numeric::{chunked_stable_sum, CachedWeights, FoxGlynn, WeightCache};
use unicon_sparse::assign_blocks;

use crate::model::Ctmdp;
use crate::reachability::{
    emit_iteration, emit_kernel_timing, finalize_values, indicator_result, validate_epsilon,
    validate_time, Kernel, Objective, Precompute, ReachError, ReachOptions, ReachResult, Sweep,
    SweepBuffers,
};

/// Fixed block size of the deterministic checksum reduction — a property
/// of the *algorithm*, never derived from the thread count.
pub const CHECKSUM_BLOCK: usize = 1024;

/// While metrics are live, the fused kernel times its class runs on the
/// first sweep of a query and on every `KERNEL_TIMING_EVERY`-th step
/// after it. The per-class speeds are ratios of time over groups from the
/// same sampled sweeps, so they need no rescaling.
const KERNEL_TIMING_EVERY: usize = 64;

/// Resolves a `threads` request: `0` means "one worker per available
/// hardware thread", and explicit requests are clamped to the hardware —
/// oversubscribing workers onto fewer cores only adds scheduling noise
/// (results are thread-count invariant either way, so the clamp is
/// observable only in [`BatchStats::threads_effective`] and wall time).
pub fn resolve_threads(threads: usize) -> usize {
    let avail = std::thread::available_parallelism().map_or(1, usize::from);
    if threads == 0 {
        avail
    } else {
        threads.min(avail)
    }
}

/// Runs one plain query with one worker per resolved thread, emitting
/// the per-query kernel-speed metrics. `qi` is the query's index within
/// its batch, used only to tag telemetry; `bufs` carries the value planes
/// across the queries of a batch so repeated same-model queries run
/// allocation-free.
pub(crate) fn run_query(
    sweep: &Sweep<'_>,
    fg: &FoxGlynn,
    k: usize,
    threads: usize,
    qi: usize,
    start: Instant,
    bufs: &mut SweepBuffers,
) -> ReachResult {
    // Per-query kernel-speed attribution: snapshot the shared class-time
    // ledger around the iteration and emit the delta as picosecond-per-
    // state observations. Read-only with respect to the iteration — the
    // values are bitwise identical whether or not metrics are live.
    let metrics_live = unicon_obs::live(unicon_obs::Class::Metric);
    let before = if metrics_live {
        Some(sweep.pre.timing.snapshot())
    } else {
        None
    };
    let result = iterate(sweep, fg, k, resolve_threads(threads), qi, start, bufs);
    if let Some(before) = &before {
        emit_kernel_timing(sweep.pre, before);
        unicon_obs::observe(
            "reach_query_ns",
            u64::try_from(result.runtime.as_nanos()).unwrap_or(u64::MAX),
        );
    }
    result
}

/// One plain query: all `k` steps with no hooks between them.
pub(crate) fn iterate(
    sweep: &Sweep<'_>,
    fg: &FoxGlynn,
    k: usize,
    workers: usize,
    qi: usize,
    start: Instant,
    bufs: &mut SweepBuffers,
) -> ReachResult {
    bufs.reset(sweep.goal.len());
    let decisions = match step_loop(sweep, workers, fg, k, k, qi, bufs, &mut Plain) {
        Ok(decisions) => decisions,
        Err(never) => match never {},
    };
    ReachResult {
        values: finalize_values(sweep.goal, &bufs.q_next),
        iterations: k,
        uniform_rate: sweep.pre.rate,
        runtime: start.elapsed(),
        decisions,
    }
}

/// A panic caught in one chunk of a value-iteration step.
pub(crate) struct WorkerPanic {
    /// Index of the chunk's worker; 0 is the calling thread.
    pub(crate) worker: usize,
    /// The panic payload, for re-raising.
    pub(crate) payload: Box<dyn Any + Send>,
}

/// What a caller of [`step_loop`] does between steps. An `Err` from any
/// hook ends the loop and is returned from it.
pub(crate) trait StepHooks {
    /// Why the loop stopped early.
    type Stop;

    /// Runs before step `i`, with `prev` holding `q_{i+1}`.
    fn before_step(&mut self, _i: usize, _prev: &[f64]) -> Result<(), Self::Stop> {
        Ok(())
    }

    /// A chunk of step `i`, split over `workers` chunks, panicked. `Ok`
    /// replays the step from the untouched `q_{i+1}` on the calling thread
    /// alone, and the rest of the query runs with one worker.
    fn worker_panicked(
        &mut self,
        i: usize,
        workers: usize,
        panic: WorkerPanic,
    ) -> Result<(), Self::Stop>;

    /// Runs after step `i` wrote `q` (`q_i`), before its telemetry record.
    fn after_step(&mut self, _i: usize, _q: &mut [f64]) -> Result<(), Self::Stop> {
        Ok(())
    }
}

/// The plain engines' hooks: nothing between steps, and a worker panic
/// is re-raised on the calling thread.
struct Plain;

impl StepHooks for Plain {
    type Stop = std::convert::Infallible;

    fn worker_panicked(
        &mut self,
        _i: usize,
        _workers: usize,
        panic: WorkerPanic,
    ) -> Result<(), Self::Stop> {
        resume_unwind(panic.payload)
    }
}

/// The value-iteration step loop of every engine: runs steps `from` down
/// to 1 of a `k`-step query with `workers` workers (clamped to
/// `1..=states`), calling `hooks` between steps and emitting each step's
/// iteration record. On entry `bufs.q_next` holds `q_{from + 1}` — zero
/// for a fresh query (`from == k`), a checkpointed plane on resume; on
/// `Ok` it holds `q_1`. Returns one decision row per step when
/// `sweep.record` is set, nothing otherwise.
///
/// Whether it finishes or a hook stops it, the loop emits one
/// `reach_iterations` counter for the steps it completed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_loop<H: StepHooks>(
    sweep: &Sweep<'_>,
    workers: usize,
    fg: &FoxGlynn,
    k: usize,
    from: usize,
    qi: usize,
    bufs: &mut SweepBuffers,
    hooks: &mut H,
) -> Result<Vec<Vec<u16>>, H::Stop> {
    let mut done = 0;
    let out = run_steps(sweep, workers, fg, k, from, qi, bufs, hooks, &mut done);
    if done > 0 {
        unicon_obs::emit(unicon_obs::Class::Metric, || unicon_obs::Event::Counter {
            name: "reach_iterations",
            value: done as u64,
        });
    }
    out
}

/// The body of [`step_loop`], counting completed steps in `done`.
#[allow(clippy::too_many_arguments)]
fn run_steps<H: StepHooks>(
    sweep: &Sweep<'_>,
    workers: usize,
    fg: &FoxGlynn,
    k: usize,
    from: usize,
    qi: usize,
    bufs: &mut SweepBuffers,
    hooks: &mut H,
    done: &mut usize,
) -> Result<Vec<Vec<u16>>, H::Stop> {
    let n = sweep.goal.len();
    let mut ranges = assign_blocks(n, workers.clamp(1, n.max(1)));
    let mut decisions = if sweep.record {
        vec![Vec::new(); k]
    } else {
        Vec::new()
    };
    let SweepBuffers { q, q_next, .. } = bufs;
    for i in (1..=from).rev() {
        hooks.before_step(i, q_next)?;
        let psi = fg.psi(i);
        let mut row = if sweep.record { vec![0; n] } else { Vec::new() };
        let fault = sweep.fault.filter(|&(step, _)| step == i).map(|(_, w)| w);
        let timed = (k - i).is_multiple_of(KERNEL_TIMING_EVERY)
            && unicon_obs::live(unicon_obs::Class::Metric);
        if let Err(panic) = run_step(sweep, &ranges, psi, q_next, q, &mut row, fault, timed) {
            hooks.worker_panicked(i, ranges.len(), panic)?;
            // Replay from the untouched q_{i+1}: same kernel, same inputs,
            // so the replayed step is bitwise the step the workers owed.
            ranges = assign_blocks(n, 1);
            if let Err(panic) = run_step(sweep, &ranges, psi, q_next, q, &mut row, None, timed) {
                resume_unwind(panic.payload);
            }
        }
        hooks.after_step(i, q)?;
        if sweep.record {
            decisions[i - 1] = row;
        }
        // Telemetry runs on the calling thread only, after every chunk
        // has landed — workers never emit.
        emit_iteration(qi, i, fg, k, q);
        std::mem::swap(q, q_next);
        *done += 1;
    }
    Ok(decisions)
}

/// The step executor: sweeps one step from `prev` into `out` (and into
/// `decisions`, when recording) over `ranges`, which tile `0..n` in
/// order. The calling thread sweeps the first range and one scoped thread
/// per further range sweeps its own `split_at_mut` chunk in place; a
/// single range runs inline. Every chunk runs under `catch_unwind`, so a
/// panic is returned (lowest worker index first), never propagated; the
/// caller then discards or rewrites the whole plane. `fault` names a
/// worker to panic at the start of its chunk (fault injection); `timed`
/// turns on the fused kernel's per-class timing for this step.
#[allow(clippy::too_many_arguments)]
fn run_step(
    sweep: &Sweep<'_>,
    ranges: &[Range<usize>],
    psi: f64,
    prev: &[f64],
    out: &mut [f64],
    decisions: &mut [u16],
    fault: Option<usize>,
    timed: bool,
) -> Result<(), WorkerPanic> {
    let chunk = |worker: usize, range: Range<usize>, out: &mut [f64], decisions: &mut [u16]| {
        // AssertUnwindSafe: after a panic the caller fails the run or
        // rewrites the whole plane, so a half-written chunk never escapes.
        catch_unwind(AssertUnwindSafe(|| {
            if fault == Some(worker) {
                panic!("injected worker fault (worker {worker})");
            }
            sweep.states(range, psi, prev, out, decisions, timed);
        }))
        .map_err(|payload| WorkerPanic { worker, payload })
    };
    let Some((first, rest)) = ranges.split_first() else {
        return Ok(());
    };
    if rest.is_empty() {
        return chunk(0, first.clone(), out, decisions);
    }
    let (mut out, mut decisions) = (out, decisions);
    let (out0, decisions0) = split_front(&mut out, &mut decisions, first.len());
    std::thread::scope(|scope| {
        let chunk = &chunk;
        let handles: Vec<_> = rest
            .iter()
            .enumerate()
            .map(|(w, range)| {
                let (out, decisions) = split_front(&mut out, &mut decisions, range.len());
                scope.spawn(move || chunk(w + 1, range.clone(), out, decisions))
            })
            .collect();
        let mut result = chunk(0, first.clone(), out0, decisions0);
        for handle in handles {
            let joined = handle.join().expect("chunk sweeps catch their own panics");
            if result.is_ok() {
                result = joined;
            }
        }
        result
    })
}

/// Splits the first `len` value slots — and as many decision slots, when
/// recording — off the fronts of `out` and `decisions`.
fn split_front<'s>(
    out: &mut &'s mut [f64],
    decisions: &mut &'s mut [u16],
    len: usize,
) -> (&'s mut [f64], &'s mut [u16]) {
    let (head, tail) = std::mem::take(out).split_at_mut(len);
    *out = tail;
    let decision_len = if decisions.is_empty() { 0 } else { len };
    let (decision_head, decision_tail) = std::mem::take(decisions).split_at_mut(decision_len);
    *decisions = decision_tail;
    (head, decision_head)
}

/// One query of a [`ReachBatch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachQuery {
    /// The time bound.
    pub t: f64,
    /// Maximize or minimize over schedulers.
    pub objective: Objective,
}

/// Per-query measurements of a batch run.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// The time bound analyzed.
    pub t: f64,
    /// The optimization direction.
    pub objective: Objective,
    /// Value-iteration step count `k(ε, E, t)`.
    pub iterations: usize,
    /// Wall-clock time of this query's iteration.
    pub wall: Duration,
    /// Deterministic chunked-Neumaier checksum of the value vector
    /// (fixed [`CHECKSUM_BLOCK`]-state blocks) — bitwise reproducible for
    /// every thread count, the quantity the CI divergence gate compares.
    pub checksum: f64,
}

/// Aggregate measurements of a batch run, for the BENCH trajectory.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Worker threads as requested by the caller (`0` = auto). Reported
    /// separately from [`BatchStats::threads_effective`] so a clamp on
    /// small hardware is visible instead of silently rewriting the
    /// request in benchmark records.
    pub threads_requested: usize,
    /// Worker threads actually used per query (after resolving `0` =
    /// auto and clamping to `available_parallelism`).
    pub threads_effective: usize,
    /// Time spent building the shared CSR traversal structures.
    pub precompute_time: Duration,
    /// Time spent computing (or fetching) Fox–Glynn weight vectors.
    pub weights_time: Duration,
    /// Total wall-clock time of all value iterations.
    pub iterate_time: Duration,
    /// Weight-cache hits across the batch.
    pub cache_hits: usize,
    /// Weight-cache misses across the batch.
    pub cache_misses: usize,
    /// Sum of all queries' iteration counts.
    pub total_iterations: usize,
    /// The value-iteration kernel the batch ran on.
    pub kernel: Kernel,
    /// Average wall nanoseconds per state per value-iteration step:
    /// `iterate_time / (total_iterations × num_states)` — the
    /// size-normalized kernel speed the BENCH trajectory tracks
    /// (0 when the batch performed no iterations).
    pub kernel_ns_per_state: f64,
    /// How many times an iterate scratch vector had to allocate across
    /// the whole batch. After the first query warms the
    /// value planes, further same-model queries add zero.
    pub buffer_allocs: usize,
    /// Per-query detail, in query order.
    pub queries: Vec<QueryStats>,
}

/// The answers of a batch run.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One [`ReachResult`] per query, in query order — each bitwise equal
    /// to the corresponding single-query call.
    pub results: Vec<ReachResult>,
    /// Phase timings and cache counters.
    pub stats: BatchStats,
}

/// A batched timed-reachability request: many `(time bound, objective)`
/// queries against one `(model, goal)` pair, sharing the CSR traversal
/// structures and a Fox–Glynn weight cache across queries.
///
/// # Examples
///
/// ```
/// use unicon_ctmdp::{CtmdpBuilder, par::ReachBatch};
///
/// let mut b = CtmdpBuilder::new(3, 0);
/// b.transition(0, "a", &[(1, 1.0), (0, 1.0)]);
/// b.transition(1, "a", &[(2, 2.0)]);
/// b.transition(2, "a", &[(2, 2.0)]);
/// let m = b.build();
/// let goal = [false, false, true];
///
/// let batch = ReachBatch::new(&m, &goal)
///     .with_epsilon(1e-9)
///     .query(1.0)
///     .query(4.0);
/// let out = batch.run().expect("uniform model");
/// assert_eq!(out.results.len(), 2);
/// assert!(out.results[0].values[0] < out.results[1].values[0]);
/// ```
#[derive(Debug, Clone)]
pub struct ReachBatch<'a> {
    // pub(crate): the guard module wraps batches without re-borrowing
    // through accessors.
    pub(crate) ctmdp: &'a Ctmdp,
    pub(crate) goal: Vec<bool>,
    pub(crate) epsilon: f64,
    pub(crate) threads: usize,
    pub(crate) kernel: Kernel,
    pub(crate) queries: Vec<ReachQuery>,
}

impl<'a> ReachBatch<'a> {
    /// Starts an empty batch against `(ctmdp, goal)` with the default
    /// precision `1e-6` and one thread.
    ///
    /// # Panics
    ///
    /// Panics if `goal.len()` mismatches the state count.
    pub fn new(ctmdp: &'a Ctmdp, goal: &[bool]) -> Self {
        assert_eq!(
            goal.len(),
            ctmdp.num_states(),
            "goal vector length mismatch"
        );
        Self {
            ctmdp,
            goal: goal.to_vec(),
            epsilon: ReachOptions::default().epsilon,
            threads: 1,
            kernel: Kernel::default(),
            queries: Vec::new(),
        }
    }

    /// Sets the truncation precision shared by all queries (validated at
    /// [`ReachBatch::run`] time).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the worker-thread count (`0` = one per hardware thread).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the value-iteration kernel ([`Kernel::Fused`] by default;
    /// [`Kernel::Reference`] is the retained oracle for differential
    /// benchmarking — both produce bitwise-identical results).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Adds a maximizing (worst-case) query for time bound `t`.
    pub fn query(self, t: f64) -> Self {
        self.query_with(t, Objective::Maximize)
    }

    /// Adds a query with an explicit objective.
    ///
    /// The time bound is validated at [`ReachBatch::run`] time (like the
    /// epsilon), so building a batch from untrusted input never panics —
    /// a bad bound surfaces as [`ReachError::InvalidTimeBound`].
    pub fn query_with(mut self, t: f64, objective: Objective) -> Self {
        self.queries.push(ReachQuery { t, objective });
        self
    }

    /// The queries accumulated so far.
    pub fn queries(&self) -> &[ReachQuery] {
        &self.queries
    }

    /// Runs all queries, sharing precomputation and weight vectors.
    ///
    /// Every returned [`ReachResult`]'s values are bitwise equal to the
    /// corresponding single-query
    /// [`crate::reachability::timed_reachability`] call, for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// See [`crate::reachability::timed_reachability`].
    pub fn run(&self) -> Result<BatchResult, ReachError> {
        let pre_start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
        let pre_span = unicon_obs::open_span("precompute");
        let pre = Precompute::new(self.ctmdp, &self.goal)?;
        let _ = unicon_obs::close_span(pre_span);
        let precompute_time = pre_start.elapsed();
        let mut cache = WeightCache::new();
        self.run_inner(&pre, &mut cache, precompute_time)
    }

    /// Runs all queries against an externally owned [`ReachEngine`] and
    /// weight cache: the engine's precomputation is reused (not rebuilt),
    /// and the cache persists across calls — the amortization path of a
    /// long-running query service, where one model answers many batches.
    ///
    /// Results are bitwise identical to [`ReachBatch::run`].
    ///
    /// # Errors
    ///
    /// Everything [`ReachBatch::run`] returns, plus
    /// [`ReachError::GoalLengthMismatch`] when the engine was built for a
    /// different state count or goal than this batch's.
    pub fn run_with_engine(
        &self,
        engine: &ReachEngine,
        cache: &mut WeightCache,
    ) -> Result<BatchResult, ReachError> {
        engine.check_compatible(self.ctmdp, &self.goal)?;
        self.run_inner(&engine.pre, cache, Duration::ZERO)
    }

    /// The shared driver behind [`ReachBatch::run`] and
    /// [`ReachBatch::run_with_engine`]: `pre` may be freshly built or a
    /// long-lived shared precomputation, `cache` a per-run or cross-run
    /// weight table — neither choice affects any result bit.
    fn run_inner(
        &self,
        pre: &Precompute,
        cache: &mut WeightCache,
        precompute_time: Duration,
    ) -> Result<BatchResult, ReachError> {
        validate_epsilon(self.epsilon)?;
        for q in &self.queries {
            validate_time(q.t)?;
        }
        let threads = resolve_threads(self.threads);

        let opts_base = ReachOptions::default()
            .with_epsilon(self.epsilon)
            .with_kernel(self.kernel);
        // The cache may be shared across many runs (a serve session);
        // stats and counter events report this run's contribution only.
        let (hits0, misses0) = (cache.hits(), cache.misses());
        let mut results = Vec::with_capacity(self.queries.len());
        let mut query_stats = Vec::with_capacity(self.queries.len());
        let mut weights_time = Duration::ZERO;
        let mut iterate_time = Duration::ZERO;
        let mut total_iterations = 0;
        // One scratch pool for the whole batch: the first query sizes it,
        // every later query runs allocation-free.
        let mut bufs = SweepBuffers::default();

        for (qi, q) in self.queries.iter().enumerate() {
            let result = if q.t == 0.0 || pre.rate == 0.0 {
                indicator_result(&self.goal, pre.rate)
            } else {
                let query_span = unicon_obs::span("query");
                let w_start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
                let weights_span = unicon_obs::span("weights");
                let cached = cache.get(pre.rate, q.t, self.epsilon).clone();
                drop(weights_span);
                weights_time += w_start.elapsed();
                unicon_obs::emit(unicon_obs::Class::Metric, || {
                    unicon_obs::Event::QueryStart {
                        query: qi,
                        t: q.t,
                        lambda: cached.fg.lambda(),
                        left: cached.fg.left_truncation(self.epsilon),
                        right: cached.truncation,
                    }
                });
                let opts = opts_base.with_objective(q.objective);
                let result = run_query(
                    &Sweep::new(self.ctmdp, pre, &self.goal, &opts),
                    &cached.fg,
                    cached.truncation,
                    threads,
                    qi,
                    Instant::now(), // det-lint: allow(clock): event timestamp only.
                    &mut bufs,
                );
                drop(query_span);
                result
            };
            iterate_time += result.runtime;
            total_iterations += result.iterations;
            query_stats.push(QueryStats {
                t: q.t,
                objective: q.objective,
                iterations: result.iterations,
                wall: result.runtime,
                checksum: chunked_stable_sum(&result.values, CHECKSUM_BLOCK),
            });
            results.push(result);
        }

        unicon_obs::emit(unicon_obs::Class::Metric, || unicon_obs::Event::Counter {
            name: "weight_cache_hits",
            value: (cache.hits() - hits0) as u64,
        });
        unicon_obs::emit(unicon_obs::Class::Metric, || unicon_obs::Event::Counter {
            name: "weight_cache_misses",
            value: (cache.misses() - misses0) as u64,
        });

        let n = self.ctmdp.num_states();
        let kernel_ns_per_state = if total_iterations == 0 || n == 0 {
            0.0
        } else {
            iterate_time.as_nanos() as f64 / (total_iterations as f64 * n as f64)
        };
        unicon_obs::emit(unicon_obs::Class::Metric, || unicon_obs::Event::Gauge {
            name: "reach_kernel_ns_per_state",
            value: kernel_ns_per_state,
        });

        Ok(BatchResult {
            results,
            stats: BatchStats {
                threads_requested: self.threads,
                threads_effective: threads,
                precompute_time,
                weights_time,
                iterate_time,
                cache_hits: cache.hits() - hits0,
                cache_misses: cache.misses() - misses0,
                total_iterations,
                kernel: self.kernel,
                kernel_ns_per_state,
                buffer_allocs: bufs.allocs,
                queries: query_stats,
            },
        })
    }
}

/// A re-entrant query engine over one `(model, goal)` pair.
///
/// The precomputation — the CSR traversal structures and the goal-row
/// pre-aggregation every value-iteration step reads — is built **once**
/// at construction and only ever read afterwards, so a `&ReachEngine`
/// can answer queries from many threads concurrently without locking.
/// This is the amortization core of a long-running reachability service:
/// the model is prepared one time, after which every `(t, objective,
/// epsilon)` query touches only immutable shared state plus its own
/// iterate buffers.
///
/// # Determinism contract
///
/// Every query's arithmetic is confined to that query (snapshot reads,
/// disjoint writes, fixed-block checksums), so the same query returns
/// bitwise-identical values whether issued serially, interleaved with
/// other queries, or at any worker-thread count — the same contract
/// [`ReachBatch`] pins.
///
/// The engine does not borrow the model; calls pass `&Ctmdp` so the
/// engine can live next to an owned model inside a registry entry. It is
/// a contract violation to pass a different model than the one the
/// engine was built from; the cheap structural guards ([`ReachError`]s)
/// catch size mismatches, not content swaps.
#[derive(Debug, Clone)]
pub struct ReachEngine {
    goal: Vec<bool>,
    num_states: usize,
    num_transitions: usize,
    pub(crate) pre: Precompute,
}

impl ReachEngine {
    /// Builds the shared precomputation for `(ctmdp, goal)`.
    ///
    /// # Errors
    ///
    /// [`ReachError::GoalLengthMismatch`] or [`ReachError::NotUniform`]
    /// under the conditions of
    /// [`crate::reachability::timed_reachability`].
    pub fn new(ctmdp: &Ctmdp, goal: &[bool]) -> Result<Self, ReachError> {
        let pre = Precompute::new(ctmdp, goal)?;
        Ok(Self {
            goal: goal.to_vec(),
            num_states: ctmdp.num_states(),
            num_transitions: ctmdp.num_transitions(),
            pre,
        })
    }

    /// The uniform exit rate `E` of the model the engine was built from.
    #[must_use]
    pub fn uniform_rate(&self) -> f64 {
        self.pre.rate
    }

    /// The goal vector the engine answers queries against.
    #[must_use]
    pub fn goal(&self) -> &[bool] {
        &self.goal
    }

    /// Heap bytes the engine keeps resident between queries: the goal
    /// vector plus the shared precomputation (CSR probability rows and
    /// goal-mass vector). Model caches charge this against their budget.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.goal.len() * std::mem::size_of::<bool>() + self.pre.memory_bytes()
    }

    /// Structural guard: the model and goal a caller supplies must match
    /// the ones the engine was built from.
    pub(crate) fn check_compatible(&self, ctmdp: &Ctmdp, goal: &[bool]) -> Result<(), ReachError> {
        if ctmdp.num_states() != self.num_states
            || ctmdp.num_transitions() != self.num_transitions
            || goal != self.goal
        {
            return Err(ReachError::GoalLengthMismatch {
                goal_len: goal.len(),
                num_states: self.num_states,
            });
        }
        Ok(())
    }

    /// Answers one query, computing the Fox–Glynn weights in place (no
    /// cache). Bitwise identical to
    /// [`crate::reachability::timed_reachability`].
    ///
    /// # Errors
    ///
    /// [`ReachError::InvalidTimeBound`] / [`ReachError::InvalidEpsilon`]
    /// on bad parameters, [`ReachError::GoalLengthMismatch`] when
    /// `ctmdp` is not the model the engine was built from.
    pub fn query(
        &self,
        ctmdp: &Ctmdp,
        t: f64,
        objective: Objective,
        epsilon: f64,
        threads: usize,
    ) -> Result<ReachResult, ReachError> {
        validate_time(t)?;
        validate_epsilon(epsilon)?;
        self.check_compatible(ctmdp, &self.goal)?;
        if t == 0.0 || self.pre.rate == 0.0 {
            return Ok(indicator_result(&self.goal, self.pre.rate));
        }
        let fg = FoxGlynn::new(self.pre.rate * t);
        let k = fg.right_truncation(epsilon);
        let weights = CachedWeights { fg, truncation: k };
        Ok(self.run_weighted(ctmdp, t, objective, epsilon, &weights, threads))
    }

    /// Answers one query from pre-fetched Fox–Glynn weights — the
    /// cache-warm fast path of a query service, where `weights` comes
    /// from a [`WeightCache`] shared across sessions. A cache hit is
    /// bitwise indistinguishable from recomputation, so this returns the
    /// exact bits [`ReachEngine::query`] returns.
    ///
    /// # Errors
    ///
    /// See [`ReachEngine::query`]. The caller must have fetched
    /// `weights` for `(self.uniform_rate(), t, epsilon)`; the cheap
    /// guards here cannot detect a wrong-key vector.
    pub fn query_with_weights(
        &self,
        ctmdp: &Ctmdp,
        t: f64,
        objective: Objective,
        epsilon: f64,
        weights: &CachedWeights,
        threads: usize,
    ) -> Result<ReachResult, ReachError> {
        validate_time(t)?;
        validate_epsilon(epsilon)?;
        self.check_compatible(ctmdp, &self.goal)?;
        if t == 0.0 || self.pre.rate == 0.0 {
            return Ok(indicator_result(&self.goal, self.pre.rate));
        }
        Ok(self.run_weighted(ctmdp, t, objective, epsilon, weights, threads))
    }

    fn run_weighted(
        &self,
        ctmdp: &Ctmdp,
        t: f64,
        objective: Objective,
        epsilon: f64,
        weights: &CachedWeights,
        threads: usize,
    ) -> ReachResult {
        unicon_obs::emit(unicon_obs::Class::Metric, || {
            unicon_obs::Event::QueryStart {
                query: 0,
                t,
                lambda: weights.fg.lambda(),
                left: weights.fg.left_truncation(epsilon),
                right: weights.truncation,
            }
        });
        let opts = ReachOptions::default()
            .with_epsilon(epsilon)
            .with_objective(objective);
        run_query(
            &Sweep::new(ctmdp, &self.pre, &self.goal, &opts),
            &weights.fg,
            weights.truncation,
            threads,
            0,
            Instant::now(), // det-lint: allow(clock): runtime telemetry only.
            &mut SweepBuffers::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CtmdpBuilder;
    use crate::reachability::timed_reachability;

    fn chain() -> Ctmdp {
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "a", &[(1, 1.0), (0, 1.0)]);
        b.transition(1, "a", &[(2, 2.0)]);
        b.transition(2, "a", &[(2, 2.0)]);
        b.build()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn parallel_matches_sequential_bitwise_on_chain() {
        let m = chain();
        let goal = [false, false, true];
        let opts = ReachOptions::default().with_epsilon(1e-10);
        let seq = timed_reachability(&m, &goal, 2.5, &opts).unwrap();
        let engine = ReachEngine::new(&m, &goal).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = engine
                .query(&m, 2.5, Objective::Maximize, 1e-10, threads)
                .unwrap();
            assert_eq!(bits(&par.values), bits(&seq.values), "threads {threads}");
            assert_eq!(par.iterations, seq.iterations);
        }
    }

    /// Runs `iterate` at `workers` workers, unclamped by the hardware,
    /// so the chunk split runs on any host.
    fn iterate_at(
        m: &Ctmdp,
        goal: &[bool],
        t: f64,
        opts: &ReachOptions,
        workers: usize,
    ) -> ReachResult {
        let pre = Precompute::new(m, goal).unwrap();
        let fg = FoxGlynn::new(pre.rate * t);
        let k = fg.right_truncation(opts.epsilon);
        let sweep = Sweep::new(m, &pre, goal, opts);
        let mut bufs = SweepBuffers::default();
        iterate(&sweep, &fg, k, workers, 0, Instant::now(), &mut bufs)
    }

    #[test]
    fn parallel_records_identical_decisions() {
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "to_goal", &[(1, 2.0)]);
        b.transition(0, "away", &[(2, 2.0)]);
        b.transition(1, "s", &[(1, 2.0)]);
        b.transition(2, "s", &[(2, 2.0)]);
        let m = b.build();
        let goal = [false, true, false];
        let opts = ReachOptions::default().recording_decisions();
        let seq = timed_reachability(&m, &goal, 1.0, &opts).unwrap();
        for workers in [2, 3, 8] {
            let par = iterate_at(&m, &goal, 1.0, &opts, workers);
            assert_eq!(seq.decisions, par.decisions, "workers {workers}");
            assert_eq!(bits(&seq.values), bits(&par.values));
        }
    }

    /// Decision rows are split along the same ranges as the value plane:
    /// a ring of 40 two-action states, on both kernels.
    #[test]
    fn parallel_decision_recording_is_bitwise_equal() {
        let n = 40u32;
        let mut b = CtmdpBuilder::new(n as usize, 0);
        for s in 0..n {
            b.transition(s, "fwd", &[((s + 1) % n, 1.5), ((s + 3) % n, 0.5)]);
            b.transition(s, "back", &[((s + n - 1) % n, 1.0), ((s + 2) % n, 1.0)]);
        }
        let m = b.build();
        let goal: Vec<bool> = (0..n).map(|s| s % 7 == 3).collect();
        for kernel in [Kernel::Reference, Kernel::Fused] {
            for objective in [Objective::Maximize, Objective::Minimize] {
                let opts = ReachOptions::default()
                    .with_epsilon(1e-8)
                    .with_objective(objective)
                    .with_kernel(kernel)
                    .recording_decisions();
                let seq = timed_reachability(&m, &goal, 2.0, &opts).unwrap();
                assert!(!seq.decisions.is_empty());
                for workers in [2, 8] {
                    let par = iterate_at(&m, &goal, 2.0, &opts, workers);
                    assert_eq!(par.decisions, seq.decisions, "{kernel:?} workers {workers}");
                    assert_eq!(bits(&par.values), bits(&seq.values));
                }
            }
        }
    }

    #[test]
    fn zero_time_and_zero_rate_shortcuts() {
        let m = chain();
        let goal = [false, false, true];
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let r = engine.query(&m, 0.0, Objective::Maximize, 1e-6, 4).unwrap();
        assert_eq!(r.values, vec![0.0, 0.0, 1.0]);
        let empty = CtmdpBuilder::new(2, 0).build();
        let r = ReachEngine::new(&empty, &[false, true])
            .unwrap()
            .query(&empty, 3.0, Objective::Maximize, 1e-6, 4)
            .unwrap();
        assert_eq!(r.values, vec![0.0, 1.0]);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn parallel_rejects_bad_epsilon_and_non_uniform() {
        let m = chain();
        let goal = [false, false, true];
        let engine = ReachEngine::new(&m, &goal).unwrap();
        assert!(matches!(
            engine.query(&m, 1.0, Objective::Maximize, 0.0, 2),
            Err(ReachError::InvalidEpsilon { .. })
        ));
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        b.transition(1, "a", &[(0, 3.0)]);
        assert!(matches!(
            ReachEngine::new(&b.build(), &[false, true]),
            Err(ReachError::NotUniform(_))
        ));
    }

    #[test]
    fn batch_equals_single_queries_and_counts_cache() {
        let m = chain();
        let goal = [false, false, true];
        let eps = 1e-8;
        let batch = ReachBatch::new(&m, &goal)
            .with_epsilon(eps)
            .query(0.5)
            .query(2.0)
            .query_with(2.0, Objective::Minimize) // same t: cache hit
            .query(0.0);
        let out = batch.run().unwrap();
        assert_eq!(out.results.len(), 4);
        let opts = ReachOptions::default().with_epsilon(eps);
        for (i, q) in [
            (0, (0.5, Objective::Maximize)),
            (1, (2.0, Objective::Maximize)),
            (2, (2.0, Objective::Minimize)),
            (3, (0.0, Objective::Maximize)),
        ] {
            let single = timed_reachability(&m, &goal, q.0, &opts.with_objective(q.1)).unwrap();
            assert_eq!(
                bits(&out.results[i].values),
                bits(&single.values),
                "query {i}"
            );
            assert_eq!(out.results[i].iterations, single.iterations);
        }
        // 0.5 and 2.0 miss; the repeated 2.0 hits; t = 0 bypasses weights.
        assert_eq!(out.stats.cache_misses, 2);
        assert_eq!(out.stats.cache_hits, 1);
        assert_eq!(out.stats.queries.len(), 4);
        assert_eq!(
            out.stats.total_iterations,
            out.results.iter().map(|r| r.iterations).sum::<usize>()
        );
    }

    #[test]
    fn batch_checksums_are_thread_invariant() {
        let m = chain();
        let goal = [false, false, true];
        let run = |threads| {
            ReachBatch::new(&m, &goal)
                .with_epsilon(1e-9)
                .with_threads(threads)
                .query(1.0)
                .query(3.0)
                .run()
                .unwrap()
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        for i in 0..2 {
            assert_eq!(
                a.stats.queries[i].checksum.to_bits(),
                b.stats.queries[i].checksum.to_bits()
            );
            assert_eq!(
                a.stats.queries[i].checksum.to_bits(),
                c.stats.queries[i].checksum.to_bits()
            );
        }
        assert_eq!(b.stats.threads_effective, resolve_threads(2));
    }

    /// The PR-6 clamp made `BatchStats` silently record the *effective*
    /// thread count under the requested one's name (BENCH_reach.json's
    /// `threads4` block said `"threads":1` on 1-CPU hardware). Both
    /// numbers are now first-class: the request verbatim, the resolution
    /// separately.
    #[test]
    fn batch_reports_requested_and_effective_threads() {
        let m = chain();
        let goal = [false, false, true];
        let out = ReachBatch::new(&m, &goal)
            .with_threads(4)
            .query(1.0)
            .run()
            .unwrap();
        assert_eq!(out.stats.threads_requested, 4);
        assert_eq!(out.stats.threads_effective, resolve_threads(4));
        // auto (0) stays visible as the literal request
        let auto = ReachBatch::new(&m, &goal)
            .with_threads(0)
            .query(1.0)
            .run()
            .unwrap();
        assert_eq!(auto.stats.threads_requested, 0);
        assert_eq!(auto.stats.threads_effective, resolve_threads(0));
        // an oversubscribed request is never silently rewritten
        let big = ReachBatch::new(&m, &goal)
            .with_threads(9999)
            .query(1.0)
            .run()
            .unwrap();
        assert_eq!(big.stats.threads_requested, 9999);
        assert!(big.stats.threads_effective <= 9999);
    }

    #[test]
    fn engine_queries_match_batch_bitwise() {
        let m = chain();
        let goal = [false, false, true];
        let eps = 1e-9;
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let opts = ReachOptions::default().with_epsilon(eps);
        for t in [0.0, 0.5, 2.0, 7.0] {
            let single = timed_reachability(&m, &goal, t, &opts).unwrap();
            for threads in [1, 2, 8] {
                let r = engine
                    .query(&m, t, Objective::Maximize, eps, threads)
                    .unwrap();
                assert_eq!(bits(&r.values), bits(&single.values), "t {t}");
                assert_eq!(r.iterations, single.iterations);
            }
        }
    }

    #[test]
    fn engine_weights_path_matches_uncached_path() {
        let m = chain();
        let goal = [false, false, true];
        let eps = 1e-8;
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let mut cache = WeightCache::new();
        for t in [1.0, 3.0, 1.0] {
            let w = cache.get(engine.uniform_rate(), t, eps).clone();
            let warm = engine
                .query_with_weights(&m, t, Objective::Minimize, eps, &w, 2)
                .unwrap();
            let cold = engine.query(&m, t, Objective::Minimize, eps, 2).unwrap();
            assert_eq!(bits(&warm.values), bits(&cold.values), "t {t}");
        }
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    /// `&ReachEngine` is shared across threads: concurrent queries read
    /// the one precomputation and still return the serial bits.
    #[test]
    fn engine_is_reentrant_across_threads() {
        let m = chain();
        let goal = [false, false, true];
        let eps = 1e-9;
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let serial: Vec<Vec<u64>> = (1..=6)
            .map(|i| {
                let r = engine
                    .query(&m, f64::from(i) * 0.5, Objective::Maximize, eps, 1)
                    .unwrap();
                bits(&r.values)
            })
            .collect();
        let concurrent: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=6)
                .map(|i| {
                    let (engine, m) = (&engine, &m);
                    scope.spawn(move || {
                        let r = engine
                            .query(m, f64::from(i) * 0.5, Objective::Maximize, eps, 2)
                            .unwrap();
                        bits(&r.values)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, concurrent);
    }

    #[test]
    fn run_with_engine_shares_cache_and_matches_run() {
        let m = chain();
        let goal = [false, false, true];
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let mut cache = WeightCache::new();
        let batch = ReachBatch::new(&m, &goal)
            .with_epsilon(1e-8)
            .query(1.0)
            .query(2.0);
        let plain = batch.run().unwrap();
        let first = batch.run_with_engine(&engine, &mut cache).unwrap();
        let second = batch.run_with_engine(&engine, &mut cache).unwrap();
        for (a, b) in plain.results.iter().zip(&first.results) {
            assert_eq!(bits(&a.values), bits(&b.values));
        }
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(bits(&a.values), bits(&b.values));
        }
        // the cache persisted: the second run answers both bounds warm,
        // and per-run stats report deltas, not lifetime totals
        assert_eq!((first.stats.cache_hits, first.stats.cache_misses), (0, 2));
        assert_eq!((second.stats.cache_hits, second.stats.cache_misses), (2, 0));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn engine_rejects_mismatched_model_or_goal() {
        let m = chain();
        let goal = [false, false, true];
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let mut other = CtmdpBuilder::new(2, 0);
        other.transition(0, "a", &[(1, 1.0)]);
        other.transition(1, "a", &[(1, 1.0)]);
        let other = other.build();
        assert!(matches!(
            engine.query(&other, 1.0, Objective::Maximize, 1e-6, 1),
            Err(ReachError::GoalLengthMismatch { .. })
        ));
        let batch = ReachBatch::new(&m, &[true, false, true]).query(1.0);
        let mut cache = WeightCache::new();
        assert!(matches!(
            batch.run_with_engine(&engine, &mut cache),
            Err(ReachError::GoalLengthMismatch { .. })
        ));
    }

    #[test]
    fn batch_validates_epsilon_before_running() {
        let m = chain();
        let goal = [false, false, true];
        let err = ReachBatch::new(&m, &goal)
            .with_epsilon(-0.5)
            .query(1.0)
            .run()
            .unwrap_err();
        assert!(matches!(err, ReachError::InvalidEpsilon { epsilon } if epsilon == -0.5));
    }

    #[test]
    fn batch_validates_time_bounds_at_run_time() {
        let m = chain();
        let goal = [false, false, true];
        // building with a bad bound must not panic...
        let batch = ReachBatch::new(&m, &goal).query(f64::NAN).query(1.0);
        // ...the error surfaces from run()
        let err = batch.run().unwrap_err();
        assert!(matches!(err, ReachError::InvalidTimeBound { t } if t.is_nan()));
        let err = ReachBatch::new(&m, &goal).query(-2.0).run().unwrap_err();
        assert!(matches!(err, ReachError::InvalidTimeBound { t } if t == -2.0));
    }

    #[test]
    fn resolve_threads_auto_is_positive_and_clamped() {
        let avail = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(0), avail);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(3), 3.min(avail));
        // An absurd request never exceeds the hardware.
        assert_eq!(resolve_threads(usize::MAX), avail);
    }

    /// With metrics live (here through a thread-local collector; an
    /// installed registry turns on the same class), the fused kernel
    /// times exactly the sampled sweeps — the first of the query and
    /// every 64th step after it — at every worker count, and the query
    /// still reports one speed sample per group class it swept. With
    /// nothing live it times no sweep.
    #[test]
    fn kernel_timing_samples_the_first_sweep_and_every_64th_step() {
        let m = chain();
        let goal = [false, false, true];
        let opts = ReachOptions::default();
        for (workers, live) in [(1, false), (1, true), (2, true)] {
            let pre = Precompute::new(&m, &goal).unwrap();
            let fg = FoxGlynn::new(pre.rate * 100.0);
            let k = fg.right_truncation(opts.epsilon);
            assert!(k > 2 * KERNEL_TIMING_EVERY, "k = {k} spans several samples");
            let sweep = Sweep::new(&m, &pre, &goal, &opts);
            let mut bufs = SweepBuffers::default();
            let mut run = || iterate(&sweep, &fg, k, workers, 0, Instant::now(), &mut bufs);
            if live {
                unicon_obs::collect(run);
            } else {
                run();
            }
            let groups: u64 = pre.timing.snapshot().groups.iter().sum();
            let sampled = if live {
                1 + (k - 1) / KERNEL_TIMING_EVERY
            } else {
                0
            };
            assert_eq!(groups, (goal.len() * sampled) as u64, "workers {workers}");
        }
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let (_, events) = unicon_obs::collect(|| {
            engine
                .query(&m, 100.0, Objective::Maximize, 1e-6, 1)
                .unwrap()
        });
        let speed_samples: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                unicon_obs::Event::Observe { name, .. } if name.starts_with("kernel_") => {
                    Some(*name)
                }
                _ => None,
            })
            .collect();
        // One goal (fixed) state and two single-row states.
        assert_eq!(
            speed_samples,
            ["kernel_fixed_ps_per_state", "kernel_single_ps_per_state"]
        );
    }
}
