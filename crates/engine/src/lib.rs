//! # vc-engine
//!
//! A sharded, deterministic, fault-hardened sweep runner for the
//! query-model experiments.
//!
//! The experiments of the paper sweep an algorithm over every (or a sampled
//! set of) start node(s) of an instance (`run_all` in `vc-model`). The
//! executions are independent — the query model gives each initiating node
//! its own visited set `V_v` (§2.2) — so the sweep is embarrassingly
//! parallel. This crate shards the start set over `std::thread::scope`
//! worker threads while keeping the result **bit-for-bit identical to the
//! serial runner for any thread count**:
//!
//! * The start set is cut into equal-size chunks by [`plan_chunks`], a pure
//!   function of the number of starts — never of the number of workers — so
//!   the partition boundaries are identical for every thread count.
//! * A chunk is the *merge* unit; the *claim* unit is a task of at most 64
//!   of its starts. Workers steal tasks from a shared atomic claim counter,
//!   so a chunk that holds most of a sweep's volume is still spread over
//!   every worker. Scheduling is racy, but each task's content and index
//!   are not.
//! * Outputs and [`ExecutionRecord`]s are placed by chunk index, then task
//!   index, so the merged [`RunReport`] lists records in start order
//!   exactly like the serial runner.
//! * Cost aggregation goes through [`CostAccumulator`], whose partial state
//!   is purely integral; merging per-task partials (in chunk order, then
//!   task order) yields the same [`CostSummary`] bits as a serial fold
//!   regardless of how tasks were distributed over threads.
//!
//! ## Robustness (DESIGN.md §11)
//!
//! Sweeps degrade gracefully instead of dying:
//!
//! * **Panic isolation.** Every task runs under `catch_unwind`. A
//!   panicking task is retried once from a fresh scratch; a task that
//!   panics on every attempt aborts its whole chunk, which lands in
//!   [`EngineReport::aborted_chunks`] and whose starts simply carry no
//!   outputs/records. Panics are deterministic (same algorithm, same task,
//!   same inputs), so the aborted set — and therefore the merged summary
//!   over the surviving chunks — is identical for every thread count.
//! * **Cooperative deadline / cancel.** [`Engine::with_deadline`] (or the
//!   `VC_DEADLINE_MS` environment variable) and [`CancelFlag`] stop workers
//!   at chunk-claim boundaries (before a chunk's first task). Claims are
//!   monotonic, so the executed chunks always form a prefix of the chunk
//!   sequence and the partial summary is a valid chunk-order merge;
//!   *which* prefix is schedule-dependent, which is why deadline runs are
//!   flagged [`EngineReport::degraded`].
//! * **Deterministic kill proxy.** [`Engine::with_chunk_quota`] stops
//!   claims after a fixed number of chunks — because claims are sequential,
//!   a quota-`k` run executes exactly chunks `0..k` for any thread count.
//!   The checkpoint tests use this as a reproducible "kill".
//! * **Checkpoint / resume.** [`Engine::run_recorded_with_checkpoint`]
//!   persists per-chunk [`ExecutionRecord`]s to a
//!   `vc-engine-checkpoint/v2` JSON file — keyed by the content-addressed
//!   [`SweepIdentity`] — and resumes exactly where a previous (killed) run
//!   stopped; the resumed result is byte-identical to an unbroken run
//!   (see the `checkpoint` module).
//!
//! [`Engine::run_all_traced`] additionally aggregates a
//! [`vc_trace::MergeTracer`] (one fresh tracer per task, absorbed in chunk
//! order, then task order), extending the same any-thread-count
//! determinism guarantee to the tracer's mergeable state; see DESIGN.md
//! §10 for the event model and why tracing cannot perturb the sweep. Every
//! sweep — even at one worker — takes the chunked path, so panic isolation
//! and chunk-level event counts are uniform across thread counts.
//!
//! ## Fleet execution (DESIGN.md §15–16)
//!
//! Because the chunk plan is a pure function of the start count, the sweep
//! can be sharded across *processes* as well as threads:
//! [`Engine::with_chunk_set`] (or `VC_CHUNKS=lo..hi/total`, including
//! non-contiguous sets like `VC_CHUNKS=3..7,12/40`) restricts a run to a
//! disjoint subset of the planned chunks, each worker process checkpoints
//! its claim, and [`splice_checkpoints`] recombines the partial files
//! into one checkpoint byte-identical to a single-process run. The set
//! never enters the [`SweepId`] — all partitions of one sweep share one
//! identity — and chunks outside the configured set are reported in
//! [`EngineReport::out_of_range_chunks`], distinct from the degradation
//! ledgers: a partition worker that finishes its claim is healthy, not
//! degraded. Under [`Engine::with_live_checkpoint`] (or
//! `VC_LIVE_CHECKPOINT=1`) the partial file is rewritten atomically after
//! every completed chunk, turning it into a progress heartbeat; when a
//! worker dies anyway, [`splice_partial`] merges what exists and names
//! the gap, so a supervisor (the `vc-fleet` crate) can reassign exactly
//! the missing chunks. See `examples/fleet_sweep.rs` for the supervised
//! drill (spawn, kill, reassign, merge).
//!
//! The worker count defaults to `std::thread::available_parallelism` and can
//! be overridden with the `VC_THREADS` environment variable. Malformed
//! ambient configuration (`VC_THREADS=0`, `VC_THREADS=abc`,
//! `VC_DEADLINE_MS=1s`, `VC_CHUNKS=512..0/2048`) is a loud [`EnvError`]
//! from [`Engine::from_env`], never silently ignored.

#![deny(missing_docs)]

pub mod checkpoint;
pub mod partition;
pub mod splice;

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use vc_graph::Instance;
use vc_model::cost::{CostAccumulator, CostSummary, ExecutionRecord};
use vc_model::oracle::ExecScratch;
use vc_model::run::{run_from_traced, QueryAlgorithm, RunConfig, RunReport};
use vc_trace::time::Stopwatch;
use vc_trace::{MergeTracer, NoopTracer, TraceEvent};

pub use checkpoint::{
    sweep_identity, CheckpointReport, EngineError, SweepCheckpoint, SweepIdentity,
    CHECKPOINT_SCHEMA,
};
pub use partition::{ChunkSet, RangeError, CHUNKS_ENV};
pub use splice::{format_chunk_groups, splice_checkpoints, splice_partial, SpliceError};
pub use vc_ident::{InstanceId, SweepId};

use checkpoint::LiveCheckpointSink;

/// Smallest start count per work chunk. Small sweeps (at most
/// [`TARGET_CHUNKS`] × this many starts) are partitioned into chunks of
/// exactly this size, matching the fixed `CHUNK = 64` the engine used
/// before adaptive planning — existing sweep identities and checkpoints
/// are unchanged.
pub const MIN_CHUNK_STARTS: usize = 64;

/// Largest start count per work chunk. Caps per-chunk latency so the
/// claim boundary — the cooperative stop point for deadlines, quotas and
/// cancellation — is hit often enough even on million-start sweeps.
pub const MAX_CHUNK_STARTS: usize = 4096;

/// Preferred chunk count for a sweep. Sized at roughly 16× a typical
/// 8-worker engine so work-stealing keeps every thread busy until the
/// tail of the sweep without drowning the merge in tiny chunks.
pub const TARGET_CHUNKS: usize = 128;

/// The size-adaptive partition of a start set into work chunks.
///
/// Produced by [`plan_chunks`]; both fields are pure functions of the
/// start count, so the partition — and therefore the merge order of
/// outputs, records and cost partials — is identical for every thread
/// count. The planned `chunk_size` is folded into the content-addressed
/// [`SweepId`], so a checkpoint taken under one plan can never be resumed
/// under another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Start nodes per chunk (the final chunk may be shorter).
    pub chunk_size: usize,
    /// Total chunks covering the start set.
    pub num_chunks: usize,
}

impl ChunkPlan {
    /// The half-open start-index range `[lo, hi)` of chunk `chunk` within
    /// a start set of `num_starts` starts.
    pub fn bounds(&self, chunk: usize, num_starts: usize) -> (usize, usize) {
        let lo = chunk * self.chunk_size;
        (lo, num_starts.min(lo + self.chunk_size))
    }
}

/// Plans the chunk partition for a sweep over `num_starts` start nodes.
///
/// The chunk size grows with the sweep — `num_starts / TARGET_CHUNKS`,
/// clamped to `[MIN_CHUNK_STARTS, MAX_CHUNK_STARTS]` — so small sweeps
/// keep the historical 64-start chunks while a 10⁶-start sweep gets ~245
/// chunks of 4096 instead of 15625 chunks of 64. The plan depends only on
/// `num_starts`: thread counts, deadlines and quotas never move a chunk
/// boundary, which is what keeps merged results byte-identical for every
/// thread count and lets a checkpoint resume under a different worker
/// count.
pub fn plan_chunks(num_starts: usize) -> ChunkPlan {
    let chunk_size = num_starts
        .div_ceil(TARGET_CHUNKS)
        .clamp(MIN_CHUNK_STARTS, MAX_CHUNK_STARTS);
    ChunkPlan {
        chunk_size,
        num_chunks: num_starts.div_ceil(chunk_size),
    }
}

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "VC_THREADS";

/// Environment variable setting a cooperative sweep deadline in
/// milliseconds (checked at chunk-claim boundaries; see
/// [`Engine::with_deadline`]).
pub const DEADLINE_ENV: &str = "VC_DEADLINE_MS";

/// Environment variable enabling incremental checkpoint writes (`0`/`1`;
/// see [`Engine::with_live_checkpoint`]). Fleet supervisors set this on
/// workers so part files double as progress heartbeats.
pub const LIVE_CHECKPOINT_ENV: &str = "VC_LIVE_CHECKPOINT";

/// Attempts per chunk: the first run plus one retry from a fresh scratch.
/// Bounded so a deterministically-panicking chunk cannot spin forever.
pub const MAX_CHUNK_ATTEMPTS: u32 = 2;

/// A shared cooperative cancellation flag, checked by workers at
/// chunk-claim boundaries.
///
/// Cloning shares the flag. Once [`CancelFlag::cancel`] is called, workers
/// stop claiming new chunks; already-claimed chunks finish, so the merged
/// report is always a valid chunk-order merge of completed chunks.
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, uncancelled flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A malformed engine environment variable (`VC_THREADS` /
/// `VC_DEADLINE_MS`). Ambient typos must be loud: a silently ignored
/// `VC_THREADS=abc` runs the sweep with a different parallelism than the
/// operator asked for, and a silently ignored deadline runs unbounded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The offending environment variable.
    pub var: &'static str,
    /// What was wrong with its value.
    pub message: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad {} value: {}", self.var, self.message)
    }
}

impl std::error::Error for EnvError {}

/// Parses a `VC_THREADS` value: a positive integer worker count.
fn parse_threads(raw: &str) -> Result<usize, EnvError> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(EnvError {
            var: THREADS_ENV,
            message: "0 workers cannot run a sweep; use 1 or more".to_string(),
        }),
        Ok(t) => Ok(t),
        Err(_) => Err(EnvError {
            var: THREADS_ENV,
            message: format!("`{}` is not a positive integer", raw.trim()),
        }),
    }
}

/// Parses a `VC_DEADLINE_MS` value: a non-negative integer milliseconds
/// count (no unit suffixes — `1s` is a typo, not one second).
fn parse_deadline_ms(raw: &str) -> Result<Duration, EnvError> {
    raw.trim()
        .parse::<u64>()
        .map(Duration::from_millis)
        .map_err(|_| EnvError {
            var: DEADLINE_ENV,
            message: format!(
                "`{}` is not an integer millisecond count (unit suffixes are not supported)",
                raw.trim()
            ),
        })
}

/// Parses a `VC_LIVE_CHECKPOINT` value: exactly `0` or `1`. Anything
/// fuzzier (`yes`, `on`, …) is refused so a typo cannot silently disable
/// the heartbeat a supervisor depends on.
fn parse_live_checkpoint(raw: &str) -> Result<bool, EnvError> {
    match raw.trim() {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(EnvError {
            var: LIVE_CHECKPOINT_ENV,
            message: format!("`{other}` is not `0` or `1`"),
        }),
    }
}

/// A sharded sweep runner with a fixed worker-thread count and optional
/// degradation limits (deadline, chunk quota, cancel flag).
#[derive(Clone, Debug)]
pub struct Engine {
    threads: usize,
    deadline: Option<Duration>,
    quota: Option<usize>,
    cancel: Option<CancelFlag>,
    set: Option<ChunkSet>,
    live: bool,
}

impl Engine {
    /// An engine with the ambient configuration: worker count from the
    /// `VC_THREADS` environment variable when set to a positive integer
    /// (otherwise `std::thread::available_parallelism`, otherwise 1), a
    /// cooperative deadline from `VC_DEADLINE_MS` when set, a chunk set
    /// from `VC_CHUNKS=lo..hi/total` / `VC_CHUNKS=3..7,12/40` when set
    /// (the fleet-worker path; see [`Engine::with_chunk_set`]), and
    /// incremental checkpoint writes from `VC_LIVE_CHECKPOINT=1` (see
    /// [`Engine::with_live_checkpoint`]). Unset or blank variables mean
    /// "use the default"; anything else must parse.
    ///
    /// # Errors
    ///
    /// [`EnvError`] when any variable is set to garbage
    /// (`VC_THREADS=0`, `VC_THREADS=abc`, `VC_DEADLINE_MS=1s`,
    /// `VC_CHUNKS=512..0/2048`, `VC_LIVE_CHECKPOINT=yes`, …) — a startup
    /// error, never a silently ignored override.
    pub fn from_env() -> Result<Self, EnvError> {
        let threads = match std::env::var(THREADS_ENV) {
            Ok(raw) if !raw.trim().is_empty() => parse_threads(&raw)?,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        let deadline = match std::env::var(DEADLINE_ENV) {
            Ok(raw) if !raw.trim().is_empty() => Some(parse_deadline_ms(&raw)?),
            _ => None,
        };
        let set = match std::env::var(CHUNKS_ENV) {
            Ok(raw) if !raw.trim().is_empty() => {
                Some(ChunkSet::parse(&raw).map_err(|e| EnvError {
                    var: CHUNKS_ENV,
                    message: e.to_string(),
                })?)
            }
            _ => None,
        };
        let live = match std::env::var(LIVE_CHECKPOINT_ENV) {
            Ok(raw) if !raw.trim().is_empty() => parse_live_checkpoint(&raw)?,
            _ => false,
        };
        let mut engine = Self::with_threads(threads);
        engine.deadline = deadline;
        engine.set = set;
        engine.live = live;
        Ok(engine)
    }

    /// An engine with exactly `threads` workers (clamped to at least 1) and
    /// no limits.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            deadline: None,
            quota: None,
            cancel: None,
            set: None,
            live: false,
        }
    }

    /// Sets a cooperative deadline: once the sweep has run for `deadline`,
    /// workers stop claiming chunks. Already-claimed chunks finish, so the
    /// partial report remains a valid chunk-order merge; the skipped suffix
    /// lands in [`EngineReport::skipped_chunks`] and the report is marked
    /// [`EngineReport::degraded`]. Which chunks complete before a wall-clock
    /// deadline is inherently schedule-dependent — deadline runs trade
    /// reproducibility for bounded latency.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Stops the sweep after the first `quota` chunks. Chunk claims are
    /// handed out sequentially, so a quota-`k` run executes exactly chunks
    /// `0..k` **for any thread count** — a deterministic stand-in for a
    /// mid-sweep kill, used by the checkpoint/resume tests and CI.
    pub fn with_chunk_quota(mut self, quota: usize) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Attaches a cooperative cancellation flag checked at chunk-claim
    /// boundaries (e.g. from a signal handler or another thread).
    pub fn with_cancel_flag(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Restricts the sweep to the chunks inside `set` — the worker side
    /// of fleet execution (DESIGN.md §15/§16). Claims walk the set's
    /// chunks in ascending order; chunks outside it land in
    /// [`EngineReport::out_of_range_chunks`] and do **not** mark the
    /// report degraded. The set's `total` must equal the sweep's planned
    /// chunk count or the run fails loudly with
    /// [`RangeError::PlanMismatch`]. A quota
    /// ([`Engine::with_chunk_quota`]) counts *within* the set: quota `k`
    /// executes exactly the set's first `k` chunks. Supervisors use
    /// non-contiguous sets to reassign exactly a dead worker's missing
    /// chunks instead of a whole slice.
    pub fn with_chunk_set(mut self, set: ChunkSet) -> Self {
        self.set = Some(set);
        self
    }

    /// Enables incremental checkpoint writes: during
    /// [`Engine::run_recorded_with_checkpoint`] the partial file is
    /// rewritten (atomically, write-then-rename) after every completed
    /// chunk instead of only at the end. This turns part files into
    /// progress heartbeats a fleet supervisor can watch; it changes how
    /// *often* the file is written, never what the final bytes are.
    pub fn with_live_checkpoint(mut self) -> Self {
        self.live = true;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured chunk set, if any.
    pub fn chunk_set(&self) -> Option<&ChunkSet> {
        self.set.as_ref()
    }

    /// Whether incremental checkpoint writes are enabled.
    pub fn live_checkpoint(&self) -> bool {
        self.live
    }

    /// Runs `algo` from every selected start node of `inst`, sharding the
    /// sweep over the engine's worker threads.
    ///
    /// Outputs, records and the cost summary are bit-for-bit identical to
    /// `vc_model::run::run_all` for every thread count; only
    /// [`EngineReport::elapsed`] (and the throughput rates derived from it)
    /// varies between runs. Panicking chunks are retried and, failing that,
    /// abandoned (see [`EngineReport::aborted_chunks`]); deadline/quota/
    /// cancel limits skip trailing chunks (see
    /// [`EngineReport::skipped_chunks`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::Start`] when the configured start selection is
    /// invalid (same as the serial runner), [`EngineError::Partition`]
    /// when a configured chunk set does not fit the sweep's plan.
    pub fn run_all<A>(
        &self,
        inst: &Instance,
        algo: &A,
        config: &RunConfig,
    ) -> Result<EngineReport<A::Output>, EngineError>
    where
        A: QueryAlgorithm + Sync,
        A::Output: Send,
    {
        let sw = Stopwatch::start();
        let starts = config.starts.starts(inst.n())?;
        let run = run_sharded::<A, NoopTracer>(
            inst,
            algo,
            config,
            &starts,
            self.limits(&sw, starts.len())?,
            None,
            None,
        );
        Ok(self.finish_report(run, sw).0)
    }

    /// [`Engine::run_all`] with a [`MergeTracer`] aggregated across the
    /// sweep, returning the merged tracer next to the report.
    ///
    /// Each task folds its events into a fresh `T::default()`; the task
    /// partials are absorbed in chunk index order, then task order, so —
    /// like the cost summary — the merged tracer is bit-identical for every
    /// thread count.
    ///
    /// Per-chunk busy times (`ChunkTimed`, the sum of the chunk's task
    /// times) are measured only when `T::TIMED` is set, and are inherently
    /// schedule-dependent: mergeable tracers must quarantine them away from
    /// their deterministic state (see `SweepMetrics`' query/sched split in
    /// `vc-trace`).
    ///
    /// # Errors
    ///
    /// [`EngineError::Start`] when the configured start selection is
    /// invalid (same as the serial runner), [`EngineError::Partition`]
    /// when a configured chunk set does not fit the sweep's plan.
    pub fn run_all_traced<A, T>(
        &self,
        inst: &Instance,
        algo: &A,
        config: &RunConfig,
    ) -> Result<(EngineReport<A::Output>, T), EngineError>
    where
        A: QueryAlgorithm + Sync,
        A::Output: Send,
        T: MergeTracer,
    {
        let sw = Stopwatch::start();
        let starts = config.starts.starts(inst.n())?;
        let run = run_sharded::<A, T>(
            inst,
            algo,
            config,
            &starts,
            self.limits(&sw, starts.len())?,
            None,
            None,
        );
        Ok(self.finish_report(run, sw))
    }

    /// The per-sweep limit set shared by all entry points.
    ///
    /// # Errors
    ///
    /// [`RangeError::PlanMismatch`] when a configured chunk set names a
    /// different total than the sweep's plan — running the claim anyway
    /// would partition a sweep the coordinator never cut.
    fn limits<'a>(
        &'a self,
        sw: &'a Stopwatch,
        num_starts: usize,
    ) -> Result<SweepLimits<'a>, RangeError> {
        let plan = plan_chunks(num_starts);
        if let Some(set) = &self.set {
            set.check_plan(plan.num_chunks)?;
        }
        // The claim sequence is the configured set's chunks in ascending
        // order (the full plan when unrestricted), further clamped by the
        // chunk quota — which counts within the sequence so a fleet worker
        // can be "killed" after k of *its* chunks.
        let claims: Vec<usize> = match &self.set {
            Some(set) => set.chunks().collect(),
            None => (0..plan.num_chunks).collect(),
        };
        let claim_limit = self.quota.map_or(claims.len(), |q| q.min(claims.len()));
        let workers = self.threads.min(claims.len().max(1));
        Ok(SweepLimits {
            sw,
            deadline: self.deadline,
            plan,
            claims,
            claim_limit,
            set: self.set.as_ref(),
            cancel: self.cancel.as_ref(),
            workers,
        })
    }

    /// Wraps a sharded outcome into an [`EngineReport`].
    fn finish_report<O, T>(&self, run: ShardedRun<O, T>, sw: Stopwatch) -> (EngineReport<O>, T) {
        let degraded = !run.aborted.is_empty() || !run.skipped.is_empty();
        (
            EngineReport {
                summary: run.acc.finish(),
                total_queries: run.acc.total_queries(),
                report: run.report,
                threads: run.workers,
                elapsed: sw.elapsed(),
                aborted_chunks: run.aborted,
                skipped_chunks: run.skipped,
                out_of_range_chunks: run.out_of_range,
                degraded,
            },
            run.tracer,
        )
    }
}

/// The per-sweep limit set: deadline clock, chunk-claim sequence and
/// cancel flag, all checked at chunk-claim boundaries.
struct SweepLimits<'a> {
    sw: &'a Stopwatch,
    deadline: Option<Duration>,
    /// The size-adaptive chunk partition of the start set.
    plan: ChunkPlan,
    /// The chunk indices this run may execute, ascending: the configured
    /// set's chunks, or every planned chunk when unrestricted. Workers
    /// claim positions in this sequence.
    claims: Vec<usize>,
    /// First *position* in `claims` workers must not claim
    /// (quota-clamped).
    claim_limit: usize,
    /// The configured chunk set, for merge-time classification of
    /// unclaimed chunks (outside the set ≠ degraded).
    set: Option<&'a ChunkSet>,
    cancel: Option<&'a CancelFlag>,
    /// Worker threads after clamping to the claim-sequence length.
    workers: usize,
}

impl SweepLimits<'_> {
    /// Whether workers should stop claiming new chunks.
    fn should_stop(&self) -> bool {
        self.cancel.is_some_and(CancelFlag::is_cancelled)
            || self.deadline.is_some_and(|d| self.sw.elapsed() >= d)
    }
}

/// Largest start count per *task*, the engine's claim unit. Workers claim
/// tasks, not whole chunks, so one chunk holding most of a sweep's volume
/// (the heap-ordered top of a deep tree) is spread over every worker
/// instead of serializing the sweep; chunks stay the merge, limit and
/// checkpoint unit. Sweeps of at most `TARGET_CHUNKS × MIN_CHUNK_STARTS`
/// starts have one task per chunk.
const TASK_STARTS: usize = MIN_CHUNK_STARTS;

/// One claim unit: the start-index range `lo..hi` of chunk `chunk`.
#[derive(Clone, Copy)]
struct Task {
    chunk: usize,
    lo: usize,
    hi: usize,
}

/// The work a single task produces: `(root, output, record)` per start, in
/// start order, plus the task's cost partial, its tracer partial (a
/// [`NoopTracer`] on the untraced path) and its busy nanoseconds (zero
/// unless `T::TIMED`).
type TaskResult<O, T> = (Vec<(usize, O, ExecutionRecord)>, CostAccumulator, T, u64);

/// Per-task outcome: never claimed, executed, or abandoned after retries.
enum TaskSlot<O, T> {
    Unclaimed,
    Done(TaskResult<O, T>),
    Aborted,
}

/// A merged sharded sweep, before packaging into an [`EngineReport`].
struct ShardedRun<O, T> {
    report: RunReport<O>,
    acc: CostAccumulator,
    tracer: T,
    /// Chunks abandoned after exhausting panic retries, ascending.
    aborted: Vec<usize>,
    /// Chunks never executed (deadline/quota/cancel), ascending.
    skipped: Vec<usize>,
    /// Chunks outside the configured chunk set, ascending.
    out_of_range: Vec<usize>,
    /// `(chunk, records)` for every chunk executed by *this* run,
    /// ascending. Built only on the checkpoint path (`done` given); the
    /// plain sweeps leave it empty.
    chunk_records: Vec<(usize, Vec<ExecutionRecord>)>,
    workers: usize,
}

/// The sweep-wide immutable inputs every task attempt reads: the
/// instance, the algorithm, the run configuration and the resolved start
/// set. Shared by reference across all workers.
struct SweepInputs<'a, A> {
    inst: &'a Instance,
    algo: &'a A,
    config: &'a RunConfig,
    starts: &'a [usize],
}

/// Runs one task attempt. Split out of the worker loop so the
/// `catch_unwind` boundary (the only one in the workspace — see the
/// `centralized-panic-isolation` lint) wraps exactly one task's
/// executions.
fn run_task_attempt<A, T>(
    sweep: &SweepInputs<'_, A>,
    task: Task,
    attempt: u32,
    scratch: &mut ExecScratch,
) -> std::thread::Result<TaskResult<A::Output, T>>
where
    A: QueryAlgorithm + Sync,
    T: MergeTracer,
{
    let SweepInputs {
        inst,
        algo,
        config,
        starts,
    } = *sweep;
    // `AssertUnwindSafe` is sound here: on panic the scratch (the only
    // state witnessed across the boundary) is discarded and rebuilt, and
    // the task's partial results never leave the closure.
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut outs = Vec::with_capacity(task.hi - task.lo);
        let mut acc = CostAccumulator::default();
        // Each task folds its events into a fresh tracer, so absorbing
        // the partials in start order is schedule-independent. `T::TIMED`
        // is a const: the untraced NoopTracer instantiation performs no
        // clock reads.
        let mut tracer = T::default();
        if attempt > 0 {
            tracer.on(TraceEvent::ChunkRetried {
                chunk: task.chunk,
                attempt,
            });
        }
        let sw = if T::TIMED {
            Some(Stopwatch::start())
        } else {
            None
        };
        for &root in &starts[task.lo..task.hi] {
            let (out, rec) = run_from_traced(inst, algo, root, config, scratch, &mut tracer);
            acc.add(&rec);
            outs.push((root, out, rec));
        }
        let nanos = sw.map_or(0, |sw| sw.elapsed_nanos());
        (outs, acc, tracer, nanos)
    }))
}

/// Runs one task with panic isolation: a panicking attempt is retried
/// once from a fresh scratch; a task that panics on every attempt comes
/// back [`TaskSlot::Aborted`] and aborts its whole chunk at merge.
fn run_task<A, T>(
    sweep: &SweepInputs<'_, A>,
    task: Task,
    scratch: &mut ExecScratch,
) -> TaskSlot<A::Output, T>
where
    A: QueryAlgorithm + Sync,
    T: MergeTracer,
{
    for attempt in 0..MAX_CHUNK_ATTEMPTS {
        match run_task_attempt::<A, T>(sweep, task, attempt, scratch) {
            Ok(result) => return TaskSlot::Done(result),
            // A panicking attempt may leave the scratch mid-epoch; rebuild
            // it so the retry (and later tasks) start clean. The payload
            // was already reported by the panic hook — loud, never silent.
            Err(_payload) => *scratch = ExecScratch::new(),
        }
    }
    TaskSlot::Aborted
}

/// The claim side of one sweep, shared by every worker: the tasks in
/// claim order (chunk by chunk, then start by start), each chunk's task
/// index range, one result slot per task, the claim counter and — under a
/// live checkpoint — each chunk's count of unfinished tasks.
struct TaskBoard<O, T> {
    tasks: Vec<Task>,
    /// Chunk `c`'s task index range; empty for chunks outside the claim
    /// window, past the quota, or already checkpointed.
    chunk_tasks: Vec<Range<usize>>,
    slots: Vec<Mutex<TaskSlot<O, T>>>,
    next: AtomicUsize,
    /// Unfinished tasks per chunk; empty unless a live sink listens.
    pending: Vec<AtomicUsize>,
}

impl<O, T> TaskBoard<O, T> {
    /// Cuts the claim window of `limits` into tasks of at most
    /// [`TASK_STARTS`] starts. Chunks past the quota and chunks marked in
    /// `done` get no tasks.
    fn new(limits: &SweepLimits<'_>, num_starts: usize, done: Option<&[bool]>, live: bool) -> Self {
        let plan = limits.plan;
        let mut tasks = Vec::new();
        let mut chunk_tasks = vec![0..0; plan.num_chunks];
        for &c in &limits.claims[..limits.claim_limit] {
            if done.is_some_and(|d| d[c]) {
                continue;
            }
            let (lo, hi) = plan.bounds(c, num_starts);
            let first = tasks.len();
            tasks.extend((lo..hi).step_by(TASK_STARTS).map(|t| Task {
                chunk: c,
                lo: t,
                hi: hi.min(t + TASK_STARTS),
            }));
            chunk_tasks[c] = first..tasks.len();
        }
        let pending = if live {
            chunk_tasks
                .iter()
                .map(|r| AtomicUsize::new(r.len()))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            slots: tasks
                .iter()
                .map(|_| Mutex::new(TaskSlot::Unclaimed))
                .collect(),
            tasks,
            chunk_tasks,
            next: AtomicUsize::new(0),
            pending,
        }
    }

    /// Claims the next task, or `None` once the tasks run out or a limit
    /// stops the sweep.
    ///
    /// This is the chunk-claim boundary: deadlines and cancellation are
    /// checked before claiming a chunk's *first* task, and only then.
    /// Claims advance the counter one task at a time, so the claimed tasks
    /// always form a prefix that ends on a chunk boundary — every admitted
    /// chunk runs to completion and the skipped chunks are a suffix of the
    /// claim window.
    fn claim(&self, limits: &SweepLimits<'_>) -> Option<(usize, Task)> {
        let mut i = self.next.load(Ordering::Relaxed);
        loop {
            let task = *self.tasks.get(i)?;
            if i == self.chunk_tasks[task.chunk].start && limits.should_stop() {
                return None;
            }
            match self
                .next
                .compare_exchange_weak(i, i + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some((i, task)),
                Err(current) => i = current,
            }
        }
    }

    /// Stores the outcome of task `i`. Under a live sink, returns the
    /// records of the task's chunk, in start order, when this was the
    /// chunk's last task to finish and none of its tasks aborted — so
    /// each completed chunk is committed exactly once.
    fn finish(&self, i: usize, outcome: TaskSlot<O, T>) -> Option<Vec<ExecutionRecord>> {
        *lock_slot(&self.slots[i]) = outcome;
        let chunk = self.tasks[i].chunk;
        if self.pending.get(chunk)?.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        let mut records = Vec::new();
        for slot in &self.slots[self.chunk_tasks[chunk].clone()] {
            match &*lock_slot(slot) {
                TaskSlot::Done((outs, ..)) => {
                    records.extend(outs.iter().map(|(_, _, rec)| rec.clone()));
                }
                _ => return None,
            }
        }
        Some(records)
    }
}

/// Locks a task slot. Slots are only written by the worker that claimed
/// the task, outside `catch_unwind`, so poisoning cannot hide a result.
fn lock_slot<S>(slot: &Mutex<S>) -> MutexGuard<'_, S> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

fn run_sharded<A, T>(
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
    starts: &[usize],
    limits: SweepLimits<'_>,
    done: Option<&[bool]>,
    sink: Option<&LiveCheckpointSink>,
) -> ShardedRun<A::Output, T>
where
    A: QueryAlgorithm + Sync,
    A::Output: Send,
    T: MergeTracer,
{
    let plan = limits.plan;
    let num_chunks = plan.num_chunks;
    let workers = limits.workers;
    let sweep = SweepInputs {
        inst,
        algo,
        config,
        starts,
    };

    let board = TaskBoard::new(&limits, starts.len(), done, sink.is_some());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (board, limits, sweep) = (&board, &limits, &sweep);
                s.spawn(move || {
                    let mut scratch = ExecScratch::new();
                    while let Some((i, task)) = board.claim(limits) {
                        let outcome = run_task::<A, T>(sweep, task, &mut scratch);
                        if let (Some(sink), Some(records)) = (sink, board.finish(i, outcome)) {
                            // Live heartbeat: persist the completed chunk
                            // into the partial checkpoint so a supervisor
                            // can observe progress mid-run.
                            sink.commit(task.chunk, records);
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            // Workers only run task bodies inside `catch_unwind`; a join
            // error means the harness itself failed, which must stay fatal.
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    // Merge in chunk order, then task order: chunks partition `starts`
    // contiguously and tasks partition each chunk, so this reproduces the
    // serial runner's start-order records exactly (modulo the gaps left by
    // aborted/skipped/checkpointed chunks).
    let mut slots = board
        .slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner));
    let mut outputs = vec![None; inst.n()];
    let mut records = Vec::with_capacity(starts.len());
    let mut total = CostAccumulator::default();
    let mut merged_tracer = T::default();
    // The plan is announced once, on the merged tracer (the merge loop is
    // serial), so the event count and its arguments are thread-invariant.
    merged_tracer.on(TraceEvent::ChunkPlanned {
        chunks: num_chunks,
        chunk_size: plan.chunk_size,
    });
    if let Some(set) = limits.set {
        // One event per contiguous run, so a coordinator's one-run slice
        // announces itself with a single event.
        for &(lo, hi) in set.runs() {
            merged_tracer.on(TraceEvent::PartitionRestricted {
                lo,
                hi,
                total: set.total(),
            });
        }
    }
    let mut aborted = Vec::new();
    let mut skipped = Vec::new();
    let mut out_of_range = Vec::new();
    let mut chunk_records = Vec::new();
    for (c, range) in board.chunk_tasks.into_iter().enumerate() {
        let (lo, hi) = plan.bounds(c, starts.len());
        let claimed = TraceEvent::ChunkClaimed {
            chunk: c,
            starts: hi - lo,
        };
        let mut results = Vec::with_capacity(range.len());
        let (mut any_aborted, mut any_unclaimed) = (false, range.is_empty());
        for slot in slots.by_ref().take(range.len()) {
            match slot {
                TaskSlot::Done(result) => results.push(result),
                TaskSlot::Aborted => any_aborted = true,
                TaskSlot::Unclaimed => any_unclaimed = true,
            }
        }
        if any_aborted {
            // The aborted task's attempt tracers died with its attempts
            // and the chunk's other tasks are discarded; account for the
            // claim and the abort on the merged tracer, still in chunk
            // order.
            merged_tracer.on(claimed);
            merged_tracer.on(TraceEvent::ChunkAborted { chunk: c });
            aborted.push(c);
        } else if !any_unclaimed {
            // Claim and busy time are announced at merge, once per chunk,
            // so the event stream is the same for every task schedule.
            merged_tracer.on(claimed);
            let first = records.len();
            let mut nanos = 0u64;
            for (outs, acc, tracer, busy) in results {
                total.merge(&acc);
                merged_tracer.absorb(tracer);
                nanos = nanos.saturating_add(busy);
                for (root, out, rec) in outs {
                    outputs[root] = Some(out);
                    records.push(rec);
                }
            }
            if T::TIMED {
                merged_tracer.on(TraceEvent::ChunkTimed { chunk: c, nanos });
            }
            merged_tracer.on(TraceEvent::ChunkMerged { chunk: c });
            if done.is_some() {
                chunk_records.push((c, records[first..].to_vec()));
            }
        } else if done.is_some_and(|d| d[c]) {
            // Checkpointed by an earlier run: nothing to merge.
        } else if limits.set.is_some_and(|s| !s.contains(c)) {
            // Another partition's work, deliberately left alone — not
            // degradation.
            out_of_range.push(c);
        } else {
            // Never admitted (deadline/quota/cancel): any tasks that did
            // run are discarded, so no report or checkpoint holds half a
            // chunk.
            skipped.push(c);
        }
    }
    ShardedRun {
        report: RunReport { outputs, records },
        acc: total,
        tracer: merged_tracer,
        aborted,
        skipped,
        out_of_range,
        chunk_records,
        workers,
    }
}

/// The result of a sharded sweep: the serial-identical [`RunReport`] plus
/// aggregate costs, wall-clock throughput and the degradation ledgers.
#[derive(Clone, Debug)]
pub struct EngineReport<O> {
    /// Per-node outputs and per-execution records, bit-identical to the
    /// serial runner's report (for the executed chunks).
    pub report: RunReport<O>,
    /// Aggregated costs (merged from per-chunk integral partials; identical
    /// to `report.summary()` for every thread count).
    pub summary: CostSummary,
    /// Worker threads actually used (after clamping to the chunk count).
    pub threads: usize,
    /// Wall-clock duration of the sweep. The only field that varies between
    /// runs.
    pub elapsed: Duration,
    /// Total queries across all executions.
    pub total_queries: u128,
    /// Chunks abandoned after exhausting their panic retries (ascending).
    /// Deterministic and thread-count-invariant: panics are a function of
    /// the chunk's inputs, not of scheduling.
    pub aborted_chunks: Vec<usize>,
    /// Chunks never executed because a deadline, chunk quota or cancel
    /// flag stopped the sweep first (ascending). Always a suffix of the
    /// claim window.
    pub skipped_chunks: Vec<usize>,
    /// Chunks outside the configured [`ChunkSet`] (ascending; empty for
    /// unrestricted runs). These belong to *other* partitions of the same
    /// sweep and deliberately carry no outputs here, so — unlike aborts
    /// and skips — they do not mark the report degraded.
    pub out_of_range_chunks: Vec<usize>,
    /// Whether any chunk was aborted or skipped. A degraded report's
    /// summary covers only the executed chunks — partial but valid.
    pub degraded: bool,
}

impl<O> EngineReport<O> {
    /// Executions per wall-clock second.
    pub fn starts_per_sec(&self) -> f64 {
        rate(self.report.records.len() as f64, self.elapsed)
    }

    /// Oracle queries per wall-clock second.
    pub fn queries_per_sec(&self) -> f64 {
        rate(self.total_queries as f64, self.elapsed)
    }
}

fn rate(count: f64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_graph::{gen, Color};
    use vc_model::oracle::{follow, Oracle, QueryError};
    use vc_model::run::{StartError, StartSelection};
    use vc_model::Budget;
    use vc_trace::SweepMetrics;

    /// Toy algorithm: walk left children until none remains.
    struct WalkLeft;

    impl QueryAlgorithm for WalkLeft {
        type Output = u32;

        fn name(&self) -> &'static str {
            "walk-left"
        }

        fn fallback(&self) -> u32 {
            u32::MAX
        }

        fn run(&self, oracle: &mut dyn Oracle) -> Result<u32, QueryError> {
            let mut cur = oracle.root();
            let mut steps = 0;
            while let Some(next) = follow(oracle, &cur, cur.label.left_child)? {
                cur = next;
                steps += 1;
            }
            Ok(steps)
        }
    }

    /// Every test sweep here is small enough (≲ 8192 starts) that the
    /// planner yields the minimum chunk size, so chunk indices can be
    /// computed as `root / CHUNK` like the historical fixed partition.
    const CHUNK: usize = MIN_CHUNK_STARTS;

    /// [`WalkLeft`] that panics when started from a root inside a poisoned
    /// chunk — deterministically, on every attempt.
    struct PanicOnChunk {
        chunk: usize,
    }

    impl QueryAlgorithm for PanicOnChunk {
        type Output = u32;

        fn fallback(&self) -> u32 {
            u32::MAX
        }

        fn run(&self, oracle: &mut dyn Oracle) -> Result<u32, QueryError> {
            let root = oracle.root().node;
            assert!(
                root / CHUNK != self.chunk,
                "injected panic in chunk {}",
                self.chunk
            );
            WalkLeft.run(oracle)
        }
    }

    /// A sweep whose chunks are claimed as several tasks: n = 32 767
    /// plans 128 chunks of [`BIG_CHUNK`] starts, i.e. 4 tasks per chunk.
    fn multi_task_tree() -> Instance {
        gen::complete_binary_tree(14, Color::R, Color::B)
    }

    const BIG_CHUNK: usize = 256;

    /// [`WalkLeft`] that panics on every run from `root`.
    struct PanicAtRoot {
        root: usize,
    }

    impl QueryAlgorithm for PanicAtRoot {
        type Output = u32;

        fn fallback(&self) -> u32 {
            u32::MAX
        }

        fn run(&self, oracle: &mut dyn Oracle) -> Result<u32, QueryError> {
            assert!(oracle.root().node != self.root, "injected panic");
            WalkLeft.run(oracle)
        }
    }

    fn assert_equal_reports(a: &EngineReport<u32>, b: &RunReport<u32>) {
        assert_eq!(a.report.outputs, b.outputs);
        assert_eq!(a.report.records, b.records);
        assert_eq!(a.summary, b.summary());
        assert_eq!(a.report.truncated(), b.truncated());
        assert!(!a.degraded);
        assert!(a.aborted_chunks.is_empty() && a.skipped_chunks.is_empty());
    }

    #[test]
    fn one_thread_equals_serial_runner() {
        let inst = gen::random_full_binary_tree(301, 5);
        let config = RunConfig::default();
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        let engine = Engine::with_threads(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        assert_eq!(engine.threads, 1);
        assert_equal_reports(&engine, &serial);
    }

    #[test]
    fn many_threads_equal_serial_runner() {
        let inst = gen::random_full_binary_tree(777, 9);
        let config = RunConfig::default();
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        for threads in [2, 3, 8] {
            let engine = Engine::with_threads(threads)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            assert_equal_reports(&engine, &serial);
        }
    }

    #[test]
    fn truncation_is_thread_count_independent() {
        let inst = gen::complete_binary_tree(7, Color::R, Color::B);
        let config = RunConfig {
            budget: Budget::volume(3),
            ..RunConfig::default()
        };
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        assert!(serial.truncated() > 0);
        for threads in [1, 4] {
            let engine = Engine::with_threads(threads)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            assert_equal_reports(&engine, &serial);
        }
    }

    #[test]
    fn sampled_starts_merge_identically() {
        let inst = gen::random_full_binary_tree(900, 2);
        let config = RunConfig {
            starts: StartSelection::Sample {
                count: 300,
                seed: 42,
            },
            ..RunConfig::default()
        };
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        let engine = Engine::with_threads(8)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        assert_equal_reports(&engine, &serial);
    }

    #[test]
    fn start_errors_propagate() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let config = RunConfig {
            starts: StartSelection::Sample { count: 0, seed: 0 },
            ..RunConfig::default()
        };
        let err = Engine::with_threads(4)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap_err();
        assert_eq!(err, EngineError::Start(StartError::EmptySample));
    }

    #[test]
    fn traced_sweep_matches_untraced_and_is_thread_invariant() {
        let inst = gen::random_full_binary_tree(777, 9);
        let config = RunConfig::default();
        let untraced = Engine::with_threads(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let (r1, m1) = Engine::with_threads(1)
            .run_all_traced::<_, SweepMetrics>(&inst, &WalkLeft, &config)
            .unwrap();
        assert_equal_reports(&untraced, &r1.report);
        for threads in [2, 8] {
            let (r, m) = Engine::with_threads(threads)
                .run_all_traced::<_, SweepMetrics>(&inst, &WalkLeft, &config)
                .unwrap();
            assert_equal_reports(&untraced, &r.report);
            assert_eq!(
                m.query, m1.query,
                "deterministic metrics must not depend on the thread count"
            );
        }
        // The metrics cross-check the cost summary.
        assert_eq!(m1.query.executions, untraced.summary.runs as u64);
        assert_eq!(m1.query.volume.max(), untraced.summary.max_volume as u64);
        assert_eq!(m1.query.queries_per_start.sum(), untraced.total_queries);
        // Chunk counts are thread-count-invariant too.
        let chunks = inst.n().div_ceil(CHUNK) as u64;
        assert_eq!(m1.query.chunks_claimed, chunks);
        assert_eq!(m1.query.chunks_merged, chunks);
        assert_eq!(m1.query.chunks_retried, 0);
        assert_eq!(m1.query.chunks_aborted, 0);
        // The plan is announced once per sweep and its histogram covers
        // every start exactly once, regardless of thread count.
        assert_eq!(m1.query.chunks_planned, 1);
        assert_eq!(m1.query.planned_chunk_size, CHUNK as u64);
        assert_eq!(m1.query.chunk_starts.count(), chunks);
        assert_eq!(m1.query.chunk_starts.sum(), inst.n() as u128);
    }

    #[test]
    fn traced_start_errors_propagate() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let config = RunConfig {
            starts: StartSelection::Sample { count: 0, seed: 0 },
            ..RunConfig::default()
        };
        let err = Engine::with_threads(2)
            .run_all_traced::<_, SweepMetrics>(&inst, &WalkLeft, &config)
            .unwrap_err();
        assert_eq!(err, EngineError::Start(StartError::EmptySample));
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(Engine::with_threads(0).threads(), 1);
        assert!(Engine::from_env().unwrap().threads() >= 1);
        // A tiny sweep cannot use more workers than chunks.
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let engine = Engine::with_threads(16)
            .run_all(&inst, &WalkLeft, &RunConfig::default())
            .unwrap();
        assert_eq!(engine.threads, 1);
        assert!(engine.starts_per_sec() >= 0.0);
        assert!(engine.queries_per_sec() >= 0.0);
    }

    #[test]
    fn panicking_chunk_is_aborted_and_the_rest_survives() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let algo = PanicOnChunk { chunk: 2 };
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let mut per_thread = Vec::new();
        for threads in [1, 2, 8] {
            let report = Engine::with_threads(threads)
                .run_all(&inst, &algo, &config)
                .unwrap();
            assert_eq!(report.aborted_chunks, vec![2]);
            assert!(report.skipped_chunks.is_empty());
            assert!(report.degraded);
            // Surviving starts are bit-identical to the clean run.
            let lo = 2 * CHUNK;
            let hi = inst.n().min(lo + CHUNK);
            for v in 0..inst.n() {
                if (lo..hi).contains(&v) {
                    assert_eq!(report.report.outputs[v], None);
                } else {
                    assert_eq!(report.report.outputs[v], clean.report.outputs[v]);
                }
            }
            assert_eq!(report.summary.runs, inst.n() - (hi - lo));
            per_thread.push((report.summary.clone(), report.report.records.clone()));
        }
        // The degraded summary itself is thread-count-invariant.
        assert!(per_thread.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn aborted_chunks_are_counted_by_the_tracer() {
        let inst = gen::random_full_binary_tree(333, 5);
        let config = RunConfig::default();
        let algo = PanicOnChunk { chunk: 1 };
        let mut metrics = Vec::new();
        for threads in [1, 4] {
            let (report, m) = Engine::with_threads(threads)
                .run_all_traced::<_, SweepMetrics>(&inst, &algo, &config)
                .unwrap();
            assert_eq!(report.aborted_chunks, vec![1]);
            // Both attempts panicked; the merged tracer still accounts for
            // the claim and the abort exactly once, in chunk order.
            let chunks = inst.n().div_ceil(CHUNK) as u64;
            assert_eq!(m.query.chunks_claimed, chunks);
            assert_eq!(m.query.chunks_merged, chunks - 1);
            assert_eq!(m.query.chunks_aborted, 1);
            metrics.push(m.query.clone());
        }
        assert_eq!(metrics[0], metrics[1]);
    }

    #[test]
    fn transient_panic_is_retried_and_recovers() {
        use std::sync::atomic::AtomicBool;

        /// Panics on the first visit to chunk 0, then behaves — the retry
        /// must produce a complete, clean report.
        struct FlakyOnce {
            tripped: AtomicBool,
        }

        impl QueryAlgorithm for FlakyOnce {
            type Output = u32;

            fn fallback(&self) -> u32 {
                u32::MAX
            }

            fn run(&self, oracle: &mut dyn Oracle) -> Result<u32, QueryError> {
                let root = oracle.root().node;
                if root / CHUNK == 0 && !self.tripped.swap(true, Ordering::Relaxed) {
                    panic!("transient injected panic");
                }
                WalkLeft.run(oracle)
            }
        }

        let inst = gen::random_full_binary_tree(150, 3);
        let config = RunConfig::default();
        let clean = Engine::with_threads(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let algo = FlakyOnce {
            tripped: AtomicBool::new(false),
        };
        let (report, m) = Engine::with_threads(1)
            .run_all_traced::<_, SweepMetrics>(&inst, &algo, &config)
            .unwrap();
        assert!(!report.degraded);
        assert_eq!(report.report.outputs, clean.report.outputs);
        assert_eq!(report.report.records, clean.report.records);
        assert_eq!(report.summary, clean.summary);
        assert_eq!(m.query.chunks_retried, 1);
        assert_eq!(m.query.chunks_aborted, 0);
    }

    #[test]
    fn chunk_quota_executes_exactly_the_prefix() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        for threads in [1, 2, 8] {
            let report = Engine::with_threads(threads)
                .with_chunk_quota(3)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            assert!(report.degraded);
            assert!(report.aborted_chunks.is_empty());
            assert_eq!(report.skipped_chunks, vec![3, 4, 5]);
            assert_eq!(report.report.records, clean.report.records[..3 * CHUNK]);
            assert_eq!(report.summary.runs, 3 * CHUNK);
        }
    }

    #[test]
    fn chunk_range_executes_exactly_the_slice() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        for threads in [1, 2, 8] {
            let report = Engine::with_threads(threads)
                .with_chunk_set(ChunkSet::parse("2..4/6").unwrap())
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            // A finished partition is healthy: nothing aborted, nothing
            // skipped, the out-of-range chunks are the other partitions'.
            assert!(!report.degraded, "thread count {threads}");
            assert!(report.aborted_chunks.is_empty());
            assert!(report.skipped_chunks.is_empty());
            assert_eq!(report.out_of_range_chunks, vec![0, 1, 4, 5]);
            assert_eq!(
                report.report.records,
                clean.report.records[2 * CHUNK..4 * CHUNK]
            );
            for v in 0..inst.n() {
                if (2 * CHUNK..4 * CHUNK).contains(&v) {
                    assert_eq!(report.report.outputs[v], clean.report.outputs[v]);
                } else {
                    assert_eq!(report.report.outputs[v], None);
                }
            }
            assert_eq!(report.summary.runs, 2 * CHUNK);
        }
    }

    #[test]
    fn quota_counts_within_the_chunk_range() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let report = Engine::with_threads(2)
            .with_chunk_set(ChunkSet::parse("2..5/6").unwrap())
            .with_chunk_quota(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        // One chunk of the slice ran; the rest of the slice was skipped
        // (degradation), everything outside is merely out of range.
        assert!(report.degraded);
        assert_eq!(report.skipped_chunks, vec![3, 4]);
        assert_eq!(report.out_of_range_chunks, vec![0, 1, 5]);
        assert_eq!(
            report.report.records,
            clean.report.records[2 * CHUNK..3 * CHUNK]
        );
    }

    #[test]
    fn chunk_set_executes_exactly_the_non_contiguous_claim() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let set = ChunkSet::parse("0..2,4/6").unwrap();
        for threads in [1, 2, 8] {
            let report = Engine::with_threads(threads)
                .with_chunk_set(set.clone())
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            // A finished reassignment claim is healthy; the gap chunks
            // belong to other workers.
            assert!(!report.degraded, "thread count {threads}");
            assert!(report.aborted_chunks.is_empty());
            assert!(report.skipped_chunks.is_empty());
            assert_eq!(report.out_of_range_chunks, vec![2, 3, 5]);
            // Records are the concatenation of the set's chunks in
            // ascending chunk order, exactly as the splice expects.
            let mut expect = clean.report.records[..2 * CHUNK].to_vec();
            expect.extend_from_slice(&clean.report.records[4 * CHUNK..5 * CHUNK]);
            assert_eq!(report.report.records, expect);
            assert_eq!(report.summary.runs, 3 * CHUNK);
        }
    }

    #[test]
    fn quota_counts_within_the_chunk_set() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let report = Engine::with_threads(2)
            .with_chunk_set(ChunkSet::parse("1,3..5/6").unwrap())
            .with_chunk_quota(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        // Quota 2 executes the set's first two chunks (1 and 3); the
        // rest of the set is skipped (degradation), everything outside
        // is merely out of range.
        assert!(report.degraded);
        assert_eq!(report.skipped_chunks, vec![4]);
        assert_eq!(report.out_of_range_chunks, vec![0, 2, 5]);
        let mut expect = clean.report.records[CHUNK..2 * CHUNK].to_vec();
        expect.extend_from_slice(&clean.report.records[3 * CHUNK..4 * CHUNK]);
        assert_eq!(report.report.records, expect);
    }

    #[test]
    fn mismatched_chunk_range_is_refused() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let err = Engine::with_threads(2)
            .with_chunk_set(ChunkSet::parse("0..4/8").unwrap())
            .run_all(&inst, &WalkLeft, &RunConfig::default())
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Partition(partition::RangeError::PlanMismatch {
                total: 8,
                num_chunks: 6
            })
        );
    }

    #[test]
    fn range_partitions_merge_to_the_serial_sweep() {
        let inst = gen::random_full_binary_tree(777, 9); // 13 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let total = plan_chunks(inst.n()).num_chunks;
        let mut merged: Vec<ExecutionRecord> = Vec::new();
        for set in ChunkSet::split(total, 4) {
            let part = Engine::with_threads(3)
                .with_chunk_set(set)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            merged.extend(part.report.records);
        }
        // Contiguous ranges in order: concatenation is the serial sweep.
        assert_eq!(merged, clean.report.records);
    }

    #[test]
    fn panic_in_a_later_task_aborts_exactly_its_chunk() {
        let inst = multi_task_tree();
        let num_chunks = plan_chunks(inst.n()).num_chunks;
        assert_eq!(plan_chunks(inst.n()).chunk_size, BIG_CHUNK);
        let config = RunConfig::default();
        let clean = Engine::with_threads(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        // Chunk 2 covers starts 512..768; its third task is 640..704.
        let algo = PanicAtRoot { root: 650 };
        let (lo, hi) = (2 * BIG_CHUNK, 3 * BIG_CHUNK);
        let mut per_thread = Vec::new();
        for threads in [1, 2, 8] {
            let (report, m) = Engine::with_threads(threads)
                .run_all_traced::<_, SweepMetrics>(&inst, &algo, &config)
                .unwrap();
            assert_eq!(report.aborted_chunks, vec![2], "thread count {threads}");
            assert!(report.skipped_chunks.is_empty());
            assert!(report.degraded);
            // The whole chunk is dropped, not just the panicking task.
            for v in 0..inst.n() {
                if (lo..hi).contains(&v) {
                    assert_eq!(report.report.outputs[v], None);
                } else {
                    assert_eq!(report.report.outputs[v], clean.report.outputs[v]);
                }
            }
            let mut expect = clean.report.records[..lo].to_vec();
            expect.extend_from_slice(&clean.report.records[hi..]);
            assert_eq!(report.report.records, expect);
            assert_eq!(report.summary.runs, inst.n() - BIG_CHUNK);
            // Chunk events stay once per chunk: the aborted task's attempt
            // tracers die with it, and the chunk is claimed and aborted
            // once on the merged tracer.
            assert_eq!(m.query.chunks_claimed, num_chunks as u64);
            assert_eq!(m.query.chunks_merged, num_chunks as u64 - 1);
            assert_eq!(m.query.chunks_aborted, 1);
            assert_eq!(m.query.chunks_retried, 0);
            assert_eq!(m.sched.chunks_timed, num_chunks as u64 - 1);
            per_thread.push((report.summary, report.report.records, m.query));
        }
        assert!(per_thread.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn chunk_quota_on_multi_task_chunks_completes_whole_chunks() {
        let inst = multi_task_tree();
        let num_chunks = plan_chunks(inst.n()).num_chunks;
        let config = RunConfig::default();
        let clean = Engine::with_threads(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        for threads in [1, 2, 8] {
            let report = Engine::with_threads(threads)
                .with_chunk_quota(5)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            assert!(report.degraded);
            assert!(report.aborted_chunks.is_empty());
            assert_eq!(report.skipped_chunks, (5..num_chunks).collect::<Vec<_>>());
            assert_eq!(report.report.records, clean.report.records[..5 * BIG_CHUNK]);
            assert_eq!(report.summary.runs, 5 * BIG_CHUNK);
        }
    }

    #[test]
    fn cancel_inside_a_multi_task_chunk_skips_a_suffix() {
        /// [`WalkLeft`] that trips a cancel flag when started from `root`.
        struct CancelAtRoot {
            root: usize,
            flag: CancelFlag,
        }

        impl QueryAlgorithm for CancelAtRoot {
            type Output = u32;

            fn fallback(&self) -> u32 {
                u32::MAX
            }

            fn run(&self, oracle: &mut dyn Oracle) -> Result<u32, QueryError> {
                if oracle.root().node == self.root {
                    self.flag.cancel();
                }
                WalkLeft.run(oracle)
            }
        }

        let inst = multi_task_tree();
        let num_chunks = plan_chunks(inst.n()).num_chunks;
        let config = RunConfig::default();
        let clean = Engine::with_threads(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        for threads in [1, 2, 8] {
            let flag = CancelFlag::new();
            // Start 1 400 lies in the second task of chunk 5.
            let algo = CancelAtRoot {
                root: 5 * BIG_CHUNK + 120,
                flag: flag.clone(),
            };
            let report = Engine::with_threads(threads)
                .with_cancel_flag(flag)
                .run_all(&inst, &algo, &config)
                .unwrap();
            assert!(report.degraded);
            assert!(report.aborted_chunks.is_empty());
            // The tripping chunk was admitted, so it finishes; what
            // follows is skipped as one suffix, with no half chunk.
            let first_skipped = report.skipped_chunks[0];
            assert!(first_skipped > 5, "thread count {threads}");
            if threads == 1 {
                assert_eq!(first_skipped, 6);
            }
            assert_eq!(
                report.skipped_chunks,
                (first_skipped..num_chunks).collect::<Vec<_>>()
            );
            assert_eq!(
                report.report.records,
                clean.report.records[..first_skipped * BIG_CHUNK]
            );
            for v in first_skipped * BIG_CHUNK..inst.n() {
                assert_eq!(report.report.outputs[v], None);
            }
        }
    }

    #[test]
    fn zero_deadline_yields_an_empty_degraded_report() {
        let inst = gen::random_full_binary_tree(200, 5);
        let config = RunConfig::default();
        let report = Engine::with_threads(2)
            .with_deadline(Duration::ZERO)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        assert!(report.degraded);
        assert_eq!(report.skipped_chunks.len(), inst.n().div_ceil(CHUNK));
        assert_eq!(report.summary.runs, 0);
        assert!(report.report.records.is_empty());
        assert!(report.report.outputs.iter().all(Option::is_none));
    }

    #[test]
    fn pre_cancelled_flag_stops_before_any_chunk() {
        let inst = gen::random_full_binary_tree(200, 5);
        let flag = CancelFlag::new();
        flag.cancel();
        assert!(flag.is_cancelled());
        let report = Engine::with_threads(4)
            .with_cancel_flag(flag)
            .run_all(&inst, &WalkLeft, &RunConfig::default())
            .unwrap();
        assert!(report.degraded);
        assert_eq!(report.summary.runs, 0);
        assert_eq!(report.skipped_chunks.len(), inst.n().div_ceil(CHUNK));
    }

    #[test]
    fn deadline_env_is_parsed() {
        let engine = Engine::with_threads(2).with_deadline(Duration::from_millis(5));
        assert_eq!(engine.deadline, Some(Duration::from_millis(5)));
        assert_eq!(Engine::with_threads(2).deadline, None);
    }

    // The env variables themselves are process-global (mutating them
    // races parallel tests), so the strict parsing is exercised through
    // the pure helpers `from_env` delegates to.

    #[test]
    fn thread_env_values_parse_strictly() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 2 "), Ok(2));
        let zero = parse_threads("0").unwrap_err();
        assert_eq!(zero.var, THREADS_ENV);
        assert!(zero.to_string().contains("0 workers"), "{zero}");
        let garbage = parse_threads("abc").unwrap_err();
        assert_eq!(garbage.var, THREADS_ENV);
        assert!(garbage.to_string().contains("abc"), "{garbage}");
        assert!(parse_threads("-3").is_err());
    }

    #[test]
    fn planner_keeps_small_sweeps_on_the_historical_chunk_size() {
        // Every sweep of at most TARGET_CHUNKS * MIN_CHUNK_STARTS starts
        // partitions exactly like the fixed CHUNK = 64 engine did, so old
        // sweep identities and checkpoints are preserved.
        for n in [1, 63, 64, 65, 301, 777, 1201, 8192] {
            let plan = plan_chunks(n);
            assert_eq!(plan.chunk_size, MIN_CHUNK_STARTS, "n = {n}");
            assert_eq!(plan.num_chunks, n.div_ceil(MIN_CHUNK_STARTS), "n = {n}");
        }
    }

    #[test]
    fn planner_scales_and_clamps_on_large_sweeps() {
        // Above the small-sweep regime the chunk size grows toward
        // TARGET_CHUNKS chunks …
        let plan = plan_chunks(100_000);
        assert_eq!(plan.chunk_size, 782);
        assert_eq!(plan.num_chunks, 128);
        // … until the per-chunk latency cap kicks in.
        let plan = plan_chunks(1_000_000);
        assert_eq!(plan.chunk_size, MAX_CHUNK_STARTS);
        assert_eq!(plan.num_chunks, 245);
        // Degenerate inputs stay sane: zero starts need zero chunks.
        assert_eq!(plan_chunks(0).num_chunks, 0);
    }

    #[test]
    fn planner_chunks_cover_the_start_set_exactly() {
        for n in [1, 64, 65, 8193, 100_000, 1_000_000] {
            let plan = plan_chunks(n);
            let mut next = 0;
            for c in 0..plan.num_chunks {
                let (lo, hi) = plan.bounds(c, n);
                assert_eq!(lo, next, "chunk {c} of n = {n} leaves a gap");
                assert!(hi > lo, "chunk {c} of n = {n} is empty");
                assert!(hi - lo <= plan.chunk_size);
                next = hi;
            }
            assert_eq!(next, n, "chunks must cover all {n} starts");
        }
    }

    #[test]
    fn deadline_env_values_parse_strictly() {
        assert_eq!(parse_deadline_ms("250"), Ok(Duration::from_millis(250)));
        assert_eq!(parse_deadline_ms("0"), Ok(Duration::ZERO));
        let suffixed = parse_deadline_ms("1s").unwrap_err();
        assert_eq!(suffixed.var, DEADLINE_ENV);
        assert!(suffixed.to_string().contains("1s"), "{suffixed}");
        assert!(parse_deadline_ms("fast").is_err());
    }
}
