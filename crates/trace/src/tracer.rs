//! The [`Tracer`] hook trait and its stock implementations.
//!
//! `vc-model` threads a `Tracer` through every execution and `vc-engine`
//! through every sweep chunk. All hooks have empty default bodies, so a
//! tracer implements only what it cares about — and the zero-sized
//! [`NoopTracer`] implements nothing at all, letting the untraced hot
//! path monomorphize every hook call away.

use crate::event::TraceEvent;

/// Receiver of the typed execution/sweep events of [`TraceEvent`].
///
/// Every hook defaults to a no-op; the compiler inlines empty bodies out
/// of the monomorphized execution loop, which is what makes tracing free
/// when disabled. Hooks take primitive arguments (rather than a
/// pre-built [`TraceEvent`]) so the disabled path never constructs an
/// event value either.
pub trait Tracer {
    /// The algorithm issued `query(from, port)` (answered or refused).
    #[inline]
    fn query_issued(&mut self, from: usize, port: u8) {
        let _ = (from, port);
    }

    /// A query admitted `node` into `V_v` at discovery depth `depth`.
    #[inline]
    fn node_revealed(&mut self, node: usize, depth: u32) {
        let _ = (node, depth);
    }

    /// The execution's maximum discovery depth increased to `depth`.
    #[inline]
    fn frontier_advanced(&mut self, depth: u32) {
        let _ = depth;
    }

    /// The execution rooted at `root` finished with the given final costs.
    #[inline]
    fn answer_finalized(
        &mut self,
        root: usize,
        volume: usize,
        distance_upper: u32,
        queries: u64,
        completed: bool,
    ) {
        let _ = (root, volume, distance_upper, queries, completed);
    }

    /// The engine planned the sweep's chunk partition: `chunks` chunks of
    /// (at most) `chunk_size` starts each. Emitted exactly once per sweep,
    /// on the merged tracer, and derived only from the start count — so
    /// like the other chunk events it is thread-count-invariant.
    #[inline]
    fn chunk_planned(&mut self, chunks: usize, chunk_size: usize) {
        let _ = (chunks, chunk_size);
    }

    /// The sweep was restricted to the chunk slice `lo..hi` of a full
    /// plan of `total` chunks (fleet execution). Emitted once per sweep
    /// on the merged tracer, right after [`Tracer::chunk_planned`], and
    /// only for range-restricted runs — an unpartitioned sweep emits
    /// nothing, so its metrics are unchanged by the fleet feature.
    #[inline]
    fn partition_restricted(&mut self, lo: usize, hi: usize, total: usize) {
        let _ = (lo, hi, total);
    }

    /// The engine ran chunk `chunk` holding `starts` start nodes. Emitted
    /// at merge, once per executed or aborted chunk and in chunk order,
    /// however many tasks (the engine's claim unit) the chunk was split
    /// into and whichever workers ran them.
    #[inline]
    fn chunk_claimed(&mut self, chunk: usize, starts: usize) {
        let _ = (chunk, starts);
    }

    /// Chunk `chunk` kept workers busy for `nanos` wall-clock nanoseconds:
    /// the sum of its tasks' busy times. Emitted at merge, once per
    /// completed chunk. Schedule-dependent, so mergeable tracers keep it
    /// out of their deterministic state (`SweepMetrics` quarantines it in
    /// `SchedStats`).
    #[inline]
    fn chunk_timed(&mut self, chunk: usize, nanos: u64) {
        let _ = (chunk, nanos);
    }

    /// The merge loop absorbed chunk `chunk` (invoked in chunk order).
    #[inline]
    fn chunk_merged(&mut self, chunk: usize) {
        let _ = chunk;
    }

    /// A task of chunk `chunk` panicked and is being re-run (`attempt` = 1
    /// for the first retry). Retries are deterministic: a task that panics
    /// once panics on every run, so this hook fires
    /// thread-count-invariantly.
    #[inline]
    fn chunk_retried(&mut self, chunk: usize, attempt: u32) {
        let _ = (chunk, attempt);
    }

    /// Chunk `chunk` exhausted its retries and was abandoned; its starts
    /// carry no outputs/records in the merged report.
    #[inline]
    fn chunk_aborted(&mut self, chunk: usize) {
        let _ = chunk;
    }

    /// A fleet supervisor declared worker `worker` dead with
    /// `completed` of its `assigned` chunks done (no heartbeat progress
    /// within the liveness deadline, or a process exit). Emitted by
    /// `vc-fleet`, never by the engine.
    #[inline]
    fn worker_suspected(&mut self, worker: usize, completed: usize, assigned: usize) {
        let _ = (worker, completed, assigned);
    }

    /// A fleet supervisor reassigned chunk `chunk` to a new launch;
    /// `attempt` launches have now been asked to run it.
    #[inline]
    fn chunk_reassigned(&mut self, chunk: usize, attempt: u32) {
        let _ = (chunk, attempt);
    }

    /// Partial checkpoints were merged (`splice_partial`): `merged`
    /// chunks present, `missing` still absent.
    #[inline]
    fn partial_splice(&mut self, merged: usize, missing: usize) {
        let _ = (merged, missing);
    }

    /// A sweep service admitted cache-miss job `job` into its run queue,
    /// which now holds `queue_depth` waiting jobs. Emitted by
    /// `vc-serve`, never by the engine.
    #[inline]
    fn job_admitted(&mut self, job: u64, queue_depth: usize) {
        let _ = (job, queue_depth);
    }

    /// A submitted sweep resolved to a stored result: job `job` is a
    /// cache hit and schedules no execution.
    #[inline]
    fn cache_hit(&mut self, job: u64) {
        let _ = job;
    }

    /// Running job `job` was preempted at a chunk boundary with
    /// `completed_chunks` chunks done; its checkpoint is parked.
    #[inline]
    fn job_preempted(&mut self, job: u64, completed_chunks: usize) {
        let _ = (job, completed_chunks);
    }

    /// Parked job `job` resumed execution with `completed_chunks` chunks
    /// already complete.
    #[inline]
    fn job_resumed(&mut self, job: u64, completed_chunks: usize) {
        let _ = (job, completed_chunks);
    }
}

/// Forward hooks through mutable references, so a long-lived tracer can
/// be lent to each execution of a sweep (`run_from_traced` takes the
/// tracer by value; passing `&mut metrics` keeps ownership with the
/// sweep loop).
impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline]
    fn query_issued(&mut self, from: usize, port: u8) {
        (**self).query_issued(from, port);
    }

    #[inline]
    fn node_revealed(&mut self, node: usize, depth: u32) {
        (**self).node_revealed(node, depth);
    }

    #[inline]
    fn frontier_advanced(&mut self, depth: u32) {
        (**self).frontier_advanced(depth);
    }

    #[inline]
    fn answer_finalized(
        &mut self,
        root: usize,
        volume: usize,
        distance_upper: u32,
        queries: u64,
        completed: bool,
    ) {
        (**self).answer_finalized(root, volume, distance_upper, queries, completed);
    }

    #[inline]
    fn chunk_planned(&mut self, chunks: usize, chunk_size: usize) {
        (**self).chunk_planned(chunks, chunk_size);
    }

    #[inline]
    fn partition_restricted(&mut self, lo: usize, hi: usize, total: usize) {
        (**self).partition_restricted(lo, hi, total);
    }

    #[inline]
    fn chunk_claimed(&mut self, chunk: usize, starts: usize) {
        (**self).chunk_claimed(chunk, starts);
    }

    #[inline]
    fn chunk_timed(&mut self, chunk: usize, nanos: u64) {
        (**self).chunk_timed(chunk, nanos);
    }

    #[inline]
    fn chunk_merged(&mut self, chunk: usize) {
        (**self).chunk_merged(chunk);
    }

    #[inline]
    fn chunk_retried(&mut self, chunk: usize, attempt: u32) {
        (**self).chunk_retried(chunk, attempt);
    }

    #[inline]
    fn chunk_aborted(&mut self, chunk: usize) {
        (**self).chunk_aborted(chunk);
    }

    #[inline]
    fn worker_suspected(&mut self, worker: usize, completed: usize, assigned: usize) {
        (**self).worker_suspected(worker, completed, assigned);
    }

    #[inline]
    fn chunk_reassigned(&mut self, chunk: usize, attempt: u32) {
        (**self).chunk_reassigned(chunk, attempt);
    }

    #[inline]
    fn partial_splice(&mut self, merged: usize, missing: usize) {
        (**self).partial_splice(merged, missing);
    }

    #[inline]
    fn job_admitted(&mut self, job: u64, queue_depth: usize) {
        (**self).job_admitted(job, queue_depth);
    }

    #[inline]
    fn cache_hit(&mut self, job: u64) {
        (**self).cache_hit(job);
    }

    #[inline]
    fn job_preempted(&mut self, job: u64, completed_chunks: usize) {
        (**self).job_preempted(job, completed_chunks);
    }

    #[inline]
    fn job_resumed(&mut self, job: u64, completed_chunks: usize) {
        (**self).job_resumed(job, completed_chunks);
    }
}

/// The disabled tracer: a zero-sized type whose hooks are all the empty
/// defaults. Instantiating the execution loop with `NoopTracer` produces
/// the same machine code as not tracing at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// A tracer aggregated per task by the sharded engine and merged in
/// start order (chunk order, then task order).
///
/// Implementations must make `absorb` order-compatible with serial
/// accumulation: folding events task by task and absorbing the task
/// partials in start order must equal folding the whole sweep into one
/// tracer. Purely integral state (counters, histograms, integer
/// sums) satisfies this for free.
pub trait MergeTracer: Tracer + Default + Send {
    /// Whether the engine should wall-clock each task and call
    /// [`Tracer::chunk_timed`]. `false` for [`NoopTracer`] so the
    /// untraced sharded path performs no clock reads at all.
    const TIMED: bool = true;

    /// Folds another tracer's state (a later task's partial) into this
    /// one.
    fn absorb(&mut self, other: Self);
}

impl MergeTracer for NoopTracer {
    const TIMED: bool = false;

    #[inline]
    fn absorb(&mut self, _other: Self) {}
}

/// A tracer that records the full typed event log — the "per-problem
/// query trace" view used by `examples/trace_report.rs` and the audit
/// transparency tests.
///
/// Recording every event of a large sweep would allocate without bound,
/// so a capacity can be set: once `cap` events are stored, later events
/// are counted in [`RecordingTracer::dropped`] instead of stored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordingTracer {
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Maximum number of events to store (`None` = unbounded).
    pub cap: Option<usize>,
    /// Events dropped after the capacity was reached.
    pub dropped: u64,
}

impl RecordingTracer {
    /// An unbounded recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that stores at most `cap` events.
    pub fn with_capacity_limit(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            cap: Some(cap),
            dropped: 0,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.cap.is_some_and(|c| self.events.len() >= c) {
            self.dropped += 1;
        } else {
            self.events.push(event);
        }
    }
}

/// The sharded engine appends its partials in merge order, so a sweep
/// records the same log at every thread count. Untimed: a wall-clock
/// `ChunkTimed` event would make two recordings of one sweep differ.
impl MergeTracer for RecordingTracer {
    const TIMED: bool = false;

    fn absorb(&mut self, other: Self) {
        for event in other.events {
            self.push(event);
        }
        self.dropped += other.dropped;
    }
}

impl Tracer for RecordingTracer {
    fn query_issued(&mut self, from: usize, port: u8) {
        self.push(TraceEvent::QueryIssued { from, port });
    }

    fn node_revealed(&mut self, node: usize, depth: u32) {
        self.push(TraceEvent::NodeRevealed { node, depth });
    }

    fn frontier_advanced(&mut self, depth: u32) {
        self.push(TraceEvent::FrontierAdvanced { depth });
    }

    fn answer_finalized(
        &mut self,
        root: usize,
        volume: usize,
        distance_upper: u32,
        queries: u64,
        completed: bool,
    ) {
        self.push(TraceEvent::AnswerFinalized {
            root,
            volume,
            distance_upper,
            queries,
            completed,
        });
    }

    fn chunk_planned(&mut self, chunks: usize, chunk_size: usize) {
        self.push(TraceEvent::ChunkPlanned { chunks, chunk_size });
    }

    fn partition_restricted(&mut self, lo: usize, hi: usize, total: usize) {
        self.push(TraceEvent::PartitionRestricted { lo, hi, total });
    }

    fn chunk_claimed(&mut self, chunk: usize, starts: usize) {
        self.push(TraceEvent::ChunkClaimed { chunk, starts });
    }

    fn chunk_timed(&mut self, chunk: usize, nanos: u64) {
        self.push(TraceEvent::ChunkTimed { chunk, nanos });
    }

    fn chunk_merged(&mut self, chunk: usize) {
        self.push(TraceEvent::ChunkMerged { chunk });
    }

    fn chunk_retried(&mut self, chunk: usize, attempt: u32) {
        self.push(TraceEvent::ChunkRetried { chunk, attempt });
    }

    fn chunk_aborted(&mut self, chunk: usize) {
        self.push(TraceEvent::ChunkAborted { chunk });
    }

    fn worker_suspected(&mut self, worker: usize, completed: usize, assigned: usize) {
        self.push(TraceEvent::WorkerSuspected {
            worker,
            completed,
            assigned,
        });
    }

    fn chunk_reassigned(&mut self, chunk: usize, attempt: u32) {
        self.push(TraceEvent::ChunkReassigned { chunk, attempt });
    }

    fn partial_splice(&mut self, merged: usize, missing: usize) {
        self.push(TraceEvent::PartialSplice { merged, missing });
    }

    fn job_admitted(&mut self, job: u64, queue_depth: usize) {
        self.push(TraceEvent::JobAdmitted { job, queue_depth });
    }

    fn cache_hit(&mut self, job: u64) {
        self.push(TraceEvent::CacheHit { job });
    }

    fn job_preempted(&mut self, job: u64, completed_chunks: usize) {
        self.push(TraceEvent::JobPreempted {
            job,
            completed_chunks,
        });
    }

    fn job_resumed(&mut self, job: u64, completed_chunks: usize) {
        self.push(TraceEvent::JobResumed {
            job,
            completed_chunks,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopTracer>(), 0);
    }

    #[test]
    fn recording_tracer_stores_events_in_order() {
        let mut t = RecordingTracer::new();
        t.query_issued(0, 1);
        t.node_revealed(1, 1);
        t.frontier_advanced(1);
        t.answer_finalized(0, 2, 1, 1, true);
        assert_eq!(
            t.events,
            vec![
                TraceEvent::QueryIssued { from: 0, port: 1 },
                TraceEvent::NodeRevealed { node: 1, depth: 1 },
                TraceEvent::FrontierAdvanced { depth: 1 },
                TraceEvent::AnswerFinalized {
                    root: 0,
                    volume: 2,
                    distance_upper: 1,
                    queries: 1,
                    completed: true,
                },
            ]
        );
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn recording_tracer_caps_and_counts_drops() {
        let mut t = RecordingTracer::with_capacity_limit(2);
        for i in 0..5 {
            t.query_issued(i, 1);
        }
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn recording_tracer_absorbs_in_order_under_its_cap() {
        let mut merged = RecordingTracer::with_capacity_limit(3);
        merged.chunk_claimed(0, 64);
        let mut part = RecordingTracer::new();
        part.query_issued(0, 1);
        part.query_issued(1, 2);
        part.query_issued(2, 3);
        merged.absorb(part);
        assert_eq!(
            merged.events,
            vec![
                TraceEvent::ChunkClaimed {
                    chunk: 0,
                    starts: 64
                },
                TraceEvent::QueryIssued { from: 0, port: 1 },
                TraceEvent::QueryIssued { from: 1, port: 2 },
            ]
        );
        assert_eq!(merged.dropped, 1);
    }

    #[test]
    fn mut_reference_forwards_all_hooks() {
        // Drive through a generic bound so the `&mut T` forwarding impl
        // (the one sweep loops rely on) is the impl actually exercised.
        fn drive<T: Tracer>(mut t: T) {
            t.query_issued(1, 2);
            t.node_revealed(2, 1);
            t.frontier_advanced(1);
            t.answer_finalized(1, 2, 1, 1, false);
            t.chunk_planned(2, 64);
            t.partition_restricted(0, 1, 2);
            t.chunk_claimed(0, 64);
            t.chunk_timed(0, 99);
            t.chunk_merged(0);
            t.chunk_retried(1, 1);
            t.chunk_aborted(1);
            t.worker_suspected(0, 1, 2);
            t.chunk_reassigned(1, 2);
            t.partial_splice(1, 1);
            t.job_admitted(1, 1);
            t.cache_hit(1);
            t.job_preempted(1, 3);
            t.job_resumed(1, 3);
        }
        let mut inner = RecordingTracer::new();
        drive(&mut inner);
        assert_eq!(inner.events.len(), 18);
    }
}
