//! Integration: tracing is observationally free and deterministic.
//!
//! Two guarantees are asserted over the Table 1 solvers:
//!
//! * **Tracer transparency** — a traced sweep produces byte-identical
//!   outputs, execution records and cost summaries to the untraced engine
//!   and to the serial `vc-model` runner. The tracer observes the query
//!   stream but cannot influence it (DESIGN.md §10).
//! * **Merged-metrics determinism** — the deterministic half of
//!   `SweepMetrics` (`metrics.query`: counters and the volume / distance /
//!   queries-per-start histograms) is identical for 1, 2 and 8 worker
//!   threads, and cross-checks the engine's own cost summary.
//!
//! `scripts/ci.sh` re-runs this file with `VC_THREADS=2` alongside the
//! engine determinism suite.

use vc_core::problems::hierarchical::DeterministicSolver;
use vc_core::problems::leaf_coloring::{DistanceSolver, RwToLeaf};
use vc_engine::Engine;
use vc_graph::{gen, Color, Instance};
use vc_model::run::{run_all, run_all_traced, QueryAlgorithm, RunConfig, StartSelection};
use vc_model::{Budget, RandomTape};
use vc_trace::{QueryStats, RecordingTracer, SweepMetrics, TraceEvent, Tracer};

/// Runs one case through the serial runner, the untraced engine and the
/// traced engine at 1/2/8 threads, asserting transparency and metric
/// determinism; returns the (thread-count-invariant) query stats.
fn assert_tracing_invariant<A>(
    name: &str,
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
) -> QueryStats
where
    A: QueryAlgorithm + Sync,
    A::Output: Clone + PartialEq + std::fmt::Debug + Send,
{
    let serial = run_all(inst, algo, config).expect("valid start selection");
    let mut serial_metrics = SweepMetrics::new();
    let serial_traced =
        run_all_traced(inst, algo, config, &mut serial_metrics).expect("valid start selection");
    assert_eq!(
        serial_traced.outputs, serial.outputs,
        "{name}: serial tracing changed outputs"
    );
    assert_eq!(
        serial_traced.records, serial.records,
        "{name}: serial tracing changed records"
    );

    let mut reference: Option<QueryStats> = None;
    for threads in [1usize, 2, 8] {
        let untraced = Engine::with_threads(threads)
            .run_all(inst, algo, config)
            .expect("valid start selection");
        let (traced, metrics) = Engine::with_threads(threads)
            .run_all_traced::<A, SweepMetrics>(inst, algo, config)
            .expect("valid start selection");
        assert_eq!(
            traced.report.outputs, serial.outputs,
            "{name}: traced outputs differ at {threads} threads"
        );
        assert_eq!(
            traced.report.records, serial.records,
            "{name}: traced records differ at {threads} threads"
        );
        assert_eq!(
            traced.summary, untraced.summary,
            "{name}: traced summary differs at {threads} threads"
        );
        assert_eq!(
            traced.summary,
            serial.summary(),
            "{name}: traced summary differs from the serial runner"
        );
        // `SweepMetrics` is a pure fold of the stream `RecordingTracer`
        // keeps. The recorder is untimed (no `ChunkTimed`), so only the
        // deterministic half is compared.
        let (_, recorded) = Engine::with_threads(threads)
            .run_all_traced::<A, RecordingTracer>(inst, algo, config)
            .expect("valid start selection");
        let mut replayed = SweepMetrics::new();
        for ev in recorded.events {
            replayed.on(ev);
        }
        assert_eq!(
            replayed.query, metrics.query,
            "{name}: replayed event log disagrees with the metrics at {threads} threads"
        );
        match &reference {
            None => reference = Some(metrics.query),
            Some(r) => assert_eq!(
                &metrics.query, r,
                "{name}: deterministic metrics differ at {threads} threads"
            ),
        }
    }
    let query = reference.expect("thread loop is non-empty");

    // The per-execution event stream aggregates to the cost summary.
    let summary = serial.summary();
    assert_eq!(query.executions, summary.runs as u64, "{name}: executions");
    assert_eq!(
        query.truncated, summary.incomplete as u64,
        "{name}: truncated"
    );
    assert_eq!(
        query.volume.count(),
        summary.runs as u64,
        "{name}: volume histogram covers every run"
    );
    assert_eq!(
        query.volume.max(),
        summary.max_volume as u64,
        "{name}: max volume"
    );
    assert_eq!(
        query.queries_per_start.sum(),
        serial
            .records
            .iter()
            .map(|r| u128::from(r.queries))
            .sum::<u128>(),
        "{name}: total queries"
    );
    query
}

fn rand_config(seed: u64) -> RunConfig {
    RunConfig {
        tape: Some(RandomTape::private(seed)),
        ..RunConfig::default()
    }
}

#[test]
fn leaf_coloring_tracing_is_transparent_and_deterministic() {
    let inst = gen::random_full_binary_tree(401, 5);
    let q = assert_tracing_invariant(
        "leaf-coloring/det",
        &inst,
        &DistanceSolver,
        &RunConfig::default(),
    );
    assert!(q.queries_issued > 0);
    assert!(q.nodes_revealed > 0);
    assert!(q.frontier_advances <= q.nodes_revealed);
}

#[test]
fn randomized_tracing_is_transparent_and_deterministic() {
    let inst = gen::pseudo_tree(350, 6, 3);
    assert_tracing_invariant(
        "leaf-coloring/rw",
        &inst,
        &RwToLeaf::default(),
        &rand_config(11),
    );
}

#[test]
fn hierarchical_tracing_is_transparent_and_deterministic() {
    for k in [2u32, 3] {
        let inst = gen::hierarchical_for_size(k, 300, 7);
        assert_tracing_invariant(
            "hierarchical/det",
            &inst,
            &DeterministicSolver { k },
            &RunConfig::default(),
        );
    }
}

#[test]
fn truncated_tracing_counts_budget_hits() {
    let inst = gen::random_full_binary_tree(401, 2);
    let config = RunConfig {
        budget: Budget::volume(6),
        ..RunConfig::default()
    };
    let q = assert_tracing_invariant("leaf-coloring/truncated", &inst, &DistanceSolver, &config);
    assert!(q.truncated > 0, "budget must actually truncate");
    assert!(
        q.volume.max() <= 6,
        "volume histogram must respect the budget"
    );
}

#[test]
fn sampled_tracing_is_transparent_and_deterministic() {
    let inst = gen::random_full_binary_tree(2001, 4);
    let config = RunConfig {
        starts: StartSelection::Sample {
            count: 192,
            seed: 0xC0FFEE,
        },
        ..RunConfig::default()
    };
    let q = assert_tracing_invariant("leaf-coloring/sampled", &inst, &DistanceSolver, &config);
    assert_eq!(q.executions, 192);
}

#[test]
fn recorded_event_streams_are_reproducible() {
    // Two serial traced sweeps of the same case record the exact same
    // typed event log — the replay property debugging tools rely on.
    let inst = gen::random_full_binary_tree(151, 3);
    let config = RunConfig::default();
    let mut a = RecordingTracer::new();
    let mut b = RecordingTracer::new();
    run_all_traced(&inst, &DistanceSolver, &config, &mut a).expect("valid start selection");
    run_all_traced(&inst, &DistanceSolver, &config, &mut b).expect("valid start selection");
    assert!(!a.events.is_empty());
    assert_eq!(a, b);
}

#[test]
fn multi_task_event_streams_are_thread_count_invariant() {
    // n = 32 767 claims every chunk as 4 tasks; the merged event log —
    // per-start events in start order, framed by one ChunkClaimed /
    // ChunkMerged pair per chunk — must not depend on which worker ran
    // which task.
    let inst = gen::complete_binary_tree(14, Color::R, Color::B);
    let config = rand_config(19);
    let algo = RwToLeaf::default();
    let (_, reference) = Engine::with_threads(1)
        .run_all_traced::<_, RecordingTracer>(&inst, &algo, &config)
        .expect("valid start selection");
    for threads in [2usize, 8] {
        let (_, events) = Engine::with_threads(threads)
            .run_all_traced::<_, RecordingTracer>(&inst, &algo, &config)
            .expect("valid start selection");
        assert!(
            events == reference,
            "event stream differs at {threads} threads"
        );
    }
    let plan = vc_engine::plan_chunks(inst.n());
    let claimed: Vec<(usize, usize)> = reference
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ChunkClaimed { chunk, starts } => Some((*chunk, *starts)),
            _ => None,
        })
        .collect();
    let expected: Vec<(usize, usize)> = (0..plan.num_chunks)
        .map(|c| {
            let (lo, hi) = plan.bounds(c, inst.n());
            (c, hi - lo)
        })
        .collect();
    assert_eq!(claimed, expected, "one ChunkClaimed per chunk, in order");
    assert!(!reference
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::ChunkTimed { .. })));

    // Without the engine's chunk framing, the log is the serial runner's.
    let mut serial = RecordingTracer::new();
    run_all_traced(&inst, &algo, &config, &mut serial).expect("valid start selection");
    let per_start: Vec<&TraceEvent> = reference
        .events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                TraceEvent::ChunkPlanned { .. }
                    | TraceEvent::ChunkClaimed { .. }
                    | TraceEvent::ChunkMerged { .. }
            )
        })
        .collect();
    assert!(per_start.iter().copied().eq(serial.events.iter()));
}
