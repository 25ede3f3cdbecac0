//! Sweep cases: one (instance, solver, run configuration) triple behind a
//! trait object, so a workload can hold solvers of different output
//! types in one list.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use vc_engine::{plan_chunks, sweep_identity, CheckpointReport, Engine, EngineError};
use vc_faults::{FaultPlan, FaultedAlgorithm};
use vc_graph::{Instance, Port};
use vc_model::oracle::{ExecScratch, NodeView, Oracle, OracleStats, QueryError};
use vc_model::run::{QueryAlgorithm, RunConfig, RunReport};
use vc_model::{Execution, ExecutionRecord};
use vc_trace::time::Stopwatch;

/// The count fields of a sweep. They are combinatorial, so every run of
/// one case, at any thread count, must reproduce them exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub runs: usize,
    pub incomplete: usize,
    pub max_volume: usize,
    pub max_distance: u32,
    pub total_queries: u128,
}

/// One finished engine sweep.
pub struct SweepRun {
    /// Wall time of the `run_all` call.
    pub secs: f64,
    pub counts: Counts,
    pub degraded: bool,
    /// LCL violations of the output labeling, when checked.
    pub violations: Option<usize>,
}

/// Model-layer figures from a serial replay of one start.
#[derive(Default)]
pub struct Replay {
    pub queries: u64,
    pub volume: u64,
    /// Time in `algo.run`, oracle calls included.
    pub run_ns: u64,
    /// Time replaying the same oracle calls without the solver.
    pub oracle_ns: u64,
    /// Time in `Execution::record` (the exact-distance BFS when on).
    pub record_ns: u64,
}

impl Replay {
    pub fn add(&mut self, o: &Replay) {
        self.queries += o.queries;
        self.volume += o.volume;
        self.run_ns += o.run_ns;
        self.oracle_ns += o.oracle_ns;
        self.record_ns += o.record_ns;
    }
}

/// A sweepable case, type-erased over the solver.
pub trait SweepCase: Sync {
    fn name(&self) -> &str;
    fn inst(&self) -> &Instance;
    /// Raw sweep id: the trace id of every span about this sweep.
    fn trace_id(&self) -> u64;
    /// Chunks in the engine's plan for this sweep.
    fn chunks(&self) -> usize;
    /// Bytes the engine report holds: records plus outputs.
    fn report_bytes(&self) -> usize;
    /// Counts this case must reproduce, when pinned by a committed file.
    fn expect(&self) -> Option<Counts>;
    /// One `run_all` on `engine`; with `check`, the outputs also go
    /// through the problem's LCL checker (outside the timed call).
    fn sweep(&self, engine: &Engine, check: bool) -> Result<SweepRun, String>;
    /// The same sweep wrapped in an all-pass `FaultPlan::none`.
    fn sweep_fault_none(&self, engine: &Engine) -> Result<SweepRun, String>;
    /// `run_recorded_with_checkpoint` against `path`.
    fn checkpointed(&self, engine: &Engine, path: &Path) -> Result<CheckpointReport, EngineError>;
    /// Serial replay of `roots` through the public `Execution` API.
    fn replay(&self, roots: &[usize]) -> Replay;
}

/// An LCL checker for a solver's outputs: returns the violation count.
pub type LclCheck<O> = Box<dyn Fn(&Instance, &[O]) -> usize + Sync>;

/// A concrete case.
pub struct Case<A: QueryAlgorithm> {
    name: String,
    inst: Arc<Instance>,
    algo: A,
    config: RunConfig,
    lcl: Option<LclCheck<A::Output>>,
    expect: Option<Counts>,
    trace_id: u64,
}

impl<A: QueryAlgorithm> Case<A> {
    pub fn new(
        name: impl Into<String>,
        inst: Arc<Instance>,
        algo: A,
        config: RunConfig,
        lcl: Option<LclCheck<A::Output>>,
    ) -> Self {
        let starts: Vec<usize> = (0..inst.n()).collect();
        let trace_id = sweep_identity(&inst, &algo, &config, &starts)
            .sweep_id
            .raw();
        Self {
            name: name.into(),
            inst,
            algo,
            config,
            lcl,
            expect: None,
            trace_id,
        }
    }

    pub fn expecting(mut self, counts: Counts) -> Self {
        self.expect = Some(counts);
        self
    }
}

/// One timed `run_all`, with the report kept for the LCL check.
fn run_counts<A>(
    engine: &Engine,
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
) -> Result<(SweepRun, RunReport<A::Output>), String>
where
    A: QueryAlgorithm + Sync,
    A::Output: Send,
{
    let sw = Stopwatch::start();
    let report = engine
        .run_all(inst, algo, config)
        .map_err(|e| e.to_string())?;
    let secs = sw.elapsed().as_secs_f64();
    let run = SweepRun {
        secs,
        counts: Counts {
            runs: report.summary.runs,
            incomplete: report.summary.incomplete,
            max_volume: report.summary.max_volume,
            max_distance: report.summary.max_distance,
            total_queries: report.total_queries,
        },
        degraded: report.degraded,
        violations: None,
    };
    Ok((run, report.report))
}

impl<A> SweepCase for Case<A>
where
    A: QueryAlgorithm + Copy + Sync,
    A::Output: Send,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn inst(&self) -> &Instance {
        &self.inst
    }

    fn trace_id(&self) -> u64 {
        self.trace_id
    }

    fn chunks(&self) -> usize {
        plan_chunks(self.inst.n()).num_chunks
    }

    fn report_bytes(&self) -> usize {
        self.inst.n()
            * (std::mem::size_of::<ExecutionRecord>() + std::mem::size_of::<Option<A::Output>>())
    }

    fn expect(&self) -> Option<Counts> {
        self.expect
    }

    fn sweep(&self, engine: &Engine, check: bool) -> Result<SweepRun, String> {
        let (mut run, report) = run_counts(engine, &self.inst, &self.algo, &self.config)
            .map_err(|e| format!("{}: {e}", self.name))?;
        if let (Some(lcl), true) = (&self.lcl, check) {
            let outputs = report
                .complete_outputs()
                .ok_or_else(|| format!("{}: sweep left nodes without output", self.name))?;
            run.violations = Some(lcl(&self.inst, &outputs));
        }
        Ok(run)
    }

    fn sweep_fault_none(&self, engine: &Engine) -> Result<SweepRun, String> {
        let wrapped = FaultedAlgorithm::new(self.algo, FaultPlan::none(0));
        run_counts(engine, &self.inst, &wrapped, &self.config)
            .map(|(run, _)| run)
            .map_err(|e| format!("{}+faultplan-none: {e}", self.name))
    }

    fn checkpointed(&self, engine: &Engine, path: &Path) -> Result<CheckpointReport, EngineError> {
        engine.run_recorded_with_checkpoint(&self.inst, &self.algo, &self.config, path)
    }

    fn replay(&self, roots: &[usize]) -> Replay {
        let (tape, budget) = (self.config.tape, self.config.budget);
        let mut scratch = [ExecScratch::new(), ExecScratch::new(), ExecScratch::new()];
        let [s_log, s_run, s_replay] = &mut scratch;
        let mut total = Replay::default();
        for &root in roots {
            // 1. Log the oracle calls the solver makes from this start.
            let mut ex = Execution::with_scratch(&self.inst, root, tape, budget, s_log);
            let mut logged = Logged {
                inner: &mut ex,
                ops: Vec::new(),
            };
            let _ = black_box(self.algo.run(&mut logged));
            let ops = logged.ops;
            // 2. The solver with its oracle, unwrapped.
            let mut ex = Execution::with_scratch(&self.inst, root, tape, budget, s_run);
            let sw = Stopwatch::start();
            let _ = black_box(self.algo.run(&mut ex));
            let run_ns = sw.elapsed_nanos();
            // 3. The same oracle calls without the solver.
            let mut ex = Execution::with_scratch(&self.inst, root, tape, budget, s_replay);
            let sw = Stopwatch::start();
            for op in &ops {
                match *op {
                    Op::Query(from, port) => drop(black_box(ex.query(from, port))),
                    Op::RandBit(node) => drop(black_box(ex.rand_bit(node))),
                }
            }
            let oracle_ns = sw.elapsed_nanos();
            // 4. Finalizing the record: the exact-distance BFS when on.
            let sw = Stopwatch::start();
            let rec = black_box(ex.record(self.config.exact_distance, true));
            let record_ns = sw.elapsed_nanos();
            total.add(&Replay {
                queries: rec.queries,
                volume: rec.volume as u64,
                run_ns,
                oracle_ns,
                record_ns,
            });
        }
        total
    }
}

/// One oracle call, as logged for replay.
enum Op {
    Query(usize, Port),
    RandBit(usize),
}

/// The benchmark-side wrapping oracle: forwards to the execution and logs
/// every call so it can be replayed without the solver.
struct Logged<'a, 'e> {
    inner: &'a mut Execution<'e>,
    ops: Vec<Op>,
}

impl Oracle for Logged<'_, '_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn root(&self) -> NodeView {
        self.inner.root()
    }

    fn query(&mut self, from: usize, port: Port) -> Result<NodeView, QueryError> {
        self.ops.push(Op::Query(from, port));
        self.inner.query(from, port)
    }

    fn rand_bit(&mut self, node: usize) -> Result<bool, QueryError> {
        self.ops.push(Op::RandBit(node));
        self.inner.rand_bit(node)
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}
