//! Per-layer probes of the traced run. Each times calls into one layer's
//! public functions directly, outside the end-to-end phases, so the
//! probes never distort an end-to-end figure.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vc_engine::{Engine, SweepCheckpoint};
use vc_serve::ResultStore;
use vc_trace::time::Stopwatch;

use crate::cases::Replay;
use crate::phases::{Ctx, ServePhase, ServePlan};
use crate::stats::{median, same};
use crate::workloads::Inputs;
use crate::Metrics;

/// Sampled starts per case in the model replay.
const REPLAY_STARTS: usize = 256;

/// Median seconds of `reps` calls of `f`.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let sw = Stopwatch::start();
            black_box(f());
            sw.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// vc-model and vc-core: a seeded serial replay of sampled starts of
/// every case through the public `Execution` API.
pub fn model(inputs: &Inputs, seed: u64, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut total = Replay::default();
    for case in &inputs.cases {
        let n = case.inst().n();
        let roots: Vec<usize> = (0..REPLAY_STARTS.min(n))
            .map(|_| rng.random_range(0..n))
            .collect();
        total.add(&case.replay(&roots));
    }
    m.put("model.queries", total.queries as f64);
    m.put("model.volume_sum", total.volume as f64);
    m.put(
        "model.query_ns",
        total.oracle_ns as f64 / total.queries.max(1) as f64,
    );
    m.put("model.exact_bfs_s", total.record_ns as f64 * 1e-9);
    m.put(
        "core.solver_self_s",
        total.run_ns.saturating_sub(total.oracle_ns) as f64 * 1e-9,
    );
}

/// vc-graph: CSR row scans over the largest instance, and the store codec
/// and instance identity of the first store file.
pub fn graph(ctx: &mut Ctx, inputs: &Inputs, m: &mut Metrics) {
    if let Some(case) = inputs.cases.iter().max_by_key(|c| c.inst().n()) {
        let g = &case.inst().graph;
        let (mut entries, mut ns) = (0u64, 0u64);
        let sw = Stopwatch::start();
        while entries == 0 || sw.elapsed().as_millis() < 50 {
            let t = Stopwatch::start();
            let mut sum = 0u64;
            for v in 0..g.n() {
                let row = g.neighbor_row(v);
                entries += row.len() as u64;
                sum += row.iter().map(|&w| u64::from(w)).sum::<u64>();
            }
            black_box(sum);
            ns += t.elapsed_nanos();
        }
        m.put(
            "graph.csr_scan_ns_per_edge",
            ns as f64 / entries.max(1) as f64,
        );
    }
    let Some((path, id)) = inputs.load_files.first() else {
        return;
    };
    let inst = match vc_graph::load_instance(path) {
        Ok(inst) => inst,
        Err(e) => return ctx.tally.op(Err(format!("probe load: {e}"))),
    };
    let bytes = vc_graph::encode_instance(&inst);
    m.put("graph.store_bytes", bytes.len() as f64);
    m.put(
        "graph.store_encode_s",
        timed(5, || vc_graph::encode_instance(&inst)),
    );
    m.put(
        "graph.store_decode_s",
        timed(5, || vc_graph::decode_instance(&bytes)),
    );
    m.put("graph.instance_id_s", timed(5, || inst.instance_id()));
    ctx.tally.op(vc_graph::decode_instance(&bytes)
        .map_err(|e| e.to_string())
        .and_then(|d| same("decoded instance id", d.instance_id(), *id)));
}

/// vc-engine: the checkpoint codec on a file killed after half its chunks,
/// and the sweep-shape figures of the case list.
pub fn engine(ctx: &mut Ctx, inputs: &Inputs, m: &mut Metrics) {
    m.put(
        "engine.chunks",
        inputs.cases.iter().map(|c| c.chunks()).sum::<usize>() as f64,
    );
    m.put(
        "engine.report_bytes",
        inputs.cases.iter().map(|c| c.report_bytes()).sum::<usize>() as f64,
    );
    let case = &inputs.cases[inputs.ckpt_case];
    let path = ctx.fresh_dir("probe").join("killed.json");
    let half = case.chunks() / 2;
    let text = case
        .checkpointed(&Engine::with_threads(2).with_chunk_quota(half), &path)
        .map_err(|e| e.to_string())
        .and_then(|_| std::fs::read_to_string(&path).map_err(|e| e.to_string()));
    let text = match text {
        Ok(t) => t,
        Err(e) => return ctx.tally.op(Err(format!("probe checkpoint: {e}"))),
    };
    m.put("engine.ckpt_bytes", text.len() as f64);
    m.put(
        "engine.ckpt_from_json_s",
        timed(3, || SweepCheckpoint::from_json(&text)),
    );
    ctx.tally
        .op(SweepCheckpoint::from_json(&text).and_then(|ckpt| {
            m.put("engine.ckpt_to_json_s", timed(3, || ckpt.to_json()));
            same("checkpoint round trip", ckpt.to_json() == text, true)
        }));
}

/// vc-faults: a 2-thread sweep wrapped in `FaultPlan::none` against the
/// bare one, alternating; the ratio of their medians.
pub fn faults(ctx: &mut Ctx, inputs: &Inputs, m: &mut Metrics) {
    let case = &inputs.cases[inputs.fault_case];
    let engine = Engine::with_threads(2);
    let (mut bare, mut wrapped) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let b = case.sweep(&engine, false);
        let w = case.sweep_fault_none(&engine);
        ctx.tally.op(b.and_then(|b| {
            let w = w?;
            bare.push(b.secs);
            wrapped.push(w.secs);
            same("faultplan-none counts", w.counts, b.counts)
        }));
    }
    m.put("faults.none_overhead", median(&wrapped) / median(&bare));
}

/// vc-serve, vc-json, vc-graph rebuild and vc-engine identity: the calls a
/// served request makes, each timed alone.
pub fn serve(
    ctx: &mut Ctx,
    plan: &ServePlan,
    references: &[String],
    served: &ServePhase,
    m: &mut Metrics,
) {
    m.put(
        "json.escape_s",
        median(
            &references
                .iter()
                .map(|p| timed(3, || vc_json::escape(p)))
                .collect::<Vec<_>>(),
        ),
    );
    let (mut rebuild, mut identity) = (Vec::new(), Vec::new());
    for spec in &plan.interactive {
        rebuild.push(timed(3, || spec.instance.build()) * 1e3);
        let inst = spec.instance.build();
        let config = spec.run_config();
        match config.starts.starts(inst.n()) {
            Ok(starts) => identity.push(timed(3, || {
                spec.algorithm.identity(&inst, &config, &starts)
            })),
            Err(e) => ctx.tally.op(Err(format!("probe starts: {e}"))),
        }
    }
    m.put("graph.rebuild_ms", median(&rebuild));
    m.put("engine.sweep_identity_s", median(&identity));
    m.put("serve.store_load_ms", store_load_ms(served));
}

/// Median load time of the entries still in the served store.
fn store_load_ms(served: &ServePhase<'_>) -> f64 {
    let Ok(store) = ResultStore::open(&served.store_dir, None) else {
        return 0.0;
    };
    let mut ids = served.served.clone();
    ids.sort();
    ids.dedup();
    let mut samples = Vec::new();
    for id in ids.into_iter().filter(|id| store.contains(*id)) {
        for _ in 0..3 {
            let sw = Stopwatch::start();
            black_box(store.load(id).is_ok());
            samples.push(sw.elapsed().as_secs_f64() * 1e3);
        }
    }
    median(&samples)
}
