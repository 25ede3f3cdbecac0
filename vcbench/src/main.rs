//! `vcbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path vcbench/Cargo.toml -- \
//!     --workload <table1-sweep|ladder-top|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload, built from the seed, for about `--seconds` of
//! measurement, checks every output, and prints as the last line of
//! standard output one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the per-layer ones, measured with spans recorded around
//! the benchmark's calls into each layer (written to
//! `.bench_run/trace-<workload>-<seed>.json`). All scratch files live
//! under `.bench_run/` in the working directory and are removed at the
//! end. Metric definitions and the layer-to-metric map are in
//! `WORKLOADS.md`.

mod cases;
mod phases;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

use vc_trace::time::Stopwatch;

use phases::{CkptPhase, Ctx, LoadPhase, ServePhase, SetupPhase, SweepPhase};
use spans::Spans;
use stats::{median, same, tail, Tally};
use workloads::{Dominant, Inputs};

/// Share of the run spent rebuilding the inputs; `setup_s` is the
/// median build time.
const SETUP_SHARE: f64 = 0.03;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("starts_per_s", "1/s"),
    ("starts_per_s_1t", "1/s"),
    ("kill_resume_s", "s"),
    ("instance_load_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_tail_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
const PER_LAYER: [(&str, &str); 52] = [
    ("graph.gen_s", "s"),
    ("graph.rebuild_ms", "ms"),
    ("graph.store_encode_s", "s"),
    ("graph.store_decode_s", "s"),
    ("graph.store_bytes", "bytes"),
    ("graph.instance_id_s", "s"),
    ("graph.csr_scan_ns_per_edge", "ns"),
    ("graph.self_s", "s"),
    ("model.queries", "count"),
    ("model.volume_sum", "count"),
    ("model.query_ns", "ns"),
    ("model.exact_bfs_s", "s"),
    ("core.solver_self_s", "s"),
    ("engine.run_all_s_1t", "s"),
    ("engine.run_all_s_2t", "s"),
    ("engine.scaling_2t", "ratio"),
    ("engine.chunks", "count"),
    ("engine.report_bytes", "bytes"),
    ("engine.sweep_identity_s", "s"),
    ("engine.ckpt_to_json_s", "s"),
    ("engine.ckpt_from_json_s", "s"),
    ("engine.ckpt_bytes", "bytes"),
    ("engine.kill_s", "s"),
    ("engine.resume_s", "s"),
    ("engine.self_s", "s"),
    ("json.parse_s", "s"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.escape_s", "s"),
    ("json.self_s", "s"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.result_rtt_ms", "ms"),
    ("serve.store_load_ms", "ms"),
    ("serve.socket_rtt_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.payload_bytes", "bytes"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.deduped", "count"),
    ("serve.evictions", "count"),
    ("serve.preemptions", "count"),
    ("serve.resumes", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.self_s", "s"),
    ("faults.none_overhead", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.spans", "count"),
    ("bench.failed_frac", "ratio"),
    ("bench.hit_tail_pct", "%"),
    ("bench.miss_tail_pct", "%"),
];

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vcbench: {e}");
            eprintln!(
                "usage: vcbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_run");
    let dir = root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("vcbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut ctx = Ctx {
        spans: Spans::new(),
        tally: Tally::default(),
        dir: dir.clone(),
        serial: 0,
    };
    let result = run(&mut ctx, &args);
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("vcbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = root.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = ctx.spans.write(&path) {
            eprintln!("vcbench: cannot write {}: {e}", path.display());
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::new();
    for (name, unit) in names {
        let value = metrics.0.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<28} {value:>16.6} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let tally = &ctx.tally;
    eprintln!(
        "vcbench: {} operations, {} failed",
        tally.attempted, tally.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

/// A finite JSON number (non-finite values cannot be encoded).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The phases of one measured pass, ready to be scheduled.
struct Pass<'a> {
    setup: SetupPhase<'a>,
    sweep: SweepPhase<'a>,
    ckpt: CkptPhase<'a>,
    load: LoadPhase<'a>,
    serve: ServePhase<'a>,
}

impl<'a> Pass<'a> {
    fn new(
        ctx: &mut Ctx,
        inputs: &'a Inputs,
        refs: &'a [Option<cases::Counts>],
        serve_refs: &'a [String],
        rebuild: &'a dyn Fn(&std::path::Path) -> Result<f64, String>,
    ) -> Self {
        Pass {
            setup: SetupPhase::new(rebuild),
            sweep: SweepPhase::new(&inputs.cases, refs),
            ckpt: CkptPhase::new(ctx, inputs.cases[inputs.ckpt_case].as_ref()),
            load: LoadPhase::new(&inputs.load_files),
            serve: ServePhase::new(ctx, &inputs.serve, serve_refs),
        }
    }

    /// Interleaves every phase, each at its share, for `seconds`.
    fn run(&mut self, ctx: &mut Ctx, inputs: &Inputs, seconds: f64) {
        let s = &inputs.shares;
        phases::schedule(
            ctx,
            &mut [
                (&mut self.setup, SETUP_SHARE),
                (&mut self.sweep, s.sweep),
                (&mut self.ckpt, s.ckpt),
                (&mut self.load, s.load),
                (&mut self.serve, s.serve),
            ],
            seconds,
        );
        self.serve.finish(ctx);
        eprintln!(
            "vcbench: {} set-ups, {} sweeps, {} kill/resumes, {} load passes, {} hits + {} misses",
            self.setup.secs.len(),
            self.sweep
                .secs
                .iter()
                .map(|s| s[0].len() + s[1].len())
                .sum::<usize>(),
            self.ckpt.kill_resume.len(),
            self.load.ms.len(),
            self.serve.hit_ms.len(),
            self.serve.miss_ms.len(),
        );
    }

    /// The throughput of the workload's dominant phase.
    fn dominant(&self, inputs: &Inputs) -> f64 {
        match inputs.dominant {
            Dominant::Sweep => self.sweep.starts_per_s(0),
            Dominant::Serve => self.serve.requests_per_s(),
        }
    }
}

fn run(ctx: &mut Ctx, args: &Args) -> Result<Metrics, String> {
    let rebuild =
        |dir: &std::path::Path| workloads::build(&args.workload, args.seed, dir).map(|i| i.gen_s);
    let setup_dir = ctx.fresh_dir("inputs");
    let sw = Stopwatch::start();
    let inputs = workloads::build(&args.workload, args.seed, &setup_dir)?;
    let first_setup = sw.elapsed().as_secs_f64();

    // Correctness references, all outside the timed windows.
    let refs = phases::reference_counts(ctx, &inputs.cases);
    phases::reference_counts(ctx, &inputs.verify_only);
    for &(a, b) in &inputs.same_counts {
        let (na, nb) = (inputs.cases[a].name(), inputs.cases[b].name());
        ctx.tally
            .op(same(&format!("{nb} counts equal {na}"), refs[b], refs[a]));
    }
    let ref_dir = ctx.fresh_dir("refs");
    let plan = &inputs.serve;
    let mut serve_refs = Vec::new();
    for (i, spec) in plan.interactive.iter().chain(&plan.batch).enumerate() {
        let payload = phases::reference_payload(spec, &ref_dir.join(format!("{i}.json")));
        if let Err(e) = &payload {
            ctx.tally.op(Err(format!("serve reference {i}: {e}")));
        }
        serve_refs.push(payload.unwrap_or_default());
    }

    let mut m = Metrics::default();
    if !args.trace {
        let mut p = Pass::new(ctx, &inputs, &refs, &serve_refs, &rebuild);
        p.setup.secs.push(first_setup);
        p.run(ctx, &inputs, args.seconds);
        let sv = &p.serve;
        let (hit_tail, hit_pct, hit_n) = tail(&sv.hit_ms);
        let (miss_tail, miss_pct, miss_n) = tail(&sv.miss_ms);
        eprintln!(
            "vcbench: hit tail p{hit_pct:.1} of {hit_n}, miss tail p{miss_pct:.1} of {miss_n}"
        );
        m.put("setup_s", median(&p.setup.secs));
        m.put("starts_per_s", p.sweep.starts_per_s(0));
        m.put("starts_per_s_1t", p.sweep.starts_per_s(1));
        m.put("kill_resume_s", median(&p.ckpt.kill_resume));
        m.put("instance_load_ms", median(&p.load.ms));
        m.put("hit_p50_ms", median(&sv.hit_ms));
        m.put("hit_tail_ms", hit_tail);
        m.put("miss_p50_ms", median(&sv.miss_ms));
        m.put("miss_tail_ms", miss_tail);
        m.put("requests_per_s", sv.requests_per_s());
        m.put("peak_rss_mb", peak_rss_mb()?);
        return Ok(m);
    }

    // Traced run: the dominant phase alone untraced, then every phase with
    // spans on, then the per-layer probes.
    let untraced = match inputs.dominant {
        Dominant::Sweep => {
            let mut sweep = SweepPhase::new(&inputs.cases, &refs);
            phases::schedule(ctx, &mut [(&mut sweep, 1.0)], args.seconds * 0.25);
            sweep.starts_per_s(0)
        }
        Dominant::Serve => {
            let mut serve = ServePhase::new(ctx, plan, &serve_refs);
            phases::schedule(ctx, &mut [(&mut serve, 1.0)], args.seconds * 0.25);
            serve.finish(ctx);
            serve.requests_per_s()
        }
    };
    let mut p = Pass::new(ctx, &inputs, &refs, &serve_refs, &rebuild);
    ctx.spans.record(true);
    p.run(ctx, &inputs, args.seconds * 0.5);
    ctx.spans.record(false);

    m.put("graph.gen_s", median(&p.setup.gen_secs));
    m.put("engine.run_all_s_2t", p.sweep.round_secs(0));
    m.put("engine.run_all_s_1t", p.sweep.round_secs(1));
    m.put(
        "engine.scaling_2t",
        p.sweep.round_secs(1) / p.sweep.round_secs(0),
    );
    m.put("engine.kill_s", median(&p.ckpt.kill));
    m.put("engine.resume_s", median(&p.ckpt.resume));
    let sv = &p.serve;
    m.put("json.parse_s", median(&sv.parse_s));
    m.put(
        "json.parse_mb_per_s",
        sv.parse_bytes / 1e6 / sv.parse_s.iter().sum::<f64>().max(1e-12),
    );
    m.put("serve.submit_rtt_ms", median(&sv.submit_rtt_ms));
    m.put("serve.result_rtt_ms", median(&sv.result_rtt_ms));
    m.put("serve.socket_rtt_us", median(&sv.socket_rtt_us));
    m.put("serve.queue_wait_ms", median(&sv.queue_wait_ms));
    m.put("serve.run_ms", median(&sv.run_ms));
    m.put("serve.payload_bytes", median(&sv.payload_bytes));
    if let Some(st) = &sv.stats {
        m.put("serve.hits", st.hits as f64);
        m.put("serve.misses", st.misses as f64);
        m.put("serve.deduped", st.deduped as f64);
        m.put("serve.evictions", st.evictions as f64);
        m.put("serve.preemptions", st.preemptions as f64);
        m.put("serve.resumes", st.resumes as f64);
        m.put("serve.max_queue_depth", st.max_queue_depth as f64);
        m.put(
            "serve.hit_ratio",
            st.hits as f64 / st.submissions.max(1) as f64,
        );
    }
    m.put("bench.hit_tail_pct", tail(&sv.hit_ms).1);
    m.put("bench.miss_tail_pct", tail(&sv.miss_ms).1);
    m.put(
        "bench.trace_overhead_frac",
        untraced / p.dominant(&inputs) - 1.0,
    );
    let (layers, unattributed) = ctx.spans.self_times();
    for (layer, name) in [
        ("graph", "graph.self_s"),
        ("engine", "engine.self_s"),
        ("json", "json.self_s"),
        ("serve", "serve.self_s"),
    ] {
        m.put(name, layers.get(layer).copied().unwrap_or(0.0));
    }
    m.put("bench.unattributed_frac", unattributed);
    m.put("bench.spans", ctx.spans.len() as f64);

    probes::model(&inputs, args.seed, &mut m);
    probes::graph(ctx, &inputs, &mut m);
    probes::engine(ctx, &inputs, &mut m);
    probes::faults(ctx, &inputs, &mut m);
    probes::serve(ctx, plan, &serve_refs, &p.serve, &mut m);
    let t = &ctx.tally;
    m.put(
        "bench.failed_frac",
        t.failed as f64 / t.attempted.max(1) as f64,
    );
    Ok(m)
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
