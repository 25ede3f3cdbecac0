//! The four timed phases every workload is built from — engine sweeps,
//! checkpoint kill-and-resume, instance-store loads and vc-serve requests
//! — plus repeated set-up. Each phase is a runner whose `step` takes one
//! sample; [`schedule`] interleaves the steps of all phases over the whole
//! run, so every phase samples the machine's state across the run rather
//! than in one window of it, and the medians are taken over samples from
//! start to end. Every result is checked outside the timed calls.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vc_engine::{Engine, InstanceId, SweepId};
use vc_json::Value;
use vc_serve::{JobState, JobStatus, ServeConfig, ServeDaemon, SweepService, SweepSpec};
use vc_trace::time::Stopwatch;

use crate::cases::{Counts, SweepCase};
use crate::spans::Spans;
use crate::stats::{median, same, Tally};

/// Shared state of one benchmark run.
pub struct Ctx {
    pub spans: Spans,
    pub tally: Tally,
    /// Per-run scratch directory (stores, sockets, checkpoints).
    pub dir: PathBuf,
    /// Distinguishes the directories of repeated phases in one run.
    pub serial: u64,
}

impl Ctx {
    /// A fresh, empty subdirectory of the run directory.
    pub fn fresh_dir(&mut self, tag: &str) -> PathBuf {
        self.serial += 1;
        let dir = self.dir.join(format!("{tag}{}", self.serial));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        dir
    }
}

/// Longest any single wait may take before it counts as a timeout.
const WAIT: Duration = Duration::from_secs(120);

/// A phase that takes one sample per step.
pub trait Phase {
    /// Takes one sample.
    fn step(&mut self, ctx: &mut Ctx);
    /// Whether the phase has its minimum number of samples.
    fn satisfied(&self) -> bool;
}

/// Interleaves steps of `phases` until `seconds` have passed and every
/// phase is satisfied. Each step goes to the phase furthest behind its
/// share of the elapsed time.
pub fn schedule(ctx: &mut Ctx, phases: &mut [(&mut dyn Phase, f64)], seconds: f64) {
    let sw = Stopwatch::start();
    let mut used = vec![0.0f64; phases.len()];
    loop {
        let t = sw.elapsed().as_secs_f64();
        let over = t >= seconds;
        let pick = (0..phases.len())
            .filter(|&i| phases[i].1 > 0.0 && (!over || !phases[i].0.satisfied()))
            .max_by(|&a, &b| {
                let deficit = |i: usize| phases[i].1 * t - used[i];
                deficit(a).total_cmp(&deficit(b))
            });
        let Some(i) = pick else {
            break;
        };
        let step = Stopwatch::start();
        phases[i].0.step(ctx);
        used[i] += step.elapsed().as_secs_f64();
    }
}

// ---------------------------------------------------------------- sweeps

/// Reference counts of every case: one untimed 2-thread sweep each, with
/// the LCL check and any pinned counts. Doubles as the warm-up.
pub fn reference_counts(ctx: &mut Ctx, cases: &[Box<dyn SweepCase>]) -> Vec<Option<Counts>> {
    let engine = Engine::with_threads(2);
    cases
        .iter()
        .map(|case| {
            let run = case.sweep(&engine, true);
            let counts = run.as_ref().ok().map(|r| r.counts);
            if let Ok(r) = &run {
                eprintln!(
                    "vcbench: {:<34} n={:<7} {:>9.1} ms, {} queries",
                    case.name(),
                    case.inst().n(),
                    r.secs * 1e3,
                    r.counts.total_queries
                );
            }
            ctx.tally.op(run.and_then(|r| {
                if r.degraded {
                    return Err(format!("{}: degraded reference sweep", case.name()));
                }
                if let Some(v) = r.violations {
                    same(&format!("{}: LCL violations", case.name()), v, 0)?;
                }
                match case.expect() {
                    Some(want) => same(&format!("{}: pinned counts", case.name()), r.counts, want),
                    None => Ok(()),
                }
            }));
            counts
        })
        .collect()
}

/// Sweeps one case at one thread count per step, cycling through every
/// (case, threads) pair; the order of the two thread counts alternates per
/// pass. Every run's counts must equal the case's reference, so 1-thread
/// and 2-thread counts agree.
pub struct SweepPhase<'a> {
    cases: &'a [Box<dyn SweepCase>],
    refs: &'a [Option<Counts>],
    next: usize,
    /// Seconds per case, at 2 threads (`[0]`) and 1 thread (`[1]`).
    pub secs: Vec<[Vec<f64>; 2]>,
}

impl<'a> SweepPhase<'a> {
    pub fn new(cases: &'a [Box<dyn SweepCase>], refs: &'a [Option<Counts>]) -> Self {
        Self {
            cases,
            refs,
            next: 0,
            secs: cases.iter().map(|_| [Vec::new(), Vec::new()]).collect(),
        }
    }

    /// Starts per second at 2 (`t = 0`) or 1 (`t = 1`) threads: all starts
    /// over the sum of each case's median sweep time.
    pub fn starts_per_s(&self, t: usize) -> f64 {
        let starts: usize = self.cases.iter().map(|c| c.inst().n()).sum();
        starts as f64 / self.round_secs(t)
    }

    /// Sum over cases of the median sweep seconds at `t`.
    pub fn round_secs(&self, t: usize) -> f64 {
        self.secs.iter().map(|s| median(&s[t])).sum()
    }
}

impl Phase for SweepPhase<'_> {
    fn step(&mut self, ctx: &mut Ctx) {
        let n = self.cases.len();
        let k = self.next;
        self.next += 1;
        let pass = k / (2 * n);
        let (c, first) = ((k / 2) % n, k.is_multiple_of(2));
        let t = usize::from(first == (pass % 2 == 1));
        let (threads, name) = if t == 0 {
            (2, "engine.run_all_2t")
        } else {
            (1, "engine.run_all_1t")
        };
        let case = &self.cases[c];
        let span = ctx.spans.open(name, case.trace_id());
        let run = case.sweep(&Engine::with_threads(threads), false);
        ctx.spans.close(span);
        let secs = &mut self.secs[c][t];
        let want = self.refs[c];
        ctx.tally.op(run.and_then(|r| {
            secs.push(r.secs);
            if r.degraded {
                return Err(format!("{}: degraded sweep", case.name()));
            }
            let want = want.ok_or_else(|| format!("{}: no reference", case.name()))?;
            same(
                &format!("{} at {threads} threads", case.name()),
                r.counts,
                want,
            )
        }));
    }

    fn satisfied(&self) -> bool {
        self.next >= 4 * self.cases.len()
    }
}

// ----------------------------------------------------------- checkpoints

/// Per step: a 2-thread checkpointed sweep killed after half its chunks
/// (`with_chunk_quota`), then resumed to completion. The resumed file must
/// be byte-identical to an uninterrupted run's.
pub struct CkptPhase<'a> {
    case: &'a dyn SweepCase,
    dir: PathBuf,
    reference: Option<(u128, usize, Vec<u8>)>,
    pub kill_resume: Vec<f64>,
    pub kill: Vec<f64>,
    pub resume: Vec<f64>,
}

impl<'a> CkptPhase<'a> {
    /// Writes the uninterrupted reference checkpoint (untimed).
    pub fn new(ctx: &mut Ctx, case: &'a dyn SweepCase) -> Self {
        let dir = ctx.fresh_dir("ckpt");
        let path = dir.join("uninterrupted.json");
        let reference = case
            .checkpointed(&Engine::with_threads(2), &path)
            .map_err(|e| e.to_string())
            .and_then(|r| {
                same("uninterrupted run complete", r.is_complete(), true)?;
                let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
                Ok((r.total_queries, r.num_chunks / 2, bytes))
            });
        let reference = match reference {
            Ok(r) => Some(r),
            Err(e) => {
                ctx.tally
                    .op(Err(format!("{}: checkpoint reference: {e}", case.name())));
                None
            }
        };
        Self {
            case,
            dir,
            reference,
            kill_resume: Vec::new(),
            kill: Vec::new(),
            resume: Vec::new(),
        }
    }
}

impl Phase for CkptPhase<'_> {
    fn step(&mut self, ctx: &mut Ctx) {
        let Some((total_queries, half, reference)) = &self.reference else {
            self.kill_resume.push(0.0);
            return;
        };
        let (case, path) = (self.case, self.dir.join("killed.json"));
        let _ = std::fs::remove_file(&path);
        let trace = case.trace_id();
        let whole = ctx.spans.open("engine.kill_resume", trace);
        let t = Stopwatch::start();
        let span = ctx.spans.open("engine.kill", trace);
        let killed = case.checkpointed(&Engine::with_threads(2).with_chunk_quota(*half), &path);
        ctx.spans.close(span);
        let t_kill = t.elapsed().as_secs_f64();
        let span = ctx.spans.open("engine.resume", trace);
        let resumed = case.checkpointed(&Engine::with_threads(2), &path);
        ctx.spans.close(span);
        let t_all = t.elapsed().as_secs_f64();
        ctx.spans.close(whole);
        ctx.tally.op((|| -> Result<(), String> {
            let killed = killed.map_err(|e| format!("kill: {e}"))?;
            same("chunks done at the kill", killed.completed_chunks, *half)?;
            let resumed = resumed.map_err(|e| format!("resume: {e}"))?;
            same("resumed run complete", resumed.is_complete(), true)?;
            same(
                "resumed total queries",
                resumed.total_queries,
                *total_queries,
            )?;
            let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            same(
                "resumed checkpoint equals the uninterrupted one",
                &bytes == reference,
                true,
            )
        })()
        .map_err(|e| format!("{}: {e}", case.name())));
        self.kill_resume.push(t_all);
        self.kill.push(t_kill);
        self.resume.push(t_all - t_kill);
    }

    fn satisfied(&self) -> bool {
        self.kill_resume.len() >= 3
    }
}

// ---------------------------------------------------------------- stores

/// Per step: one pass of `load_instance` over the store files, in
/// milliseconds. Every loaded instance must carry its id.
pub struct LoadPhase<'a> {
    files: &'a [(PathBuf, InstanceId)],
    pub ms: Vec<f64>,
}

impl<'a> LoadPhase<'a> {
    pub fn new(files: &'a [(PathBuf, InstanceId)]) -> Self {
        Self {
            files,
            ms: Vec::new(),
        }
    }
}

impl Phase for LoadPhase<'_> {
    fn step(&mut self, ctx: &mut Ctx) {
        let mut ms = 0.0;
        for (path, id) in self.files {
            let span = ctx.spans.open("graph.load_instance", id.raw());
            let t = Stopwatch::start();
            let loaded = vc_graph::load_instance(path);
            ms += t.elapsed().as_secs_f64() * 1e3;
            ctx.spans.close(span);
            ctx.tally.op(loaded
                .map_err(|e| e.to_string())
                .and_then(|inst| same("loaded instance id", inst.instance_id(), *id)));
        }
        self.ms.push(ms);
    }

    fn satisfied(&self) -> bool {
        self.ms.len() >= 5
    }
}

// ---------------------------------------------------------------- set-up

/// Per step: one more build of the workload's inputs, discarded.
pub struct SetupPhase<'a> {
    build: &'a dyn Fn(&Path) -> Result<f64, String>,
    /// Seconds per build, and seconds in generators per build.
    pub secs: Vec<f64>,
    pub gen_secs: Vec<f64>,
}

impl<'a> SetupPhase<'a> {
    pub fn new(build: &'a dyn Fn(&Path) -> Result<f64, String>) -> Self {
        Self {
            build,
            secs: Vec::new(),
            gen_secs: Vec::new(),
        }
    }
}

impl Phase for SetupPhase<'_> {
    fn step(&mut self, ctx: &mut Ctx) {
        let dir = ctx.fresh_dir("setup");
        let sw = Stopwatch::start();
        let built = (self.build)(&dir);
        self.secs.push(sw.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
        match built {
            Ok(gen) => self.gen_secs.push(gen),
            Err(e) => ctx.tally.op(Err(format!("set-up: {e}"))),
        }
    }

    fn satisfied(&self) -> bool {
        self.secs.len() >= 3
    }
}

// ----------------------------------------------------------------- serve

/// The request stream of the serve phase.
pub struct ServePlan {
    /// Distinct interactive specs; each cycle submits every one (in a
    /// seeded order) once, then `repeats` more times.
    pub interactive: Vec<SweepSpec>,
    /// Batch specs; one is submitted per cycle without waiting, in turn.
    pub batch: Vec<SweepSpec>,
    pub repeats: usize,
    /// Result-store entry cap, below the number of distinct specs.
    pub cap: usize,
    /// Seed of the per-cycle request order.
    pub seed: u64,
}

/// The direct-engine payload of `spec`: its final checkpoint document.
pub fn reference_payload(spec: &SweepSpec, path: &Path) -> Result<String, String> {
    let _ = std::fs::remove_file(path);
    let report = spec
        .algorithm
        .run_checkpointed(
            &Engine::with_threads(2),
            &spec.instance.build(),
            &spec.run_config(),
            path,
        )
        .map_err(|e| e.to_string())?;
    same("reference run complete", report.is_complete(), true)?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(path);
    Ok(text)
}

/// Per step: one cycle of a closed-loop client against an in-process
/// `SweepService` and `ServeDaemon` (2 engine threads, fresh store, spool
/// and socket). A cycle submits a batch spec without waiting, then every
/// interactive spec once plus its repeats, opening one socket connection
/// per request and waiting for each reply, and ends by draining the batch
/// job, so no work of this phase overlaps another phase's samples.
pub struct ServePhase<'a> {
    plan: &'a ServePlan,
    /// Payload of `interactive[i]`, then of each batch spec in order.
    references: &'a [String],
    live: Option<(Arc<SweepService>, ServeDaemon)>,
    socket: PathBuf,
    rng: StdRng,
    last: Option<usize>,
    cycles: usize,
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    /// Verified, completed submissions (interactive and batch).
    pub completed: u64,
    /// Wall time of all cycles, batch drains included.
    pub window_s: f64,
    pub submit_rtt_ms: Vec<f64>,
    pub result_rtt_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub payload_bytes: Vec<f64>,
    pub parse_s: Vec<f64>,
    pub parse_bytes: f64,
    pub socket_rtt_us: Vec<f64>,
    pub stats: Option<vc_serve::ServeStats>,
    /// The store directory, kept for the traced store-load probe.
    pub store_dir: PathBuf,
    /// Sweep ids served, for the same probe.
    pub served: Vec<SweepId>,
}

impl<'a> ServePhase<'a> {
    /// Starts the service and binds the daemon.
    pub fn new(ctx: &mut Ctx, plan: &'a ServePlan, references: &'a [String]) -> Self {
        let dir = ctx.fresh_dir("serve");
        let config = ServeConfig {
            threads: 2,
            store_dir: dir.join("store"),
            spool_dir: dir.join("spool"),
            max_store_entries: Some(plan.cap),
        };
        let socket = dir.join("s.sock");
        let live = SweepService::start(&config)
            .map_err(|e| format!("serve start: {e}"))
            .and_then(|service| {
                let service = Arc::new(service);
                let daemon = ServeDaemon::bind(Arc::clone(&service), &socket)
                    .map_err(|e| format!("serve bind: {e}"))?;
                Ok((service, daemon))
            });
        let live = match live {
            Ok(l) => Some(l),
            Err(e) => {
                ctx.tally.op(Err(e));
                None
            }
        };
        Self {
            plan,
            references,
            live,
            socket,
            rng: StdRng::seed_from_u64(plan.seed),
            last: None,
            cycles: 0,
            hit_ms: Vec::new(),
            miss_ms: Vec::new(),
            completed: 0,
            window_s: 0.0,
            submit_rtt_ms: Vec::new(),
            result_rtt_ms: Vec::new(),
            queue_wait_ms: Vec::new(),
            run_ms: Vec::new(),
            payload_bytes: Vec::new(),
            parse_s: Vec::new(),
            parse_bytes: 0.0,
            socket_rtt_us: Vec::new(),
            stats: None,
            store_dir: config.store_dir,
            served: Vec::new(),
        }
    }

    /// Verified submissions per second of serve time.
    pub fn requests_per_s(&self) -> f64 {
        self.completed as f64 / self.window_s
    }

    /// Records the final counters, stops the daemon and the service.
    pub fn finish(&mut self, ctx: &mut Ctx) {
        let Some((service, daemon)) = self.live.take() else {
            return;
        };
        self.stats = Some(service.stats());
        ctx.tally
            .op(ask(&self.socket, "{\"op\":\"shutdown\"}").and_then(|r| ok_doc(&r).map(drop)));
        daemon.join();
        match Arc::try_unwrap(service) {
            Ok(service) => drop(service.shutdown()),
            Err(_) => ctx
                .tally
                .op(Err("serve: service still shared at shutdown".into())),
        }
    }

    /// Submits `spec` and returns `(job, cache_hit)`.
    fn submit(&mut self, ctx: &mut Ctx, spec: &SweepSpec) -> Result<(u64, bool), String> {
        let line = format!("{{\"op\":\"submit\",\"spec\":{}}}", spec.to_json_line());
        let span = ctx.spans.open("serve.submit", 0);
        let t = Stopwatch::start();
        let reply = ask(&self.socket, &line);
        self.submit_rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ctx.spans.close(span);
        let doc = ok_doc(&reply?)?;
        let job = doc
            .get("job")
            .and_then(Value::as_u64)
            .ok_or("reply without job")?;
        let hit = doc
            .get("cache_hit")
            .and_then(Value::as_bool)
            .ok_or("reply without cache_hit")?;
        Ok((job, hit))
    }

    /// Fetches a finished job's payload over the socket and parses it.
    fn fetch(&mut self, ctx: &mut Ctx, job: u64) -> Result<String, String> {
        let line = format!("{{\"op\":\"result\",\"job\":{job}}}");
        let span = ctx.spans.open("serve.result", job);
        let t = Stopwatch::start();
        let reply = ask(&self.socket, &line);
        self.result_rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ctx.spans.close(span);
        let reply = reply?;
        let span = ctx.spans.open("json.parse", job);
        let t = Stopwatch::start();
        let doc = ok_doc(&reply);
        let secs = t.elapsed().as_secs_f64();
        ctx.spans.close(span);
        self.parse_s.push(secs);
        self.parse_bytes += reply.len() as f64;
        let payload = doc?
            .get("payload")
            .and_then(Value::as_str)
            .ok_or("reply without payload")?
            .to_string();
        self.payload_bytes.push(payload.len() as f64);
        Ok(payload)
    }

    /// One interactive request: submit, wait for the job when it missed,
    /// fetch and parse the payload. Returns `(payload, cache_hit, ms, id)`.
    fn request(
        &mut self,
        ctx: &mut Ctx,
        service: &SweepService,
        spec: &SweepSpec,
    ) -> Result<(String, bool, f64, SweepId), String> {
        let whole = ctx.spans.open("serve.request", 0);
        let t = Stopwatch::start();
        let (job, hit) = self.submit(ctx, spec)?;
        ctx.spans.set_trace(&whole, job);
        if !hit {
            let waited = Stopwatch::start();
            let span = ctx.spans.open("serve.queue_wait", job);
            let status = service.wait_job(job, WAIT, |s| s.state != JobState::Queued);
            ctx.spans.close(span);
            self.queue_wait_ms
                .push(waited.elapsed().as_secs_f64() * 1e3);
            status.map_err(|e| e.to_string())?;
            let ran = Stopwatch::start();
            let span = ctx.spans.open("serve.run", job);
            let status = service.wait_job(job, WAIT, is_finished);
            ctx.spans.close(span);
            self.run_ms.push(ran.elapsed().as_secs_f64() * 1e3);
            status.map_err(|e| e.to_string())?;
        }
        let payload = self.fetch(ctx, job)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        ctx.spans.close(whole);
        let id = service.status(job).map_err(|e| e.to_string())?.sweep_id;
        Ok((payload, hit, ms, id))
    }

    /// Fetches and verifies every pending batch job that has finished;
    /// with `drain`, waits for all of them.
    fn collect(
        &mut self,
        ctx: &mut Ctx,
        service: &SweepService,
        pending: &mut Vec<(u64, usize)>,
        drain: bool,
    ) {
        let mut keep = Vec::new();
        for (job, r) in pending.drain(..) {
            let status = if drain {
                service.wait_job(job, WAIT, is_finished)
            } else {
                service.status(job)
            };
            match status {
                Ok(s) if is_finished(&s) => {
                    let fetched = self.fetch(ctx, job);
                    let ok = fetched.and_then(|payload| {
                        same(
                            "batch payload equals the direct run",
                            payload == self.references[r],
                            true,
                        )
                    });
                    if ok.is_ok() {
                        self.completed += 1;
                    }
                    ctx.tally.op(ok);
                }
                Ok(_) => keep.push((job, r)),
                Err(e) => ctx.tally.op(Err(format!("batch job {job}: {e}"))),
            }
        }
        *pending = keep;
    }
}

impl Phase for ServePhase<'_> {
    fn step(&mut self, ctx: &mut Ctx) {
        let Some(service) = self.live.as_ref().map(|(s, _)| Arc::clone(s)) else {
            self.cycles += 1;
            return;
        };
        let sw = Stopwatch::start();
        let plan = self.plan;
        let n_int = plan.interactive.len();
        let mut pending = Vec::new();
        if !plan.batch.is_empty() {
            let b = self.cycles % plan.batch.len();
            match self.submit(ctx, &plan.batch[b]) {
                Ok((job, _)) => pending.push((job, n_int + b)),
                Err(e) => ctx.tally.op(Err(format!("batch submit: {e}"))),
            }
        }
        let mut order: Vec<usize> = (0..n_int).collect();
        order.shuffle(&mut self.rng);
        // A spec that ended the last cycle would still be stored; keep it
        // off the front so every cycle opens with a miss.
        if n_int > 1 && self.last == Some(order[0]) {
            order.swap(0, 1);
        }
        self.last = order.last().copied();
        for i in order {
            for _ in 0..=plan.repeats {
                let result = self.request(ctx, &service, &plan.interactive[i]);
                let outcome = result.and_then(|(payload, hit, ms, id)| {
                    same(
                        "payload equals the direct run",
                        payload == self.references[i],
                        true,
                    )?;
                    if hit {
                        self.hit_ms.push(ms);
                    } else {
                        self.miss_ms.push(ms);
                    }
                    self.served.push(id);
                    self.completed += 1;
                    Ok(())
                });
                ctx.tally.op(outcome);
                // Collect batch jobs as they finish, before eviction can
                // reach their results.
                self.collect(ctx, &service, &mut pending, false);
            }
        }
        self.collect(ctx, &service, &mut pending, true);
        let span = ctx.spans.open("serve.stats", 0);
        let t = Stopwatch::start();
        let stats = ask(&self.socket, "{\"op\":\"stats\"}").and_then(|r| ok_doc(&r).map(drop));
        self.socket_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        ctx.spans.close(span);
        ctx.tally.op(stats);
        self.window_s += sw.elapsed().as_secs_f64();
        self.cycles += 1;
    }

    fn satisfied(&self) -> bool {
        self.cycles >= 2
    }
}

fn ask(socket: &Path, line: &str) -> Result<String, String> {
    vc_serve::request(socket, line).map_err(|e| format!("socket: {e}"))
}

fn ok_doc(text: &str) -> Result<Value, String> {
    let doc = vc_json::parse(text).map_err(|e| format!("bad reply: {e}"))?;
    if doc.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(doc)
    } else {
        Err(format!(
            "request refused: {}",
            doc.get("error").and_then(Value::as_str).unwrap_or("?")
        ))
    }
}

fn is_finished(s: &JobStatus) -> bool {
    matches!(s.state, JobState::Done { .. } | JobState::Failed)
}
