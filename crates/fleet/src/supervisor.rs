//! The [`Supervisor`] loop: poll, suspect, kill, reassign, merge.
//!
//! This module is the workspace's **only** sanctioned sleep site (lint
//! rule VC015): the supervisor's poll cadence and counter-driven
//! relaunch backoff are the one place the codebase may voluntarily wait
//! on wall-clock time. Deadlines themselves are measured through
//! [`Stopwatch`], the single sanctioned clock (VC006) — the supervisor
//! adds no hidden `Instant::now` sites.

use crate::report::{FleetReport, WorkerReport};
use crate::{FleetConfig, FleetError, LaunchSpec, WorkerBackend, WorkerStatus};
use std::path::{Path, PathBuf};
use vc_engine::{splice_partial, ChunkSet, SweepCheckpoint};
use vc_trace::time::Stopwatch;
use vc_trace::{TraceEvent, Tracer};

/// What a supervised fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The merged checkpoint over every part file the fleet wrote —
    /// complete unless chunks were abandoned. Carries no partition
    /// stamp, so a complete merge is byte-identical to an unbroken
    /// single-process run, and an incomplete one resumes directly.
    pub checkpoint: SweepCheckpoint,
    /// Chunks absent from the merged checkpoint (the abandoned ones),
    /// ascending. Empty for a converged fleet.
    pub missing: Vec<usize>,
    /// The full supervision ledger.
    pub report: FleetReport,
}

/// One tracked launch: its assignment, its part file, and the
/// progress/liveness state the poll loop updates.
struct Active<H> {
    worker: usize,
    assigned: Vec<usize>,
    path: PathBuf,
    handle: H,
    /// Completed assigned chunks at the last heartbeat observation.
    progress: usize,
    /// Restarted on every progress observation; when it outlives the
    /// liveness deadline, the launch is suspected dead.
    sw: Stopwatch,
    /// Whether the supervisor killed this launch (deadline suspicion).
    suspected: bool,
    /// Whether the launch's own exit reported failure.
    exit_failed: bool,
}

/// The deterministic fleet supervisor. See the crate docs for the
/// supervision model and [`FleetConfig`] for the knobs.
#[derive(Clone, Debug, Default)]
pub struct Supervisor {
    config: FleetConfig,
}

impl Supervisor {
    /// A supervisor with the given configuration.
    pub fn new(config: FleetConfig) -> Self {
        Self { config }
    }

    /// The supervisor's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs one supervised fleet sweep over a plan of `num_chunks`
    /// chunks, writing part files into `part_dir` (initial slices as
    /// `part{w}.json`, recovery launches as `part{w}_r{launch}.json`).
    ///
    /// The loop: launch one worker per initial slice; poll every
    /// [`FleetConfig::poll_interval`]; on heartbeat silence past
    /// [`FleetConfig::liveness_deadline`] kill the launch
    /// (kill-before-read), then compute its missing chunks from its
    /// part file and relaunch exactly those as a [`ChunkSet`] — after a
    /// counter-driven backoff, with chunks over the launch cap
    /// abandoned instead. When no launch remains, every part file is
    /// merged with [`splice_partial`].
    ///
    /// # Errors
    ///
    /// [`FleetError::EmptySweep`] for a zero-chunk plan,
    /// [`FleetError::Launch`] when the backend cannot start a worker,
    /// [`FleetError::Part`] when a part file is unreadable at merge
    /// time, and [`FleetError::Splice`] when the parts overlap or
    /// mismatch — each an assignment/infrastructure failure, never a
    /// recoverable worker death (those degrade instead).
    pub fn run<B: WorkerBackend, T: Tracer>(
        &self,
        backend: &mut B,
        num_chunks: usize,
        part_dir: &Path,
        tracer: &mut T,
    ) -> Result<FleetOutcome, FleetError> {
        if num_chunks == 0 {
            return Err(FleetError::EmptySweep);
        }
        let workers = self.config.workers.max(1).min(num_chunks);
        let mut report = FleetReport {
            num_chunks,
            chunk_attempts: vec![0; num_chunks],
            workers: vec![WorkerReport::default(); workers],
            ..FleetReport::default()
        };
        let mut part_paths: Vec<PathBuf> = Vec::new();
        let mut active: Vec<Active<B::Handle>> = Vec::new();
        let mut abandoned: Vec<usize> = Vec::new();
        let mut next_launch = 0usize;

        let start = |chunks: ChunkSet,
                     worker: usize,
                     path: PathBuf,
                     next_launch: &mut usize,
                     report: &mut FleetReport,
                     part_paths: &mut Vec<PathBuf>,
                     backend: &mut B|
         -> Result<Active<B::Handle>, FleetError> {
            let assigned: Vec<usize> = chunks.chunks().collect();
            let mut attempt = 1;
            for &c in &assigned {
                report.chunk_attempts[c] += 1;
                attempt = attempt.max(report.chunk_attempts[c]);
            }
            let spec = LaunchSpec {
                worker,
                launch: *next_launch,
                chunks,
                part_path: path.clone(),
                attempt,
            };
            *next_launch += 1;
            report.launches += 1;
            report.workers[worker].launches += 1;
            part_paths.push(path.clone());
            let handle = backend.launch(&spec)?;
            Ok(Active {
                worker,
                assigned,
                path,
                handle,
                progress: 0,
                sw: Stopwatch::start(),
                suspected: false,
                exit_failed: false,
            })
        };

        for (w, slice) in ChunkSet::split(num_chunks, workers).into_iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            let path = part_dir.join(format!("part{w}.json"));
            active.push(start(
                slice,
                w,
                path,
                &mut next_launch,
                &mut report,
                &mut part_paths,
                backend,
            )?);
        }

        while !active.is_empty() {
            std::thread::sleep(self.config.poll_interval);
            // Collect indices of launches that ended this tick (exited,
            // or suspected and killed), then finalize them outside the
            // poll loop.
            let mut ended: Vec<usize> = Vec::new();
            for (i, a) in active.iter_mut().enumerate() {
                match backend.poll(&mut a.handle) {
                    WorkerStatus::Exited { success } => {
                        a.exit_failed = !success;
                        ended.push(i);
                    }
                    WorkerStatus::Running => {
                        let done = completed_assigned(&a.path, &a.assigned);
                        if done > a.progress {
                            a.progress = done;
                            a.sw = Stopwatch::start();
                        } else if a.sw.elapsed() >= self.config.liveness_deadline {
                            tracer.on(TraceEvent::WorkerSuspected {
                                worker: a.worker,
                                completed: done,
                                assigned: a.assigned.len(),
                            });
                            report.suspected += 1;
                            report.workers[a.worker].suspected += 1;
                            a.suspected = true;
                            // Kill-before-read: after this the part file
                            // is frozen, so the reassignment computed
                            // below cannot overlap late writes.
                            backend.kill(&mut a.handle);
                            ended.push(i);
                        }
                    }
                }
            }
            // Highest index first so swap_remove leaves earlier ones
            // valid.
            while let Some(i) = ended.pop() {
                let a = active.swap_remove(i);
                let done = read_completed_set(&a.path, &a.assigned);
                report.workers[a.worker].completed_chunks += done.len();
                let missing: Vec<usize> = a
                    .assigned
                    .iter()
                    .copied()
                    .filter(|c| !done.contains(c))
                    .collect();
                if missing.is_empty() {
                    continue; // a healthy completion
                }
                if a.exit_failed || a.suspected {
                    report.workers[a.worker].failed += u32::from(a.exit_failed);
                } else {
                    // A clean exit that did not finish its claim is
                    // still a death for accounting purposes.
                    report.workers[a.worker].failed += 1;
                }
                let mut retry: Vec<usize> = Vec::new();
                for &c in &missing {
                    if report.chunk_attempts[c] >= self.config.max_chunk_attempts {
                        abandoned.push(c);
                    } else {
                        retry.push(c);
                    }
                }
                if retry.is_empty() {
                    // Every missing chunk is over the attempt cap: the
                    // launch is abandoned wholesale, nothing will be
                    // relaunched, and the relaunch backoff must not run —
                    // sleeping here would stall the final merge for a
                    // retry that never happens. The sleep below is
                    // structurally reachable only when a relaunch
                    // follows it.
                    continue;
                }
                let Ok(chunks) = ChunkSet::from_chunks(&retry, num_chunks) else {
                    continue; // unreachable: retry chunks came from the plan
                };
                // Counter-driven backoff: exponential in the highest
                // attempt number about to be retried, never in any
                // measured time.
                let attempt = retry
                    .iter()
                    .map(|&c| report.chunk_attempts[c] + 1)
                    .max()
                    .unwrap_or(2);
                let exp = attempt.saturating_sub(2).min(16);
                let backoff = self
                    .config
                    .backoff_base
                    .saturating_mul(1 << exp)
                    .min(self.config.backoff_cap);
                std::thread::sleep(backoff);
                for &c in &retry {
                    tracer.on(TraceEvent::ChunkReassigned {
                        chunk: c,
                        attempt: report.chunk_attempts[c] + 1,
                    });
                }
                report.reassigned += retry.len() as u32;
                let path = part_dir.join(format!("part{}_r{next_launch}.json", a.worker));
                active.push(start(
                    chunks,
                    a.worker,
                    path,
                    &mut next_launch,
                    &mut report,
                    &mut part_paths,
                    backend,
                )?);
            }
        }

        // The authoritative merge: every part file that exists is read
        // loudly (a launch killed before its first commit legitimately
        // never created its file).
        let mut parts: Vec<SweepCheckpoint> = Vec::new();
        for path in &part_paths {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => {
                    return Err(FleetError::Part {
                        path: path.clone(),
                        message: e.to_string(),
                    })
                }
            };
            parts.push(
                SweepCheckpoint::from_json(&text).map_err(|message| FleetError::Part {
                    path: path.clone(),
                    message,
                })?,
            );
        }
        let (checkpoint, missing) = splice_partial(&parts)?;
        tracer.on(TraceEvent::PartialSplice {
            merged: checkpoint.completed_chunks(),
            missing: missing.len(),
        });
        abandoned.sort_unstable();
        abandoned.dedup();
        report.abandoned_chunks = abandoned;
        report.degraded = !missing.is_empty();
        Ok(FleetOutcome {
            checkpoint,
            missing,
            report,
        })
    }
}

/// Advisory heartbeat read: how many of `assigned` are complete in the
/// part file at `path`. Unreadable or malformed files count as zero
/// progress — a worker whose heartbeat cannot be read looks dead, which
/// is the safe direction (kill-before-read keeps a false positive
/// harmless).
fn completed_assigned(path: &Path, assigned: &[usize]) -> usize {
    read_completed_set(path, assigned).len()
}

/// The assigned chunks that are complete in the part file at `path`
/// (empty on any read/parse failure — see [`completed_assigned`]).
fn read_completed_set(path: &Path, assigned: &[usize]) -> Vec<usize> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(ckpt) = SweepCheckpoint::from_json(&text) else {
        return Vec::new();
    };
    assigned
        .iter()
        .copied()
        .filter(|&c| ckpt.chunks.get(c).is_some_and(Option::is_some))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetConfig;
    use std::time::Duration;
    use vc_engine::SweepIdentity;
    use vc_ident::{InstanceId, SweepId};
    use vc_model::cost::ExecutionRecord;
    use vc_trace::{RecordingTracer, TraceEvent};

    fn identity() -> SweepIdentity {
        SweepIdentity {
            instance_id: InstanceId::from_raw(7),
            sweep_id: SweepId::from_raw(1),
        }
    }

    fn rec(root: usize) -> ExecutionRecord {
        ExecutionRecord {
            root,
            volume: 3,
            distance: Some(1),
            distance_upper: 2,
            queries: 5,
            random_bits: 0,
            completed: true,
        }
    }

    /// The serial ground truth: every chunk present, no partition stamp.
    fn full_checkpoint(num_chunks: usize) -> SweepCheckpoint {
        let mut ckpt = SweepCheckpoint::fresh(identity(), num_chunks);
        for c in 0..num_chunks {
            ckpt.chunks[c] = Some(vec![rec(c)]);
        }
        ckpt
    }

    /// What one scripted launch does: complete its first `complete`
    /// assigned chunks immediately, then either exit (`Some(success)`)
    /// or stall forever (`None`, until the supervisor kills it).
    #[derive(Clone, Copy)]
    struct Script {
        complete: usize,
        exit: Option<bool>,
    }

    const HEALTHY: Script = Script {
        complete: usize::MAX,
        exit: Some(true),
    };

    struct Handle {
        exit: Option<bool>,
    }

    /// An in-process backend: launch `n` consumes script `n` (launch
    /// order is deterministic), writes the part file up front, and
    /// reports the scripted status on every poll.
    struct ScriptedBackend {
        scripts: Vec<Script>,
        launched: usize,
        kills: usize,
    }

    impl ScriptedBackend {
        fn new(scripts: Vec<Script>) -> Self {
            Self {
                scripts,
                launched: 0,
                kills: 0,
            }
        }
    }

    impl WorkerBackend for ScriptedBackend {
        type Handle = Handle;

        fn launch(&mut self, spec: &LaunchSpec) -> Result<Handle, FleetError> {
            let script = self.scripts.get(self.launched).copied().unwrap_or(HEALTHY);
            self.launched += 1;
            assert_eq!(spec.launch, self.launched - 1);
            let mut part = SweepCheckpoint::fresh(identity(), spec.chunks.total());
            part.partition = Some(spec.chunks.clone());
            for c in spec.chunks.chunks().take(script.complete) {
                part.chunks[c] = Some(vec![rec(c)]);
            }
            std::fs::write(&spec.part_path, part.to_json()).map_err(|e| FleetError::Launch {
                worker: spec.worker,
                message: e.to_string(),
            })?;
            Ok(Handle { exit: script.exit })
        }

        fn poll(&mut self, handle: &mut Handle) -> WorkerStatus {
            match handle.exit {
                Some(success) => WorkerStatus::Exited { success },
                None => WorkerStatus::Running,
            }
        }

        fn kill(&mut self, _handle: &mut Handle) {
            self.kills += 1;
        }
    }

    fn fast_config(workers: usize) -> FleetConfig {
        FleetConfig {
            workers,
            liveness_deadline: Duration::from_millis(40),
            poll_interval: Duration::from_millis(2),
            max_chunk_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
        }
    }

    fn part_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vc-fleet-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn healthy_fleet_merges_byte_identically_to_serial() {
        let dir = part_dir("healthy");
        let mut backend = ScriptedBackend::new(vec![HEALTHY; 4]);
        let mut tracer = RecordingTracer::default();
        let out = Supervisor::new(fast_config(4))
            .run(&mut backend, 10, &dir, &mut tracer)
            .unwrap();
        assert!(out.missing.is_empty());
        assert!(!out.report.degraded);
        assert_eq!(out.report.launches, 4);
        assert_eq!(out.report.deaths(), 0);
        assert_eq!(out.report.reassigned, 0);
        assert_eq!(out.report.chunk_attempts, vec![1; 10]);
        assert_eq!(out.checkpoint.to_json(), full_checkpoint(10).to_json());
        assert_eq!(backend.kills, 0);
    }

    #[test]
    fn crashed_workers_missing_chunks_are_reassigned_and_recovered() {
        let dir = part_dir("crash");
        // Worker 1 (chunks 3..6) crashes after 1 chunk; worker 2
        // (chunks 6..8) exits "cleanly" having done nothing. Recovery
        // launches are healthy.
        let scripts = vec![
            HEALTHY,
            Script {
                complete: 1,
                exit: Some(false),
            },
            Script {
                complete: 0,
                exit: Some(true),
            },
            HEALTHY,
        ];
        let mut backend = ScriptedBackend::new(scripts);
        let mut tracer = RecordingTracer::default();
        let out = Supervisor::new(fast_config(4))
            .run(&mut backend, 10, &dir, &mut tracer)
            .unwrap();
        assert!(out.missing.is_empty(), "recovered fleet: {:?}", out.missing);
        assert!(!out.report.degraded);
        assert_eq!(out.report.deaths(), 2);
        assert_eq!(out.report.reassigned, 4); // chunks 4,5 and 6,7
        assert_eq!(out.report.launches, 6);
        assert_eq!(out.checkpoint.to_json(), full_checkpoint(10).to_json());
        let mut reassigned: Vec<(usize, u32)> = tracer
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::ChunkReassigned { chunk, attempt } => Some((chunk, attempt)),
                _ => None,
            })
            .collect();
        reassigned.sort_unstable();
        assert_eq!(reassigned, vec![(4, 2), (5, 2), (6, 2), (7, 2)]);
    }

    #[test]
    fn stalled_worker_is_suspected_killed_and_its_chunks_rerun() {
        let dir = part_dir("stall");
        // Worker 0 (chunks 0..3) completes 2 chunks then stalls forever.
        let scripts = vec![
            Script {
                complete: 2,
                exit: None,
            },
            HEALTHY,
        ];
        let mut backend = ScriptedBackend::new(scripts);
        let mut tracer = RecordingTracer::default();
        let out = Supervisor::new(fast_config(1))
            .run(&mut backend, 3, &dir, &mut tracer)
            .unwrap();
        assert!(out.missing.is_empty());
        assert_eq!(out.report.suspected, 1);
        assert_eq!(out.report.workers[0].suspected, 1);
        assert_eq!(backend.kills, 1, "suspected worker must be killed");
        assert_eq!(out.checkpoint.to_json(), full_checkpoint(3).to_json());
        assert!(tracer.events.iter().any(|e| matches!(
            e,
            TraceEvent::WorkerSuspected {
                worker: 0,
                completed: 2,
                assigned: 3
            }
        )));
    }

    #[test]
    fn chunks_over_the_attempt_cap_are_abandoned_loudly() {
        let dir = part_dir("abandon");
        // One worker, one chunk, and every launch stalls with nothing
        // done: attempts 1, 2, 3 all fail, then the chunk is abandoned.
        let stall = Script {
            complete: 0,
            exit: None,
        };
        let mut backend = ScriptedBackend::new(vec![stall; 8]);
        let mut tracer = RecordingTracer::default();
        let out = Supervisor::new(fast_config(1))
            .run(&mut backend, 1, &dir, &mut tracer)
            .unwrap();
        assert_eq!(out.missing, vec![0]);
        assert!(out.report.degraded);
        assert_eq!(out.report.abandoned_chunks, vec![0]);
        assert_eq!(out.report.launches, 3);
        assert_eq!(out.report.chunk_attempts, vec![3]);
        assert_eq!(out.report.suspected, 3);
        assert_eq!(out.checkpoint.completed_chunks(), 0);
        assert!(tracer.events.iter().any(|e| matches!(
            e,
            TraceEvent::PartialSplice {
                merged: 0,
                missing: 1
            }
        )));
    }

    #[test]
    fn abandoning_pass_takes_no_backoff_sleep() {
        let dir = part_dir("no-futile-backoff");
        // One chunk, an attempt cap of 1 and a prohibitive backoff: the
        // single launch stalls, is suspected and killed, and its chunk is
        // immediately over the cap. The old flow computed and slept the
        // relaunch backoff even on this abandoning pass; with a
        // 30-second base that would stall the merge for half a minute.
        // The run must instead finish in roughly one liveness deadline.
        let stall = Script {
            complete: 0,
            exit: None,
        };
        let mut backend = ScriptedBackend::new(vec![stall]);
        let config = FleetConfig {
            max_chunk_attempts: 1,
            backoff_base: Duration::from_secs(30),
            backoff_cap: Duration::from_secs(30),
            ..fast_config(1)
        };
        let sw = Stopwatch::start();
        let out = Supervisor::new(config)
            .run(&mut backend, 1, &dir, &mut vc_trace::NoopTracer)
            .unwrap();
        assert!(
            sw.elapsed() < Duration::from_secs(10),
            "abandoning pass slept the futile backoff ({:?} elapsed)",
            sw.elapsed()
        );
        assert_eq!(out.report.launches, 1, "no relaunch after abandonment");
        assert_eq!(out.report.abandoned_chunks, vec![0]);
        assert_eq!(out.missing, vec![0]);
        assert!(out.report.degraded);
    }

    #[test]
    fn empty_sweeps_are_refused() {
        let dir = part_dir("empty");
        let mut backend = ScriptedBackend::new(Vec::new());
        let err = Supervisor::new(fast_config(2))
            .run(&mut backend, 0, &dir, &mut vc_trace::NoopTracer)
            .unwrap_err();
        assert_eq!(err, FleetError::EmptySweep);
    }
}
