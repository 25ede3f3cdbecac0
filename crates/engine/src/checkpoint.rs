//! Checkpoint / resume for recorded sweeps (`vc-engine-checkpoint/v2`).
//!
//! Long sweeps die: machines reboot, CI jobs hit wall-clock limits,
//! operators hit Ctrl-C. [`Engine::run_recorded_with_checkpoint`] makes a
//! sweep resumable by persisting, after every run, the per-chunk
//! [`ExecutionRecord`]s completed so far. A resumed run loads the file,
//! marks the checkpointed chunks done, executes only the remainder and
//! rewrites the file — and because chunk contents, chunk order and the
//! record encoding are all deterministic, the resumed file and report are
//! **byte-identical** to what one unbroken run would have produced.
//!
//! The file is JSON, written by hand and read back with the dependency-free
//! parser in `vc-json` (the vendored serde is a no-op stand-in; see
//! DESIGN.md §3). Every counter in a record fits `f64` exactly
//! (`vc_json::Value::as_u64` enforces this on read), so the
//! integer round-trip is lossless.
//!
//! A checkpoint is only valid for the exact sweep that produced it: the
//! file carries the content-addressed [`SweepIdentity`] — an
//! [`InstanceId`] over the full CSR adjacency and every node label, and a
//! [`SweepId`] additionally folding the algorithm identity (including any
//! fault plan), run configuration, start set and chunk size (DESIGN.md
//! §12). A mismatch is a loud [`EngineError::BadCheckpoint`], never a
//! silent mixing of two different sweeps' records. `v1` files hashed only
//! the instance *size*, so two same-size instances or two fault plans
//! could silently share a checkpoint; they are rejected outright — delete
//! the file and rerun the sweep (see README "Checkpoint compatibility").
//!
//! Checkpoints store *costs*, not *outputs*: `A::Output` is generic and has
//! no serial form offline. Sweeps that need the labeling itself (e.g. the
//! validity checks in `tests/`) must run unbroken; the checkpoint path is
//! for the cost-summary sweeps behind `BENCH_*.json` baselines, where the
//! records are the product.

use crate::partition::{ChunkSet, RangeError};
use crate::{plan_chunks, run_sharded, Engine};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use vc_graph::Instance;
use vc_ident::{IdHasher, InstanceId, SweepId};
use vc_json as json;
use vc_model::cost::{CostAccumulator, CostSummary, ExecutionRecord};
use vc_model::run::{QueryAlgorithm, RunConfig, StartError};
use vc_trace::time::Stopwatch;
use vc_trace::NoopTracer;

/// Schema identifier written into every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "vc-engine-checkpoint/v2";

/// The retired pre-identity schema: its fingerprint folded only the
/// instance *size*, so it cannot tell two same-size instances (or two
/// fault plans) apart. Files with this schema are rejected with a
/// migration message rather than resumed.
const CHECKPOINT_SCHEMA_V1: &str = "vc-engine-checkpoint/v1";

/// Failures of the checkpointed sweep path. Always loud: the engine never
/// silently discards or mixes checkpoint state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The configured start selection is invalid (same as the serial
    /// runner's error).
    Start(StartError),
    /// The configured chunk set does not fit the sweep's chunk plan.
    Partition(RangeError),
    /// Reading or writing the checkpoint file failed.
    Io(String),
    /// The checkpoint file is malformed or belongs to a different sweep.
    BadCheckpoint(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Start(e) => write!(f, "invalid start selection: {e}"),
            EngineError::Partition(e) => write!(f, "invalid chunk range: {e}"),
            EngineError::Io(msg) => write!(f, "checkpoint I/O failed: {msg}"),
            EngineError::BadCheckpoint(msg) => write!(f, "unusable checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StartError> for EngineError {
    fn from(e: StartError) -> Self {
        EngineError::Start(e)
    }
}

impl From<RangeError> for EngineError {
    fn from(e: RangeError) -> Self {
        EngineError::Partition(e)
    }
}

/// The content-addressed identity of one sweep, as computed by
/// [`sweep_identity`] and persisted in every checkpoint file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepIdentity {
    /// Identity of the labeled instance (graph content + all labels).
    pub instance_id: InstanceId,
    /// Identity of the whole sweep: instance, algorithm (with any fault
    /// plan), run configuration, start set and chunk size.
    pub sweep_id: SweepId,
}

/// Computes the [`SweepIdentity`] a checkpoint belongs to: the
/// [`InstanceId`] over the full instance content, and a [`SweepId`]
/// folding that id plus the algorithm identity
/// ([`QueryAlgorithm::fold_identity`] — the fault plan included, for
/// wrapped algorithms), the run configuration (budgets, exact-distance,
/// randomness tape, start selection), the resolved start set and the
/// *full* chunk plan — both the planned chunk size and the total chunk
/// count of [`plan_chunks`]. The plan is folded whole so that every
/// partition of a fleet run agrees on one identity: a
/// [`ChunkSet`] restriction deliberately does *not* enter the id, which
/// is what lets disjoint partial checkpoints splice into a file
/// byte-identical to an unpartitioned run (DESIGN.md §15).
/// Anything that can change a chunk's records is folded in here, and
/// nowhere else — this is the single audited identity computation
/// (DESIGN.md §12).
pub fn sweep_identity<A: QueryAlgorithm>(
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
    starts: &[usize],
) -> SweepIdentity {
    let instance_id = inst.instance_id();
    let mut h = IdHasher::new("vc-sweep/v2");
    h.word(instance_id.raw());
    algo.fold_identity(&mut h);
    config.fold_content(&mut h);
    h.word(starts.len() as u64);
    for &s in starts {
        h.word(s as u64);
    }
    let plan = plan_chunks(starts.len());
    h.words(&[plan.chunk_size as u64, plan.num_chunks as u64]);
    SweepIdentity {
        instance_id,
        sweep_id: SweepId::from_raw(h.finish()),
    }
}

/// The persistent state of a checkpointed sweep: one slot per chunk,
/// `Some` once that chunk's records are complete.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCheckpoint {
    /// Identity of the sweep this checkpoint belongs to (see
    /// [`sweep_identity`]).
    pub identity: SweepIdentity,
    /// Total chunks in the sweep's fixed partition.
    pub num_chunks: usize,
    /// The chunk set the writing engine was restricted to, if any —
    /// fleet workers record their slice (or reassigned chunk set) here so
    /// partial files are self-describing. `None` for unrestricted runs
    /// *and* for spliced merges, so the `partition` key is absent from
    /// full checkpoints and a merged file is byte-identical to a
    /// single-process run's. A one-run set displays as `lo..hi/total`,
    /// the stamp layout of every range-partitioned file.
    pub partition: Option<ChunkSet>,
    /// Per-chunk completed records, in chunk order.
    pub chunks: Vec<Option<Vec<ExecutionRecord>>>,
}

impl SweepCheckpoint {
    /// An empty checkpoint for a sweep with the given shape.
    pub fn fresh(identity: SweepIdentity, num_chunks: usize) -> Self {
        Self {
            identity,
            num_chunks,
            partition: None,
            chunks: vec![None; num_chunks],
        }
    }

    /// Number of chunks whose records are present.
    pub fn completed_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    /// Whether every chunk is present.
    pub fn is_complete(&self) -> bool {
        self.completed_chunks() == self.num_chunks
    }

    /// Serializes the checkpoint as a `vc-engine-checkpoint/v2` JSON
    /// document. The encoding is a pure function of the checkpoint state —
    /// the byte-identity of resumed runs rests on this.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{}\",\n  \"instance_id\": \"{}\",\n  \"sweep_id\": \"{}\",\n",
            json::escape(CHECKPOINT_SCHEMA),
            self.identity.instance_id,
            self.identity.sweep_id,
        );
        // The partition key is present exactly for chunk-restricted
        // writers; full and spliced checkpoints stay on the historical
        // byte layout.
        if let Some(set) = &self.partition {
            let _ = writeln!(out, "  \"partition\": \"{set}\",");
        }
        let _ = write!(
            out,
            "  \"num_chunks\": {},\n  \"chunks\": [\n",
            self.num_chunks
        );
        for (i, chunk) in self.chunks.iter().enumerate() {
            out.push_str("    ");
            match chunk {
                None => out.push_str("null"),
                Some(recs) => {
                    out.push('[');
                    for (j, r) in recs.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(
                            out,
                            "{{\"root\": {}, \"volume\": {}, \"distance\": ",
                            r.root, r.volume
                        );
                        match r.distance {
                            Some(d) => {
                                let _ = write!(out, "{d}");
                            }
                            None => out.push_str("null"),
                        }
                        let _ = write!(
                            out,
                            ", \"distance_upper\": {}, \"queries\": {}, \"random_bits\": {}, \"completed\": {}}}",
                            r.distance_upper, r.queries, r.random_bits, r.completed
                        );
                    }
                    out.push(']');
                }
            }
            out.push_str(if i + 1 < self.chunks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a `vc-engine-checkpoint/v2` document.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformation (bad JSON,
    /// wrong schema, missing or out-of-range fields). Pre-identity `v1`
    /// files get a dedicated migration message: their fingerprints cannot
    /// distinguish same-size instances, so they are never resumed.
    pub fn from_json(src: &str) -> Result<Self, String> {
        let doc = json::parse(src)?;
        let schema = doc
            .get("schema")
            .and_then(json::Value::as_str)
            .ok_or("missing schema")?;
        if schema == CHECKPOINT_SCHEMA_V1 {
            return Err(format!(
                "schema is {CHECKPOINT_SCHEMA_V1:?}: pre-identity checkpoints hash only the \
                 instance size and cannot be safely resumed — delete the file and rerun the \
                 sweep (README \"Checkpoint compatibility\")"
            ));
        }
        if schema != CHECKPOINT_SCHEMA {
            return Err(format!(
                "schema is {schema:?}, expected {CHECKPOINT_SCHEMA:?}"
            ));
        }
        let instance_id = doc
            .get("instance_id")
            .and_then(json::Value::as_str)
            .and_then(InstanceId::parse_hex)
            .ok_or("missing or malformed instance_id")?;
        let sweep_id = doc
            .get("sweep_id")
            .and_then(json::Value::as_str)
            .and_then(SweepId::parse_hex)
            .ok_or("missing or malformed sweep_id")?;
        let num_chunks = doc
            .get("num_chunks")
            .and_then(json::Value::as_u64)
            .map(usize::try_from)
            .ok_or("missing num_chunks")?
            .map_err(|_| "out-of-range num_chunks")?;
        let partition = match doc.get("partition") {
            None => None,
            Some(v) => {
                let spec = v.as_str().ok_or("partition is not a string")?;
                let set = ChunkSet::parse(spec).map_err(|e| format!("malformed partition: {e}"))?;
                set.check_plan(num_chunks)
                    .map_err(|e| format!("partition does not fit this checkpoint: {e}"))?;
                Some(set)
            }
        };
        let chunk_vals = doc
            .get("chunks")
            .and_then(json::Value::as_arr)
            .ok_or("missing chunks array")?;
        if chunk_vals.len() != num_chunks {
            return Err(format!(
                "chunks array has {} entries, num_chunks says {num_chunks}",
                chunk_vals.len()
            ));
        }
        let mut chunks = Vec::with_capacity(num_chunks);
        for (c, v) in chunk_vals.iter().enumerate() {
            match v {
                json::Value::Null => chunks.push(None),
                json::Value::Arr(items) => {
                    let mut recs = Vec::with_capacity(items.len());
                    for item in items {
                        recs.push(record_from_json(item).map_err(|e| format!("chunk {c}: {e}"))?);
                    }
                    chunks.push(Some(recs));
                }
                _ => return Err(format!("chunk {c} is neither null nor an array")),
            }
        }
        Ok(Self {
            identity: SweepIdentity {
                instance_id,
                sweep_id,
            },
            num_chunks,
            partition,
            chunks,
        })
    }
}

fn record_from_json(v: &json::Value) -> Result<ExecutionRecord, String> {
    let u64_field = |key: &str| {
        v.get(key)
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("missing or non-integer field {key:?}"))
    };
    let distance = match v.get("distance") {
        Some(json::Value::Null) | None => None,
        Some(d) => Some(
            d.as_u64()
                .and_then(|d| u32::try_from(d).ok())
                .ok_or("out-of-range distance")?,
        ),
    };
    let completed = match v.get("completed") {
        Some(json::Value::Bool(b)) => *b,
        _ => return Err("missing or non-boolean field \"completed\"".to_string()),
    };
    Ok(ExecutionRecord {
        root: usize::try_from(u64_field("root")?).map_err(|_| "out-of-range root")?,
        volume: usize::try_from(u64_field("volume")?).map_err(|_| "out-of-range volume")?,
        distance,
        distance_upper: u32::try_from(u64_field("distance_upper")?)
            .map_err(|_| "out-of-range distance_upper")?,
        queries: u64_field("queries")?,
        random_bits: u64_field("random_bits")?,
        completed,
    })
}

/// The result of a checkpointed sweep: records and costs for every chunk
/// completed so far, across this run *and* all previous runs against the
/// same checkpoint file.
#[derive(Clone, Debug)]
pub struct CheckpointReport {
    /// Records of all completed chunks, in start order (gaps where chunks
    /// are still pending).
    pub records: Vec<ExecutionRecord>,
    /// Cost summary over [`CheckpointReport::records`].
    pub summary: CostSummary,
    /// Total queries over [`CheckpointReport::records`].
    pub total_queries: u128,
    /// Chunks completed so far.
    pub completed_chunks: usize,
    /// Total chunks in the sweep.
    pub num_chunks: usize,
}

impl CheckpointReport {
    /// Whether every chunk of the sweep has completed.
    pub fn is_complete(&self) -> bool {
        self.completed_chunks == self.num_chunks
    }
}

/// The incremental checkpoint writer behind
/// [`Engine::with_live_checkpoint`]: after every completed chunk the
/// updated partial checkpoint is rewritten to disk (write-then-rename, so
/// a reader never sees a torn file). This is the progress heartbeat a
/// fleet supervisor observes — chunk-count deltas in the part file through
/// the sanctioned clock — without any channel back into the sweep itself:
/// the sink only *writes* state the sweep already produced, so liveness
/// observation cannot perturb determinism (DESIGN.md §16).
pub(crate) struct LiveCheckpointSink {
    path: PathBuf,
    tmp: PathBuf,
    state: Mutex<SweepCheckpoint>,
}

impl LiveCheckpointSink {
    /// A sink rewriting `path` from `state` (pre-stamped with the
    /// writer's partition and any resumed chunks) on every commit.
    pub(crate) fn new(path: &Path, state: SweepCheckpoint) -> Self {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        Self {
            path: path.to_path_buf(),
            tmp: PathBuf::from(tmp),
            state: Mutex::new(state),
        }
    }

    /// Records `chunk` as complete and rewrites the file. Heartbeats are
    /// advisory: an I/O failure here only delays suspicion, so it is
    /// swallowed — the authoritative final write at the end of the run
    /// still fails loudly.
    pub(crate) fn commit(&self, chunk: usize, records: Vec<ExecutionRecord>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(
            state.chunks[chunk].is_none(),
            "chunk {chunk} committed twice"
        );
        state.chunks[chunk] = Some(records);
        let json = state.to_json();
        // The write stays under the lock so commits land on disk in
        // commit order and the rename below never clobbers a newer file.
        if std::fs::write(&self.tmp, json).is_ok() {
            let _ = std::fs::rename(&self.tmp, &self.path);
        }
    }
}

impl Engine {
    /// Runs a recorded sweep against a checkpoint file at `path`:
    /// previously checkpointed chunks are skipped, freshly completed
    /// chunks are added, and the updated checkpoint is written back. The
    /// returned report covers *all* completed chunks (previous runs
    /// included), so once [`CheckpointReport::is_complete`] the records
    /// and summary are byte-identical to an unbroken [`Engine::run_all`] —
    /// no matter how many kills and resumes happened in between, and for
    /// any thread count.
    ///
    /// Combine with [`Engine::with_chunk_quota`] for a deterministic
    /// "kill" in tests, or with [`Engine::with_deadline`] /
    /// [`CancelFlag`](crate::CancelFlag) for real time-boxed runs.
    /// Outputs are not checkpointed (see the module docs) — this entry
    /// point returns records and costs only.
    ///
    /// Under [`Engine::with_chunk_set`] this is the fleet-worker entry
    /// point: only the set's chunks execute, the written file is
    /// stamped with the set ([`SweepCheckpoint::partition`]), and the
    /// disjoint partials splice back into one full checkpoint with
    /// [`splice_checkpoints`](crate::splice_checkpoints).
    ///
    /// # Errors
    ///
    /// [`EngineError::Start`] for an invalid start selection,
    /// [`EngineError::Partition`] for a chunk set that does not fit the
    /// sweep's plan, [`EngineError::Io`] when the file cannot be read or
    /// written, and [`EngineError::BadCheckpoint`] when the file is
    /// malformed or was produced by a different sweep configuration.
    pub fn run_recorded_with_checkpoint<A>(
        &self,
        inst: &Instance,
        algo: &A,
        config: &RunConfig,
        path: &Path,
    ) -> Result<CheckpointReport, EngineError>
    where
        A: QueryAlgorithm + Sync,
        A::Output: Send,
    {
        let sw = Stopwatch::start();
        let starts = config.starts.starts(inst.n())?;
        let num_chunks = plan_chunks(starts.len()).num_chunks;
        let identity = sweep_identity(inst, algo, config, &starts);
        let mut ckpt = match std::fs::read_to_string(path) {
            Ok(text) => {
                let ckpt = SweepCheckpoint::from_json(&text).map_err(EngineError::BadCheckpoint)?;
                if ckpt.identity.sweep_id != identity.sweep_id {
                    let mut msg = format!(
                        "fingerprint {} belongs to a different sweep (expected {})",
                        ckpt.identity.sweep_id, identity.sweep_id
                    );
                    if ckpt.identity.instance_id != identity.instance_id {
                        use std::fmt::Write as _;
                        let _ = write!(
                            msg,
                            "; the instance content differs (checkpoint instance {}, this sweep \
                             runs instance {})",
                            ckpt.identity.instance_id, identity.instance_id
                        );
                    }
                    return Err(EngineError::BadCheckpoint(msg));
                }
                if ckpt.num_chunks != num_chunks {
                    return Err(EngineError::BadCheckpoint(format!(
                        "checkpoint has {} chunks, sweep has {num_chunks}",
                        ckpt.num_chunks
                    )));
                }
                ckpt
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                SweepCheckpoint::fresh(identity, num_chunks)
            }
            Err(e) => return Err(EngineError::Io(e.to_string())),
        };

        let done: Vec<bool> = ckpt.chunks.iter().map(Option::is_some).collect();
        // The file records the *writer's* restriction: a fleet worker's
        // partial is stamped with its chunk set, while unrestricted runs
        // (and resumes) keep the historical no-partition layout.
        ckpt.partition = self.chunk_set().cloned();
        let sink = self
            .live_checkpoint()
            .then(|| LiveCheckpointSink::new(path, ckpt.clone()));
        let run = run_sharded::<A, NoopTracer>(
            inst,
            algo,
            config,
            &starts,
            self.limits(&sw, starts.len())?,
            Some(&done),
            sink.as_ref(),
        );
        for (c, recs) in run.chunk_records {
            ckpt.chunks[c] = Some(recs);
        }
        std::fs::write(path, ckpt.to_json()).map_err(|e| EngineError::Io(e.to_string()))?;

        let mut acc = CostAccumulator::default();
        let mut records = Vec::with_capacity(starts.len());
        for chunk in ckpt.chunks.iter().flatten() {
            for rec in chunk {
                acc.add(rec);
                records.push(rec.clone());
            }
        }
        Ok(CheckpointReport {
            summary: acc.finish(),
            total_queries: acc.total_queries(),
            records,
            completed_chunks: ckpt.completed_chunks(),
            num_chunks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_model::oracle::{follow, Oracle, QueryError};

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

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vc-engine-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn test_identity(instance: u64, sweep: u64) -> SweepIdentity {
        SweepIdentity {
            instance_id: InstanceId::from_raw(instance),
            sweep_id: SweepId::from_raw(sweep),
        }
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let rec = ExecutionRecord {
            root: 7,
            volume: 12,
            distance: Some(3),
            distance_upper: 4,
            queries: 19,
            random_bits: 2,
            completed: true,
        };
        let rec2 = ExecutionRecord {
            distance: None,
            completed: false,
            ..rec.clone()
        };
        let mut ckpt = SweepCheckpoint::fresh(test_identity(0xdead_beef_0123_4567, 0x0123), 3);
        ckpt.chunks[0] = Some(vec![rec, rec2]);
        ckpt.chunks[2] = Some(vec![]);
        let parsed = SweepCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(parsed, ckpt);
        assert_eq!(parsed.completed_chunks(), 2);
        assert!(!parsed.is_complete());
    }

    #[test]
    fn malformed_checkpoints_are_rejected_loudly() {
        assert!(SweepCheckpoint::from_json("{}").is_err());
        assert!(SweepCheckpoint::from_json("{\"schema\": \"nope/v1\"}").is_err());
        let mut ok = SweepCheckpoint::fresh(test_identity(1, 2), 1).to_json();
        assert!(SweepCheckpoint::from_json(&ok).is_ok());
        // A hostile partition stamp naming the maximal chunk index is a
        // typed error, not an overflow.
        let stamped = ok.replacen(
            "  \"num_chunks\"",
            &format!("  \"partition\": \"{}/4\",\n  \"num_chunks\"", usize::MAX),
            1,
        );
        let err = SweepCheckpoint::from_json(&stamped).unwrap_err();
        assert!(err.contains("malformed partition"), "{err}");
        assert!(err.contains("plan has 4 chunks"), "{err}");
        ok.truncate(ok.len() - 3);
        assert!(SweepCheckpoint::from_json(&ok).is_err());
    }

    #[test]
    fn v1_checkpoints_get_a_migration_error() {
        let v1 = "{\"schema\": \"vc-engine-checkpoint/v1\", \"fingerprint\": \"00ff\", \
                  \"num_chunks\": 0, \"chunks\": []}";
        let err = SweepCheckpoint::from_json(v1).unwrap_err();
        assert!(err.contains("pre-identity"), "{err}");
        assert!(err.contains("delete the file"), "{err}");
    }

    #[test]
    fn identity_separates_sweep_configurations() {
        let inst = vc_graph::gen::random_full_binary_tree(150, 3);
        let starts: Vec<usize> = (0..inst.n()).collect();
        let base = RunConfig::default();
        let f = |cfg: &RunConfig| sweep_identity(&inst, &WalkLeft, cfg, &starts).sweep_id;
        let baseline = f(&base);
        assert_eq!(baseline, f(&base.clone()));
        let budgeted = RunConfig {
            budget: vc_model::Budget::volume(5),
            ..base
        };
        assert_ne!(baseline, f(&budgeted));
        let taped = RunConfig {
            tape: Some(vc_model::randomness::RandomTape::private(9)),
            ..base
        };
        assert_ne!(baseline, f(&taped));
        let fewer: Vec<usize> = (0..inst.n() / 2).collect();
        assert_ne!(
            baseline,
            sweep_identity(&inst, &WalkLeft, &base, &fewer).sweep_id
        );
        // The instance id ignores the sweep configuration entirely…
        assert_eq!(
            sweep_identity(&inst, &WalkLeft, &base, &starts).instance_id,
            sweep_identity(&inst, &WalkLeft, &budgeted, &fewer).instance_id
        );
        // …but a same-size instance with different content separates both.
        let other = vc_graph::gen::random_full_binary_tree(150, 4);
        assert_eq!(other.n(), inst.n());
        let foreign = sweep_identity(&other, &WalkLeft, &base, &starts);
        assert_ne!(foreign.instance_id, inst.instance_id());
        assert_ne!(foreign.sweep_id, baseline);
    }

    #[test]
    fn kill_and_resume_equals_unbroken_run() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();

        // The unbroken reference: one run straight through.
        let unbroken_path = temp_path("unbroken.json");
        let _ = std::fs::remove_file(&unbroken_path);
        let unbroken = Engine::with_threads(2)
            .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &unbroken_path)
            .unwrap();
        assert!(unbroken.is_complete());
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        assert_eq!(unbroken.records, serial.records);
        assert_eq!(unbroken.summary, serial.summary());

        // "Kill" after 2 chunks (quota = deterministic kill proxy), then
        // resume with different thread counts.
        let resumed_path = temp_path("resumed.json");
        let _ = std::fs::remove_file(&resumed_path);
        let partial = Engine::with_threads(8)
            .with_chunk_quota(2)
            .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &resumed_path)
            .unwrap();
        assert!(!partial.is_complete());
        assert_eq!(partial.completed_chunks, 2);
        assert_eq!(
            partial.records,
            serial.records[..2 * plan_chunks(inst.n()).chunk_size]
        );
        let resumed = Engine::with_threads(3)
            .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &resumed_path)
            .unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.records, unbroken.records);
        assert_eq!(resumed.summary, unbroken.summary);
        assert_eq!(resumed.total_queries, unbroken.total_queries);

        // The files themselves are byte-identical.
        let a = std::fs::read(&unbroken_path).unwrap();
        let b = std::fs::read(&resumed_path).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn live_checkpoint_runs_write_the_same_final_bytes() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let plain_path = temp_path("live_plain.json");
        let live_path = temp_path("live_live.json");
        let _ = std::fs::remove_file(&plain_path);
        let _ = std::fs::remove_file(&live_path);
        let plain = Engine::with_threads(2)
            .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &plain_path)
            .unwrap();
        let live = Engine::with_threads(2)
            .with_live_checkpoint()
            .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &live_path)
            .unwrap();
        // Live commits change how often the file is written, never what
        // the final bytes are.
        assert_eq!(live.records, plain.records);
        assert_eq!(
            std::fs::read(&live_path).unwrap(),
            std::fs::read(&plain_path).unwrap()
        );
        // No temp file is left behind: every commit renamed into place.
        let mut tmp = live_path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
    }

    #[test]
    fn multi_task_kill_and_resume_equals_unbroken_run() {
        // 128 chunks of 256 starts, each claimed as 4 tasks.
        let inst = vc_graph::gen::complete_binary_tree(14, vc_graph::Color::R, vc_graph::Color::B);
        let config = RunConfig::default();
        let chunk_size = plan_chunks(inst.n()).chunk_size;
        assert_eq!(chunk_size, 4 * crate::TASK_STARTS);
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        let unbroken_path = temp_path("multi_task_unbroken.json");
        let _ = std::fs::remove_file(&unbroken_path);
        Engine::with_threads(2)
            .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &unbroken_path)
            .unwrap();
        let unbroken = std::fs::read(&unbroken_path).unwrap();
        for threads in [1, 2, 8] {
            let path = temp_path(&format!("multi_task_resumed_{threads}.json"));
            let _ = std::fs::remove_file(&path);
            let partial = Engine::with_threads(threads)
                .with_chunk_quota(5)
                .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &path)
                .unwrap();
            assert_eq!(partial.completed_chunks, 5, "thread count {threads}");
            assert_eq!(partial.records, serial.records[..5 * chunk_size]);
            let resumed = Engine::with_threads(threads)
                .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &path)
                .unwrap();
            assert!(resumed.is_complete());
            assert_eq!(resumed.records, serial.records);
            assert_eq!(std::fs::read(&path).unwrap(), unbroken);
        }
    }

    #[test]
    fn live_sink_commits_each_multi_task_chunk_once() {
        /// [`WalkLeft`] that panics on every run from `root`.
        struct PanicAtRoot(usize);

        impl QueryAlgorithm for PanicAtRoot {
            type Output = u32;

            fn fallback(&self) -> u32 {
                u32::MAX
            }

            fn run(&self, oracle: &mut dyn Oracle) -> Result<u32, QueryError> {
                assert!(oracle.root().node != self.0, "injected panic");
                WalkLeft.run(oracle)
            }
        }

        let inst = vc_graph::gen::complete_binary_tree(14, vc_graph::Color::R, vc_graph::Color::B);
        let config = RunConfig::default();
        let starts = config.starts.starts(inst.n()).unwrap();
        let plan = plan_chunks(starts.len());
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        // Start 650 sits in the third task of chunk 2.
        let algo = PanicAtRoot(650);
        let identity = sweep_identity(&inst, &algo, &config, &starts);
        // Every commit rewrites the whole file, so claim only the first
        // six chunks (24 tasks).
        let set = ChunkSet::parse(&format!("0..6/{}", plan.num_chunks)).unwrap();
        for threads in [1, 2, 8] {
            let path = temp_path(&format!("live_sink_{threads}.json"));
            let _ = std::fs::remove_file(&path);
            let sink =
                LiveCheckpointSink::new(&path, SweepCheckpoint::fresh(identity, plan.num_chunks));
            let engine = Engine::with_threads(threads).with_chunk_set(set.clone());
            let sw = Stopwatch::start();
            let done = vec![false; plan.num_chunks];
            // A chunk committed twice trips the sink's debug assertion.
            let run = run_sharded::<_, NoopTracer>(
                &inst,
                &algo,
                &config,
                &starts,
                engine.limits(&sw, starts.len()).unwrap(),
                Some(&done),
                Some(&sink),
            );
            assert_eq!(run.aborted, vec![2]);
            // Every other claimed chunk was committed, in start order.
            let state = sink.state.into_inner().unwrap();
            for c in 0..plan.num_chunks {
                let (lo, hi) = plan.bounds(c, starts.len());
                let expect = (c < 6 && c != 2).then(|| serial.records[lo..hi].to_vec());
                assert_eq!(state.chunks[c], expect, "chunk {c} at {threads} threads");
            }
            // The last heartbeat on disk already holds every commit.
            let on_disk = SweepCheckpoint::from_json(&std::fs::read_to_string(&path).unwrap());
            assert_eq!(on_disk.unwrap(), state);
        }
    }

    #[test]
    fn restricted_writers_stamp_their_chunk_set() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let path = temp_path("stamped_set.json");
        let _ = std::fs::remove_file(&path);
        let set = ChunkSet::parse("1..3,5/6").unwrap();
        Engine::with_threads(2)
            .with_chunk_set(set.clone())
            .with_live_checkpoint()
            .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &path)
            .unwrap();
        let ckpt = SweepCheckpoint::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(ckpt.partition, Some(set));
        // Exactly the claimed chunks carry records.
        let done: Vec<usize> = (0..ckpt.num_chunks)
            .filter(|&c| ckpt.chunks[c].is_some())
            .collect();
        assert_eq!(done, vec![1, 2, 5]);
    }

    #[test]
    fn foreign_checkpoints_are_refused() {
        let inst = vc_graph::gen::random_full_binary_tree(150, 3);
        let config = RunConfig::default();
        let path = temp_path("foreign.json");
        let _ = std::fs::remove_file(&path);
        Engine::with_threads(1)
            .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &path)
            .unwrap();
        // Same file, different budget: the fingerprint must refuse it.
        let other = RunConfig {
            budget: vc_model::Budget::volume(2),
            ..config
        };
        let err = Engine::with_threads(1)
            .run_recorded_with_checkpoint(&inst, &WalkLeft, &other, &path)
            .unwrap_err();
        assert!(matches!(err, EngineError::BadCheckpoint(_)), "{err}");
        // And a corrupt file is an error, not a fresh start.
        std::fs::write(&path, "{ not json").unwrap();
        let err = Engine::with_threads(1)
            .run_recorded_with_checkpoint(&inst, &WalkLeft, &config, &path)
            .unwrap_err();
        assert!(matches!(err, EngineError::BadCheckpoint(_)), "{err}");
    }
}
