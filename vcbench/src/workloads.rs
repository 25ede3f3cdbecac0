//! The three workloads. Each is built from `--seed` alone: the same seed
//! gives the same instances, tapes and request stream. Every workload runs
//! all four phases (sweeps, kill-and-resume, store loads, serve requests)
//! on its own inputs, with most of its time going to the path it is named
//! after; see `WORKLOADS.md` beside this crate.

use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vc_core::lcl::{count_violations, Lcl};
use vc_core::problems::{balanced_tree, hh, hierarchical, hybrid, leaf_coloring};
use vc_engine::InstanceId;
use vc_faults::{FaultPlan, FaultedAlgorithm};
use vc_graph::{gen, Color, Instance};
use vc_model::run::RunConfig;
use vc_model::RandomTape;
use vc_serve::{AlgorithmRef, InstanceRef, Priority, SweepSpec};
use vc_trace::time::Stopwatch;

use crate::cases::{Case, Counts, LclCheck, SweepCase};
use crate::phases::ServePlan;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["table1-sweep", "ladder-top", "serve-mix"];

/// Shares of `--seconds` given to each phase.
pub struct Shares {
    pub sweep: f64,
    pub ckpt: f64,
    pub load: f64,
    pub serve: f64,
}

/// The phase a workload is named after; the traced run measures the
/// tracing overhead on it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Dominant {
    Sweep,
    Serve,
}

/// Everything a workload runs, built from the seed.
pub struct Inputs {
    pub cases: Vec<Box<dyn SweepCase>>,
    /// Untimed sweeps that only pin counts against committed figures.
    pub verify_only: Vec<Box<dyn SweepCase>>,
    /// Pairs of cases whose counts must agree (bare vs fault-wrapped).
    pub same_counts: Vec<(usize, usize)>,
    /// Index of the case the kill-and-resume phase runs.
    pub ckpt_case: usize,
    /// Index of the case the traced `FaultPlan::none` probe wraps.
    pub fault_case: usize,
    /// Instance-store files written during set-up, with their ids.
    pub load_files: Vec<(std::path::PathBuf, InstanceId)>,
    pub serve: ServePlan,
    pub shares: Shares,
    pub dominant: Dominant,
    /// Seconds spent inside the graph generators during this build.
    pub gen_s: f64,
}

fn lcl<P>(problem: P) -> Option<LclCheck<P::Output>>
where
    P: Lcl + Sync + 'static,
{
    Some(Box::new(move |inst: &Instance, out: &[P::Output]| {
        count_violations(&problem, inst, out)
    }))
}

fn exact() -> RunConfig {
    RunConfig::default()
}

fn taped(seed: u64, exact_distance: bool) -> RunConfig {
    RunConfig {
        tape: Some(RandomTape::private(seed)),
        exact_distance,
        ..RunConfig::default()
    }
}

/// Times generator calls, so set-up can report its graph share.
struct Gen {
    secs: f64,
}

impl Gen {
    fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let sw = Stopwatch::start();
        let out = f();
        self.secs += sw.elapsed().as_secs_f64();
        out
    }
}

/// A sub-seed. Serve specs cross the wire as JSON numbers, which carry
/// integers exactly only below 2^53.
fn sub(rng: &mut StdRng) -> u64 {
    rng.random_range(0..1u64 << 48)
}

/// Builds the inputs of `workload` for `seed`, writing store files under
/// `dir`.
pub fn build(workload: &str, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = Gen { secs: 0.0 };
    let mut inputs = match workload {
        "table1-sweep" => table1(&mut rng, &mut gen, dir)?,
        "ladder-top" => ladder(&mut rng, &mut gen, seed, dir)?,
        "serve-mix" => serve_mix(&mut rng, &mut gen, dir)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    inputs.gen_s = gen.secs;
    Ok(inputs)
}

fn save(
    dir: &Path,
    name: &str,
    inst: &Instance,
) -> Result<(std::path::PathBuf, InstanceId), String> {
    let path = dir.join(format!("{name}.vci"));
    vc_graph::save_instance(inst, &path).map_err(|e| format!("saving {name}: {e}"))?;
    Ok((path, inst.instance_id()))
}

/// Target node count of the Table-1 family instances. The Hybrid-THC
/// generators overshoot their target, so those get smaller targets; every
/// family lands between about 1 900 and 3 800 nodes.
const TABLE1_N: usize = 3000;
const HYBRID_N: usize = 1300;

fn table1(rng: &mut StdRng, gen: &mut Gen, dir: &Path) -> Result<Inputs, String> {
    let lc = Arc::new(gen.run(|| gen::random_full_binary_tree(TABLE1_N, sub(rng))));
    // Disjoint promise inputs, so the instance is globally compatible.
    let pairs = 512;
    let (mut a, mut b) = (vec![false; pairs], vec![false; pairs]);
    for i in 0..pairs {
        match rng.random_range(0..3u8) {
            0 => a[i] = true,
            1 => b[i] = true,
            _ => {}
        }
    }
    let bt = Arc::new(gen.run(|| gen::disjointness_embedding(&a, &b).0));
    let h2 = Arc::new(gen.run(|| gen::hierarchical_for_size(2, TABLE1_N, sub(rng))));
    let h3 = Arc::new(gen.run(|| gen::hierarchical_for_size(3, TABLE1_N, sub(rng))));
    let y2 = Arc::new(gen.run(|| gen::hybrid_for_size(2, HYBRID_N, sub(rng))));
    let y3 = Arc::new(gen.run(|| gen::hybrid_for_size(3, HYBRID_N, sub(rng))));
    let hh23 = Arc::new(gen.run(|| gen::hh(2, 3, 2 * HYBRID_N, sub(rng))));
    let tape = sub(rng);

    use leaf_coloring::LeafColoring;
    let cases: Vec<Box<dyn SweepCase>> = vec![
        Box::new(Case::new(
            "leaf-coloring/det",
            lc.clone(),
            leaf_coloring::DistanceSolver,
            exact(),
            lcl(LeafColoring),
        )),
        Box::new(Case::new(
            "leaf-coloring/rw",
            lc.clone(),
            leaf_coloring::RwToLeaf::default(),
            taped(tape, true),
            lcl(LeafColoring),
        )),
        // Randomness does not help BalancedTree (Prop. 4.9): its
        // deterministic solver is also the randomized row of Table 1.
        Box::new(Case::new(
            "balanced-tree/det",
            bt.clone(),
            balanced_tree::DistanceSolver,
            exact(),
            lcl(balanced_tree::BalancedTree),
        )),
        Box::new(Case::new(
            "hierarchical-thc/k2/det",
            h2.clone(),
            hierarchical::DeterministicSolver { k: 2 },
            exact(),
            lcl(hierarchical::HierarchicalThc::new(2)),
        )),
        Box::new(Case::new(
            "hierarchical-thc/k2/rand",
            h2.clone(),
            hierarchical::RandomizedSolver::new(2),
            taped(tape, true),
            lcl(hierarchical::HierarchicalThc::new(2)),
        )),
        Box::new(Case::new(
            "hierarchical-thc/k3/det",
            h3.clone(),
            hierarchical::DeterministicSolver { k: 3 },
            exact(),
            lcl(hierarchical::HierarchicalThc::new(3)),
        )),
        Box::new(Case::new(
            "hierarchical-thc/k3/rand",
            h3.clone(),
            hierarchical::RandomizedSolver::new(3),
            taped(tape, true),
            lcl(hierarchical::HierarchicalThc::new(3)),
        )),
        Box::new(Case::new(
            "hybrid-thc/k2/det",
            y2.clone(),
            hybrid::DistanceSolver,
            exact(),
            lcl(hybrid::HybridThc::new(2)),
        )),
        Box::new(Case::new(
            "hybrid-thc/k2/rand",
            y2.clone(),
            hybrid::RandomizedSolver::new(2),
            taped(tape, true),
            lcl(hybrid::HybridThc::new(2)),
        )),
        Box::new(Case::new(
            "hybrid-thc/k3/det",
            y3.clone(),
            hybrid::DistanceSolver,
            exact(),
            lcl(hybrid::HybridThc::new(3)),
        )),
        Box::new(Case::new(
            "hybrid-thc/k3/rand",
            y3.clone(),
            hybrid::RandomizedSolver::new(3),
            taped(tape, true),
            lcl(hybrid::HybridThc::new(3)),
        )),
        Box::new(Case::new(
            "hh-thc/2-3/det",
            hh23.clone(),
            hh::DistanceSolver { k: 2, l: 3 },
            exact(),
            lcl(hh::HhThc::new(2, 3)),
        )),
        Box::new(Case::new(
            "hh-thc/2-3/rand",
            hh23.clone(),
            hh::RandomizedSolver { k: 2, l: 3 },
            taped(tape, true),
            lcl(hh::HhThc::new(2, 3)),
        )),
        Box::new(Case::new(
            "leaf-coloring/det+faultplan-none",
            lc.clone(),
            FaultedAlgorithm::new(leaf_coloring::DistanceSolver, FaultPlan::none(0)),
            exact(),
            None,
        )),
    ];
    let mut load_files = Vec::new();
    for (name, inst) in [
        ("lc", &lc),
        ("bt", &bt),
        ("h2", &h2),
        ("h3", &h3),
        ("y2", &y2),
        ("y3", &y3),
        ("hh", &hh23),
    ] {
        load_files.push(save(dir, name, inst)?);
    }
    let serve = ServePlan {
        interactive: probe_specs(rng, true),
        batch: Vec::new(),
        repeats: 2,
        cap: 3,
        seed: sub(rng),
    };
    Ok(Inputs {
        same_counts: vec![(0, cases.len() - 1)],
        cases,
        verify_only: Vec::new(),
        ckpt_case: 0,
        fault_case: 0,
        load_files,
        serve,
        shares: Shares {
            sweep: 0.70,
            ckpt: 0.10,
            load: 0.05,
            serve: 0.15,
        },
        dominant: Dominant::Sweep,
        gen_s: 0.0,
    })
}

/// The `det-large` / `rw-large` rows of the committed `BENCH_engine.json`
/// (tape seed 11): every 2-thread and 1-thread sweep must reproduce them.
const LADDER_DET: Counts = Counts {
    runs: 262_143,
    incomplete: 0,
    max_volume: 262_143,
    max_distance: 0,
    total_queries: 12_582_918,
};
const LADDER_RW_TAPE11: Counts = Counts {
    runs: 262_143,
    incomplete: 0,
    max_volume: 35,
    max_distance: 0,
    total_queries: 1_572_750,
};

fn ladder(rng: &mut StdRng, gen: &mut Gen, seed: u64, dir: &Path) -> Result<Inputs, String> {
    // The engine_baseline recipe: the depth-17 complete binary tree, with
    // exact distance off. The default seed 0 gives its tape seed 11.
    let tree = Arc::new(gen.run(|| gen::complete_binary_tree(17, Color::R, Color::B)));
    let tape = 11u64.wrapping_add(seed);
    use leaf_coloring::{DistanceSolver, LeafColoring, RwToLeaf};
    let mut rw = Case::new(
        "leaf-coloring/rw-large",
        tree.clone(),
        RwToLeaf::default(),
        taped(tape, false),
        lcl(LeafColoring),
    );
    if tape == 11 {
        rw = rw.expecting(LADDER_RW_TAPE11);
    }
    let cases: Vec<Box<dyn SweepCase>> = vec![
        Box::new(
            Case::new(
                "leaf-coloring/det-large",
                tree.clone(),
                DistanceSolver,
                RunConfig {
                    exact_distance: false,
                    ..RunConfig::default()
                },
                lcl(LeafColoring),
            )
            .expecting(LADDER_DET),
        ),
        Box::new(rw),
    ];
    let verify_only: Vec<Box<dyn SweepCase>> = if tape == 11 {
        Vec::new()
    } else {
        vec![Box::new(
            Case::new(
                "leaf-coloring/rw-large/tape11",
                tree.clone(),
                RwToLeaf::default(),
                taped(11, false),
                None,
            )
            .expecting(LADDER_RW_TAPE11),
        )]
    };
    let load_files = vec![save(dir, "ladder", &tree)?];
    let serve = ServePlan {
        interactive: probe_specs(rng, false),
        batch: Vec::new(),
        repeats: 2,
        cap: 3,
        seed: sub(rng),
    };
    Ok(Inputs {
        cases,
        verify_only,
        same_counts: Vec::new(),
        ckpt_case: 1,
        fault_case: 1,
        load_files,
        serve,
        shares: Shares {
            sweep: 0.50,
            ckpt: 0.30,
            load: 0.05,
            serve: 0.15,
        },
        dominant: Dominant::Sweep,
        gen_s: 0.0,
    })
}

fn serve_mix(rng: &mut StdRng, gen: &mut Gen, dir: &Path) -> Result<Inputs, String> {
    let tape = sub(rng);
    let mut refs = Vec::new();
    for n in [1023, 4095, 16383] {
        refs.push(InstanceRef::FullBinaryTree { n, seed: sub(rng) });
        refs.push(InstanceRef::PseudoTree {
            n,
            cycle: 32,
            seed: sub(rng),
        });
    }
    let interactive = specs(&refs, tape, true, Priority::Interactive);
    let batch_refs: Vec<InstanceRef> = (0..3)
        .map(|_| InstanceRef::FullBinaryTree {
            n: 16383,
            seed: sub(rng),
        })
        .collect();
    let batch: Vec<SweepSpec> = specs(&batch_refs, tape, true, Priority::Batch)
        .into_iter()
        .filter(|s| matches!(s.algorithm, AlgorithmRef::LeafRandomWalk { .. }))
        .collect();
    // The sweep and kill-and-resume phases run the interactive specs
    // directly through the engine.
    let mut cases: Vec<Box<dyn SweepCase>> = Vec::new();
    let mut load_files = Vec::new();
    for (i, r) in refs.iter().enumerate() {
        let inst = Arc::new(gen.run(|| r.build()));
        if matches!(
            r,
            InstanceRef::FullBinaryTree { n: 16383, .. } | InstanceRef::PseudoTree { n: 16383, .. }
        ) {
            load_files.push(save(dir, &format!("serve{i}"), &inst)?);
        }
        for spec in interactive.iter().filter(|s| s.instance == *r) {
            cases.push(spec_case(spec, inst.clone()));
        }
    }
    // Full binary tree at n = 16383: distance solver, then random walk.
    let (fault_case, ckpt_case) = (cases.len() - 4, cases.len() - 3);
    Ok(Inputs {
        cases,
        verify_only: Vec::new(),
        same_counts: Vec::new(),
        ckpt_case,
        fault_case,
        load_files,
        serve: ServePlan {
            interactive,
            batch,
            repeats: 2,
            cap: 4,
            seed: sub(rng),
        },
        shares: Shares {
            sweep: 0.15,
            ckpt: 0.10,
            load: 0.05,
            serve: 0.70,
        },
        dominant: Dominant::Serve,
        gen_s: 0.0,
    })
}

/// The serve requests of the sweep workloads: both algorithms on two
/// n = 1023 instances and one n = 4095 instance. A third of the requests
/// are the larger ones, so the latency tails fall inside that class instead
/// of on scheduling noise.
fn probe_specs(rng: &mut StdRng, exact_distance: bool) -> Vec<SweepSpec> {
    let instances = [
        InstanceRef::FullBinaryTree {
            n: 1023,
            seed: sub(rng),
        },
        InstanceRef::PseudoTree {
            n: 1023,
            cycle: 32,
            seed: sub(rng),
        },
        InstanceRef::FullBinaryTree {
            n: 4095,
            seed: sub(rng),
        },
    ];
    specs(&instances, sub(rng), exact_distance, Priority::Interactive)
}

/// Both registry algorithms on every instance recipe.
fn specs(
    instances: &[InstanceRef],
    tape: u64,
    exact_distance: bool,
    priority: Priority,
) -> Vec<SweepSpec> {
    let mut out = Vec::new();
    for &instance in instances {
        out.push(SweepSpec {
            exact_distance,
            priority,
            ..SweepSpec::new(instance, AlgorithmRef::LeafDistance)
        });
        out.push(SweepSpec {
            tape_seed: Some(tape),
            exact_distance,
            priority,
            ..SweepSpec::new(instance, AlgorithmRef::LeafRandomWalk { step_factor: 32 })
        });
    }
    out
}

fn spec_case(spec: &SweepSpec, inst: Arc<Instance>) -> Box<dyn SweepCase> {
    use leaf_coloring::{DistanceSolver, LeafColoring, RwToLeaf};
    let name = format!("{}/n{}", spec.algorithm.name(), inst.n());
    let config = spec.run_config();
    match spec.algorithm {
        AlgorithmRef::LeafDistance => Box::new(Case::new(
            name,
            inst,
            DistanceSolver,
            config,
            lcl(LeafColoring),
        )),
        AlgorithmRef::LeafRandomWalk { step_factor } => Box::new(Case::new(
            name,
            inst,
            RwToLeaf { step_factor },
            config,
            lcl(LeafColoring),
        )),
    }
}
