//! Per-node footprint of the paper stack, and the boxed handoffs that keep
//! it small.
//!
//! Almost every node of the Theorem 4 pipeline retires in `Reduce`, yet
//! every node carries its stack's full size from construction: an enum is
//! as large as its largest inline variant. So `PaperStack` boxes the later
//! steps. These tests pin the size, so that a new field cannot silently
//! widen every node again. They also check that the boxed handoffs leave
//! the telemetry spine exactly as an unboxed stack reports it, on the node
//! and on its clones.

use std::mem::size_of;

use contention::phase::{Pass, Phase, PhaseProtocol, PhaseStats, PhaseTelemetry};
use contention::{FullAlgorithm, IdReduction, LeafElection, PaperStack, Params, Reduce};
use mac_sim::{Engine, Protocol, SimConfig, Status, StepStatus, StopWhen};

/// Each node's terminal status and telemetry spine, in insertion order.
type Spines = Vec<(Status, Vec<PhaseStats>)>;

fn spines<P: PhaseTelemetry>(exec: &Engine<P>) -> Spines {
    exec.iter_nodes()
        .map(|node| (node.status(), node.phase_stats()))
        .collect()
}

fn config(channels: u32, seed: u64) -> SimConfig {
    SimConfig::new(channels)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000)
}

fn run<P: PhaseTelemetry>(cfg: SimConfig, count: usize, build: impl Fn() -> P) -> Engine<P> {
    let mut exec = Engine::new(cfg);
    for _ in 0..count {
        exec.add_node(build());
    }
    exec.run().expect("clean-channel run terminates");
    exec
}

/// Asserts that every node that reached LeafElection reports one record
/// per stage, in pipeline order; returns how many nodes did.
fn check_order(spines: &Spines, order: &[&str]) -> usize {
    let mut reached = 0;
    for (_, spine) in spines {
        let names: Vec<&str> = spine.iter().map(|r| r.name).collect();
        if names.contains(&"leaf-election") {
            assert_eq!(names, order);
            reached += 1;
        }
    }
    reached
}

#[test]
fn paper_stack_nodes_stay_small() {
    assert!(
        size_of::<FullAlgorithm>() <= 96,
        "FullAlgorithm grew to {} B",
        size_of::<FullAlgorithm>()
    );
    assert!(
        size_of::<PaperStack>() <= 88,
        "PaperStack grew to {} B",
        size_of::<PaperStack>()
    );
}

#[test]
fn forced_boxed_handoff_matches_the_unboxed_stack() {
    // `Pass` hands off at once, so every node enters IdReduction and the
    // survivors go on to LeafElection: the path `deep` in the benchmark
    // measures, here with and without boxing.
    let (c, params) = (1024u32, Params::practical());
    for seed in 0..4 {
        let boxed = run(config(c, seed), 64, || {
            PhaseProtocol::new(
                Pass::new(())
                    .and_then(|()| Box::new(IdReduction::new(params, c)))
                    .and_then(|id| Box::new(LeafElection::new(c, id))),
            )
        });
        let inline = run(config(c, seed), 64, || {
            PhaseProtocol::new(
                Pass::new(())
                    .and_then(|()| IdReduction::new(params, c))
                    .and_then(|id| LeafElection::new(c, id)),
            )
        });
        let got = spines(&boxed);
        assert!(
            check_order(&got, &["id-reduction", "leaf-election"]) > 0,
            "seed {seed}"
        );
        assert_eq!(got, spines(&inline), "seed {seed}");
        for node in boxed.iter_nodes() {
            assert_eq!(node.clone().phase_stats(), node.phase_stats());
        }
    }
}

#[test]
fn paper_stack_spine_survives_boxing_and_cloning() {
    // At C = 256 some seeds leave more than one node after Reduce, which
    // then runs the boxed IdReduction and LeafElection.
    let (c, n, active, params) = (256u32, 1u64 << 12, 300, Params::practical());
    let mut reached = 0;
    for seed in 0..16 {
        let mut exec = Engine::new(config(c, seed));
        for _ in 0..active {
            exec.add_node(FullAlgorithm::new(params, c, n));
        }
        // Clone every node in the first round some node spends in
        // LeafElection: the clones must report the same spine then, and
        // keep it while the originals run on.
        let mut snapshot: Option<(Vec<FullAlgorithm>, Spines)> = None;
        while exec.step().expect("step") == StepStatus::Running {
            if snapshot.is_none() && exec.iter_nodes().any(|p| p.stage_name() == "leaf-election") {
                let clones: Vec<FullAlgorithm> = exec.iter_nodes().cloned().collect();
                let now = spines(&exec);
                let cloned: Spines = clones
                    .iter()
                    .map(|p| (p.status(), p.phase_stats()))
                    .collect();
                assert_eq!(cloned, now, "seed {seed}: clone differs from its node");
                snapshot = Some((clones, now));
            }
        }
        let got = spines(&exec);
        check_order(&got, &["reduce", "id-reduction", "leaf-election"]);
        let inline = run(config(c, seed), active, || {
            PhaseProtocol::new(
                Reduce::with_params(params, n)
                    .and_then(|()| IdReduction::new(params, c))
                    .and_then(|id| LeafElection::new(c, id)),
            )
        });
        assert_eq!(got, spines(&inline), "seed {seed}");
        for node in exec.iter_nodes() {
            assert_eq!(node.clone().phase_stats(), node.phase_stats());
        }
        if let Some((clones, then)) = snapshot {
            reached += 1;
            let kept: Spines = clones
                .iter()
                .map(|p| (p.status(), p.phase_stats()))
                .collect();
            assert_eq!(kept, then, "seed {seed}: a clone changed with its node");
            assert_ne!(kept, got, "seed {seed}: the run went on after the clone");
        }
    }
    assert!(reached > 0, "no seed reached LeafElection");
}
