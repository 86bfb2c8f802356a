//! Property suite pinning the active-set scheduler to the dense O(n)
//! reference implementation.
//!
//! [`mac_sim::Engine`] schedules via a wake agenda + live set
//! (O(|live|)/round); [`mac_sim::dense::DenseEngine`] executes the same
//! semantics with full slot scans (O(n)/round). Over random wake
//! schedules × collision-detection modes × fault layers, both must
//! produce **bit-identical** results: the same [`RunReport`] (solve data,
//! leaders, active survivors, full metrics) and the same structured
//! [`RunRecord`] (span accounting, per-channel tallies) and the same
//! channel [`Trace`] (every round's outcomes) — not merely the same solve
//! round. Any divergence means the agenda/live-set/retirement
//! bookkeeping changed observable semantics, which is exactly what this
//! suite exists to catch.

use mac_sim::dense::DenseEngine;
use mac_sim::fault::{CrashStop, JamBudget, Layered, LossyChannel, NoisyCd};
use mac_sim::obs::{RunRecord, RunRecorder};
use mac_sim::{
    Action, CdMode, ChannelId, Engine, Feedback, FeedbackModel, Metrics, NodeId, Protocol,
    RoundContext, RunReport, SimConfig, SlotState, Status, StepStatus, StopWhen, Trace,
};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// Seeded random backoff: transmits on a random channel with decaying
/// probability, terminates once it hears its own lone primary-channel
/// transmission echo back. Exercises per-node RNG every round (so any
/// stream drift diverges immediately) and spreads load over channels (so
/// channel-outcome tallies are non-trivial).
struct Backoff {
    channels: u32,
    transmitted_primary: bool,
    done: bool,
}

impl Backoff {
    fn new(channels: u32) -> Self {
        Backoff {
            channels,
            transmitted_primary: false,
            done: false,
        }
    }
}

impl Protocol for Backoff {
    type Msg = u64;

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u64> {
        let p = 2.0_f64.powi(-(1 + (ctx.local_round % 8) as i32));
        if rng.gen_bool(p.max(0.05)) {
            let channel = ChannelId::new(rng.gen_range(1..=self.channels));
            self.transmitted_primary = channel == ChannelId::PRIMARY;
            Action::transmit(channel, ctx.round)
        } else {
            self.transmitted_primary = false;
            Action::listen(ChannelId::PRIMARY)
        }
    }

    fn observe(&mut self, _: &RoundContext, fb: Feedback<u64>, _: &mut SmallRng) {
        if self.transmitted_primary && matches!(fb, Feedback::Message(_)) {
            self.done = true;
        }
    }

    fn status(&self) -> Status {
        if self.done {
            Status::Leader
        } else {
            Status::Active
        }
    }

    fn phase(&self) -> &'static str {
        if self.done {
            "done"
        } else {
            "backoff"
        }
    }
}

/// Everything a run can legally differ in, in one comparable value.
type Fingerprint = (
    Result<RunReportKey, String>,
    RunRecord, // wall_ns normalized to 0
    Trace,     // every round's channel outcomes
);

type RunReportKey = (
    Option<u64>,
    Option<NodeId>,
    u64,
    Vec<NodeId>,
    Vec<NodeId>,
    Metrics,
);

fn report_key(report: &RunReport) -> RunReportKey {
    (
        report.solved_round,
        report.solver,
        report.rounds_executed,
        report.leaders.clone(),
        report.active_remaining.clone(),
        report.metrics.clone(),
    )
}

/// The workload both engines execute: node count, per-node wake offsets,
/// CD mode, and which fault stack rides along.
#[derive(Debug, Clone)]
struct Workload {
    seed: u64,
    channels: u32,
    wake_offsets: Vec<u64>,
    cd_mode: CdMode,
    faults: FaultChoice,
    stop_when: StopWhen,
}

#[derive(Debug, Clone, Copy)]
enum FaultChoice {
    Clean,
    CrashRandom {
        f: usize,
        window: u64,
    },
    Assassin {
        kills: u64,
    },
    JamBudget {
        budget: u64,
    },
    Stacked,
    /// Crash one node at one round (scheduled, no randomness).
    CrashAt {
        node: usize,
        round: u64,
    },
}

fn config(w: &Workload) -> SimConfig {
    SimConfig::new(w.channels)
        .seed(w.seed)
        .cd_mode(w.cd_mode)
        .stop_when(w.stop_when)
        .max_rounds(200_000)
        .round_budget(5_000)
}

/// A run over some [`FeedbackModel`]: [`with_faults`] builds the
/// workload's fault stack and hands it to `run`, so every driver shares
/// one fault table.
trait FaultedRun {
    type Out;
    fn run<F: FeedbackModel>(self, feedback: F) -> Self::Out;
}

fn with_faults<R: FaultedRun>(w: &Workload, run: R) -> R::Out {
    let n = w.wake_offsets.len();
    match w.faults {
        FaultChoice::Clean => run.run(w.cd_mode),
        FaultChoice::CrashRandom { f, window } => run.run(Layered::new(
            CrashStop::random(f.min(n), n, window),
            w.cd_mode,
        )),
        FaultChoice::Assassin { kills } => {
            run.run(Layered::new(CrashStop::assassin(kills), w.cd_mode))
        }
        FaultChoice::JamBudget { budget } => run.run(JamBudget::new(w.cd_mode, budget)),
        FaultChoice::Stacked => run.run(Layered::new(
            NoisyCd::symmetric(0.05),
            Layered::new(
                LossyChannel::new(0.05),
                Layered::new(
                    CrashStop::random(1.min(n), n, 16),
                    JamBudget::new(w.cd_mode, 1),
                ),
            ),
        )),
        FaultChoice::CrashAt { node, round } => run.run(Layered::new(
            CrashStop::schedule(vec![(NodeId(node), round)]),
            w.cd_mode,
        )),
    }
}

/// Runs the workload to completion on either engine, building both runs
/// by the exact same code path.
fn run_workload(w: &Workload, dense: bool) -> Fingerprint {
    struct ToFinish<'a> {
        w: &'a Workload,
        dense: bool,
    }
    impl FaultedRun for ToFinish<'_> {
        type Out = Fingerprint;
        fn run<F: FeedbackModel>(self, feedback: F) -> Fingerprint {
            let w = self.w;
            let mut sinks = (RunRecorder::new(), Trace::new());
            let outcome = if self.dense {
                let mut eng = DenseEngine::with_feedback(config(w), feedback);
                for &offset in &w.wake_offsets {
                    eng.add_node_at(Backoff::new(w.channels), offset);
                }
                eng.run_observed(&mut sinks)
            } else {
                let mut eng = Engine::with_feedback(config(w), feedback);
                for &offset in &w.wake_offsets {
                    eng.add_node_at(Backoff::new(w.channels), offset);
                }
                eng.run_observed(&mut sinks)
            };
            let (recorder, trace) = sinks;
            let key = outcome
                .as_ref()
                .map(report_key)
                .map_err(|e| format!("{e:?}"));
            let mut record = recorder.into_record(w.seed);
            // Wall-clock fields are the one legitimately nondeterministic
            // part of a record; everything else must match bit for bit.
            record.wall_ns = 0;
            for span in &mut record.spans {
                span.wall_ns = 0;
            }
            (key, record, trace)
        }
    }
    with_faults(w, ToFinish { w, dense })
}

/// The start round of a slot injected between two steps, relative to the
/// round the next step executes.
#[derive(Debug, Clone, Copy)]
enum Inject {
    /// `now + k`: below the agenda's tail whenever a later wake is already
    /// queued, which makes the next step sort the agenda first.
    Ahead(u64),
    /// `now`: wakes in the very next step.
    Now,
    /// `now - k`, saturating: behind the clock, so the slot never wakes.
    Past(u64),
    /// `u64::MAX`: never reached.
    Never,
}

impl Inject {
    fn start_round(self, now: u64) -> u64 {
        match self {
            Inject::Ahead(k) => now + k,
            Inject::Now => now,
            Inject::Past(k) => now.saturating_sub(k),
            Inject::Never => u64::MAX,
        }
    }
}

/// Everything observable after one step: the step's outcome, the report
/// so far, both scheduler counters, and every slot's state.
type StepKey = (
    Result<StepStatus, String>,
    RunReportKey,
    usize,
    usize,
    Vec<SlotState>,
);

/// Adds the workload's initial slots, then steps once per entry of
/// `injections`, injecting that entry's slots (in order) before the step.
/// Returns one [`StepKey`] per step.
fn run_stepped(w: &Workload, injections: &[Vec<Inject>], dense: bool) -> Vec<StepKey> {
    struct Stepped<'a> {
        w: &'a Workload,
        injections: &'a [Vec<Inject>],
        dense: bool,
    }
    // One body for both engines: they share these inherent method names
    // but no trait.
    macro_rules! step_script {
        ($eng:expr, $w:expr, $injections:expr) => {{
            let mut eng = $eng;
            for &offset in &$w.wake_offsets {
                eng.add_node_at(Backoff::new($w.channels), offset);
            }
            let mut keys = Vec::new();
            for batch in $injections {
                let now = eng.current_round();
                for inject in batch {
                    eng.add_node_at(Backoff::new($w.channels), inject.start_round(now));
                }
                let status = eng.step_observed(&mut ()).map_err(|e| format!("{e:?}"));
                let states = (0..eng.len()).map(|i| eng.slot_state(NodeId(i))).collect();
                keys.push((
                    status,
                    report_key(&eng.report()),
                    eng.pending_len(),
                    eng.live_len(),
                    states,
                ));
            }
            keys
        }};
    }
    impl FaultedRun for Stepped<'_> {
        type Out = Vec<StepKey>;
        fn run<F: FeedbackModel>(self, feedback: F) -> Vec<StepKey> {
            let (w, injections) = (self.w, self.injections);
            if self.dense {
                step_script!(
                    DenseEngine::with_feedback(config(w), feedback),
                    w,
                    injections
                )
            } else {
                step_script!(Engine::with_feedback(config(w), feedback), w, injections)
            }
        }
    }
    with_faults(
        w,
        Stepped {
            w,
            injections,
            dense,
        },
    )
}

fn cd_mode_strategy() -> impl Strategy<Value = CdMode> {
    prop_oneof![
        Just(CdMode::Strong),
        Just(CdMode::ReceiverOnly),
        Just(CdMode::None),
    ]
}

fn fault_strategy() -> impl Strategy<Value = FaultChoice> {
    prop_oneof![
        Just(FaultChoice::Clean),
        (1usize..3, 1u64..32).prop_map(|(f, window)| FaultChoice::CrashRandom { f, window }),
        (1u64..3).prop_map(|kills| FaultChoice::Assassin { kills }),
        (1u64..4).prop_map(|budget| FaultChoice::JamBudget { budget }),
        Just(FaultChoice::Stacked),
    ]
}

fn inject_strategy() -> impl Strategy<Value = Inject> {
    prop_oneof![
        (1u64..24).prop_map(Inject::Ahead),
        Just(Inject::Now),
        (1u64..8).prop_map(Inject::Past),
        Just(Inject::Never),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        any::<u64>(),
        2u32..9,
        prop_vec(0u64..48, 1..10),
        cd_mode_strategy(),
        fault_strategy(),
    )
        .prop_map(|(seed, channels, wake_offsets, cd_mode, faults)| Workload {
            seed,
            channels,
            wake_offsets,
            cd_mode,
            faults,
            stop_when: StopWhen::Solved,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: for any workload, the active-set engine and
    /// the dense reference produce bit-identical reports and records.
    #[test]
    fn active_set_matches_dense_reference(w in workload_strategy()) {
        let active = run_workload(&w, false);
        let dense = run_workload(&w, true);
        prop_assert_eq!(active, dense);
    }

    /// Mid-run and out-of-order injection: slots added between steps at
    /// rounds below the agenda's tail, at the current round, already in
    /// the past, and at `u64::MAX`. Both engines must agree after every
    /// step, not only at the end.
    #[test]
    fn stepped_injection_matches_dense_reference(
        w in workload_strategy(),
        all_terminated in any::<bool>(),
        injections in prop_vec(prop_vec(inject_strategy(), 0..3), 1..64),
    ) {
        let mut w = w;
        if all_terminated {
            w.stop_when = StopWhen::AllTerminated;
        }
        let active = run_stepped(&w, &injections, false);
        let dense = run_stepped(&w, &injections, true);
        prop_assert_eq!(active, dense);
    }
}

/// Deterministic spot-checks of corners the random strategy can miss:
/// everyone waking late, a crash scheduled before its victim's wake round,
/// and an all-crashed population wedging against the round budget.
#[test]
fn corner_cases_match_dense_reference() {
    let base = Workload {
        seed: 11,
        channels: 4,
        wake_offsets: vec![7, 7, 7],
        cd_mode: CdMode::Strong,
        faults: FaultChoice::Clean,
        stop_when: StopWhen::Solved,
    };
    assert_eq!(run_workload(&base, false), run_workload(&base, true));

    // Crash a node before it ever wakes: schedule round 0, wake round 9.
    let mut pre_wake_crash = base.clone();
    pre_wake_crash.wake_offsets = vec![0, 9];
    pre_wake_crash.faults = FaultChoice::CrashRandom { f: 1, window: 1 };
    assert_eq!(
        run_workload(&pre_wake_crash, false),
        run_workload(&pre_wake_crash, true)
    );

    // Crash everyone: both engines must wedge identically on the budget.
    let mut all_dead = base.clone();
    all_dead.faults = FaultChoice::CrashRandom { f: 3, window: 2 };
    assert_eq!(
        run_workload(&all_dead, false),
        run_workload(&all_dead, true)
    );
}

/// Deterministic corners of mid-run injection: a slot scheduled behind the
/// clock, a slot crashed before its wake round, and injections that arrive
/// out of round order.
#[test]
fn injection_corner_cases_match_dense_reference() {
    let stepped = |w: &Workload, injections: &[Vec<Inject>]| {
        let active = run_stepped(w, injections, false);
        assert_eq!(active, run_stepped(w, injections, true));
        active
    };
    let base = Workload {
        seed: 11,
        channels: 1,
        wake_offsets: vec![0],
        cd_mode: CdMode::Strong,
        faults: FaultChoice::Clean,
        stop_when: StopWhen::AllTerminated,
    };

    // A slot scheduled in the past never wakes: it stays `Pending` and
    // keeps an otherwise all-terminated run from finishing.
    let mut injections = vec![Vec::new(); 40];
    injections[3] = vec![Inject::Past(2)];
    let keys = stepped(&base, &injections);
    let (status, _, pending, live, states) = keys.last().unwrap();
    assert_eq!(status, &Ok(StepStatus::Running));
    assert_eq!((*pending, *live), (1, 0));
    assert_eq!(states, &[SlotState::Terminated, SlotState::Pending]);

    // A slot crashed (round 4) before its wake round (6) is skipped when
    // its round comes: it is never live.
    let crash = Workload {
        channels: 4,
        faults: FaultChoice::CrashAt { node: 1, round: 4 },
        ..base.clone()
    };
    let mut injections = vec![Vec::new(); 12];
    injections[0] = vec![Inject::Ahead(6)];
    let keys = stepped(&crash, &injections);
    assert!(keys.iter().all(|k| k.4[1] != SlotState::Live));
    assert_eq!(keys[3].4[1], SlotState::Pending);
    assert_eq!(keys[4].4[1], SlotState::Crashed);
    assert_eq!(keys[4].2, 0, "the crashed slot is no longer pending");

    // Out of round order: slot 2 (round 9) and slot 3 (round 4) both wake
    // before slot 1 (round 30), which was queued first.
    let shuffled = Workload {
        channels: 4,
        wake_offsets: vec![0, 30],
        ..base
    };
    let mut injections = vec![Vec::new(); 40];
    injections[0] = vec![Inject::Ahead(9), Inject::Ahead(4)];
    let keys = stepped(&shuffled, &injections);
    assert_eq!(keys[3].4[3], SlotState::Pending);
    assert_ne!(keys[4].4[3], SlotState::Pending);
    assert_eq!(keys[8].4[2], SlotState::Pending);
    assert_ne!(keys[9].4[2], SlotState::Pending);
    assert_eq!(keys[29].4[1], SlotState::Pending);
    assert_ne!(keys[30].4[1], SlotState::Pending);
}
