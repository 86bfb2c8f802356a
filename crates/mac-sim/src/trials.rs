//! The trial layer: multi-seed execution fan-out, shared by experiments,
//! benches, and tests.
//!
//! A *trial* is one full engine run at one seed. Experiments need many of
//! them — round-complexity curves average hundreds of runs per point — so
//! [`run_trials`] spreads trials over OS threads while keeping results
//! **deterministic in the base seed regardless of thread count**: trial `i`
//! always runs at seed `base_seed + i`, and results come back in trial
//! order.
//!
//! [`run_trials`] is the one fan-out. Its closure builds and runs one trial
//! however the caller needs: [`Engine::run`](crate::Engine::run) for a full
//! report, [`Engine::run_summary`](crate::Engine::run_summary) for the
//! cheap solve data, [`Engine::run_observed`](crate::Engine::run_observed)
//! with a [`RunRecorder`](crate::obs::RunRecorder),
//! [`TelemetrySink`](crate::TelemetrySink) or [`Trace`](crate::Trace)
//! attached, or [`run_traffic`](crate::run_traffic) plus
//! [`TrafficReport::flush_to`](crate::TrafficReport::flush_to). It returns
//! whatever the closure extracts — the report, the final protocol state,
//! or both.
//!
//! The fan-out is a thin adapter: each call schedules a single-cell
//! [`campaign`](crate::campaign) whose aggregate collects results in seed
//! order, so the trial layer and the sweep layer share one scheduler (and
//! one determinism contract). Multi-cell sweeps should build a
//! [`Campaign`] directly — that is what keeps the pool saturated across
//! grid points and enables streaming aggregation, progress, and resume.
//!
//! [`guarded_verdict`] is the panic-isolated counterpart for fault
//! experiments, where a wedged trial is a data point rather than a bug.

use crate::campaign::{panic_message, Campaign, Cell, Collect, SeedStream};
use crate::error::SimError;

/// Why a guarded trial ([`guarded_verdict`]) produced no solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WedgeCause {
    /// The run finished inside its budget but never solved.
    Unsolved,
    /// The engine's [`crate::SimConfig::round_budget`] watchdog fired.
    BudgetExhausted,
    /// The engine's max-rounds cap fired.
    Timeout,
    /// The trial panicked — e.g. a `debug_assert!` encoding a
    /// clean-channel invariant tripped under injected faults. The message
    /// is rendered by [`panic_message`], the same helper campaign
    /// quarantine reports use.
    Panicked(String),
}

/// Verdict of one guarded (panic-isolated) trial run — the single
/// accounting path for "did this faulted trial wedge?", shared by the
/// fault experiments (E18/E19) and aligned with the campaign layer's
/// quarantine accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialVerdict<T> {
    /// The trial solved; `T` is whatever the closure extracted.
    Solved(T),
    /// The trial wedged: no solve, for the given cause.
    Wedged(WedgeCause),
    /// The simulation failed in a way that is *not* a fault-induced wedge
    /// (e.g. [`SimError::NoNodes`]) — an experiment bug, surfaced
    /// distinctly so callers can fail loudly instead of undercounting.
    Failed(SimError),
}

impl<T> TrialVerdict<T> {
    /// The solved value, if the trial solved.
    pub fn solved(self) -> Option<T> {
        match self {
            TrialVerdict::Solved(value) => Some(value),
            _ => None,
        }
    }

    /// Whether the trial wedged (any [`WedgeCause`]).
    #[must_use]
    pub fn is_wedged(&self) -> bool {
        matches!(self, TrialVerdict::Wedged(_))
    }
}

/// Runs one trial under panic isolation and classifies the outcome.
///
/// `run` executes the engine and returns `Ok(Some(value))` on a solve,
/// `Ok(None)` when the run finished without solving, or the engine error.
/// Panics (tripped debug assertions under faults), budget exhaustion, and
/// timeouts all map to [`TrialVerdict::Wedged`] — the same verdict, so
/// wedged-trial counts do not depend on whether a fault wedges the
/// protocol loudly (assertion) or quietly (budget).
pub fn guarded_verdict<T>(run: impl FnOnce() -> Result<Option<T>, SimError>) -> TrialVerdict<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(Ok(Some(value))) => TrialVerdict::Solved(value),
        Ok(Ok(None)) => TrialVerdict::Wedged(WedgeCause::Unsolved),
        Ok(Err(SimError::BudgetExhausted { .. })) => {
            TrialVerdict::Wedged(WedgeCause::BudgetExhausted)
        }
        Ok(Err(SimError::Timeout { .. })) => TrialVerdict::Wedged(WedgeCause::Timeout),
        Ok(Err(e)) => TrialVerdict::Failed(e),
        Err(payload) => TrialVerdict::Wedged(WedgeCause::Panicked(panic_message(payload.as_ref()))),
    }
}

/// Runs `trials` independent trials, trial `i` at seed `base_seed + i`,
/// and returns what `run` produced for each, in seed order.
///
/// `run` receives the trial's seed, builds and runs one trial, and returns
/// whatever the caller wants to keep from it. Trials are spread over
/// `std::thread::available_parallelism()` threads (capped at the trial
/// count); results are deterministic regardless of thread count because
/// each trial is fully determined by its seed. Each worker gets a
/// contiguous range of seeds, so replaying a failed range is trivial.
///
/// # Panics
///
/// Panics if any trial fails (a timeout or protocol error is an experiment
/// bug, not a data point — the panic message carries the seed for replay).
pub fn run_trials<T: Send>(
    trials: usize,
    base_seed: u64,
    run: impl Fn(u64) -> Result<T, SimError> + Sync,
) -> Vec<T> {
    // Borrowed into the cell, so `run` need only be `Sync`, not `Send`.
    let run = &run;
    let threads = std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .min(trials.max(1));
    let mut campaign = Campaign::new()
        .workers(threads)
        .shard_size(trials.div_ceil(threads).max(1));
    campaign.push(Cell::new(
        trials,
        SeedStream::Offset(base_seed),
        Collect::default,
        move |seed, acc: &mut Collect<T>| {
            let value = run(seed).unwrap_or_else(|e| panic!("trial with seed {seed} failed: {e}"));
            acc.0.push(value);
        },
    ));
    campaign
        .run_collect()
        .into_iter()
        .next()
        .map(|c| c.0)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Feedback};
    use crate::channel::ChannelId;
    use crate::config::{CdMode, SimConfig};
    use crate::engine::{Engine, RunReport, RunSummary};
    use crate::obs::telemetry::{MetricsHub, TelemetrySink};
    use crate::obs::RunRecorder;
    use crate::protocol::{Protocol, RoundContext, Status};
    use crate::traffic::{run_traffic, ArrivalProcess, BackoffMac, TrafficReport, TrafficSpec};
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Transmits on the primary channel with probability 1/2 each round;
    /// solves in a geometric number of rounds, different per seed.
    struct Flip;
    impl Protocol for Flip {
        type Msg = u8;
        fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u8> {
            if rng.gen_bool(0.5) {
                Action::transmit(ChannelId::PRIMARY, 0)
            } else {
                Action::listen(ChannelId::PRIMARY)
            }
        }
        fn observe(&mut self, _ctx: &RoundContext, _fb: Feedback<u8>, _rng: &mut SmallRng) {}
        fn status(&self) -> Status {
            Status::Active
        }
    }

    fn build(seed: u64) -> Engine<Flip> {
        let mut engine = Engine::new(SimConfig::new(1).seed(seed).max_rounds(10_000));
        for _ in 0..4 {
            engine.add_node(Flip);
        }
        engine
    }

    fn reports(trials: usize, base_seed: u64) -> Vec<RunReport> {
        run_trials(trials, base_seed, |seed| build(seed).run())
    }

    #[test]
    fn trials_are_deterministic_and_seed_ordered() {
        let solved = |base| -> Vec<_> { reports(8, base).iter().map(|r| r.solved_round).collect() };
        let a = solved(100);
        assert_eq!(a, solved(100));
        assert_ne!(a, solved(999));
        // Trial i is exactly the run at seed base + i.
        let solo = build(103).run().unwrap();
        assert_eq!(a[3], solo.solved_round);
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let expected = run_trials(13, 7, |seed| build(seed).run_summary());
        for threads in [1, 2, 3, 8, 32] {
            let mut campaign = Campaign::new()
                .workers(threads)
                .shard_size(13_usize.div_ceil(threads));
            campaign.push(Cell::new(
                13,
                SeedStream::Offset(7),
                Collect::default,
                |seed, acc: &mut Collect<RunSummary>| {
                    acc.0.push(build(seed).run_summary().unwrap())
                },
            ));
            let many = campaign.run_collect().remove(0).0;
            assert_eq!(expected, many, "{threads} threads diverged from run_trials");
        }
    }

    #[test]
    fn summaries_match_full_reports() {
        let summaries = run_trials(6, 42, |seed| build(seed).run_summary());
        let from_reports: Vec<_> = reports(6, 42).iter().map(RunReport::summary).collect();
        assert_eq!(summaries, from_reports);
    }

    #[test]
    fn extract_sees_final_engine_state() {
        let lens = run_trials(3, 5, |seed| {
            let mut engine = build(seed);
            engine.run()?;
            Ok(engine.len())
        });
        assert_eq!(lens, vec![4, 4, 4]);
    }

    #[test]
    fn recorded_trials_match_reports() {
        let pairs = run_trials(4, 42, |seed| {
            let mut recorder = RunRecorder::new();
            let report = build(seed).run_observed(&mut recorder)?;
            Ok((report, recorder.into_record(seed)))
        });
        for ((report, record), plain) in pairs.iter().zip(&reports(4, 42)) {
            assert_eq!(report.solved_round, plain.solved_round);
            assert_eq!(record.transmissions, report.metrics.transmissions);
            assert_eq!(record.listens, report.metrics.listens);
            assert_eq!(record.rounds, report.rounds_executed);
            assert_eq!(record.solved_round, report.solved_round);
        }
        assert_eq!(pairs[2].1.seed, 44);
    }

    #[test]
    fn observed_trials_match_bare_and_tally_into_the_hub() {
        let bare: Vec<_> = reports(6, 42).iter().map(RunReport::summary).collect();
        let hub = MetricsHub::new(3);
        let observed = run_trials(6, 42, |seed| {
            let mut sink = TelemetrySink::new();
            let report = build(seed).run_observed(&mut sink)?;
            sink.flush_to(&hub, (seed - 42) as usize);
            Ok(report.summary())
        });
        assert_eq!(bare, observed, "telemetry perturbed the runs");
        let snap = hub.snapshot();
        assert_eq!(snap.registry.counter("engine_runs_total"), 6);
        assert_eq!(snap.registry.counter("engine_solved_total"), 6);
        let rounds: u64 = bare.iter().map(|r| r.rounds_executed).sum();
        assert_eq!(snap.registry.counter("engine_rounds_total"), rounds);
    }

    #[test]
    fn single_trial_works() {
        assert_eq!(reports(1, 0).len(), 1);
    }

    fn traffic(seed: u64, rate: f64, packets: u64) -> Result<TrafficReport, SimError> {
        let spec = TrafficSpec::new(ArrivalProcess::Poisson { rate }, packets);
        let config = SimConfig::new(2).seed(seed).max_rounds(100_000);
        run_traffic(config, CdMode::Strong, &spec, |pkt| {
            BackoffMac::new(2, 64, pkt)
        })
    }

    #[test]
    fn traffic_trials_are_deterministic_and_seed_indexed() {
        let run = |base| run_trials(5, base, |seed| traffic(seed, 0.3, 80));
        let a = run(300);
        assert_eq!(a, run(300));
        assert_ne!(a, run(301), "different base seed, different traffic");
        // Trial i is exactly the solo run at seed base + i.
        assert_eq!(a[3], traffic(303, 0.3, 80).unwrap());
    }

    #[test]
    fn observed_traffic_trials_match_bare_and_tally_into_the_hub() {
        let bare = run_trials(4, 7, |seed| traffic(seed, 0.4, 60));
        let hub = MetricsHub::new(2);
        let observed = run_trials(4, 7, |seed| {
            let report = traffic(seed, 0.4, 60)?;
            report.flush_to(&hub, (seed - 7) as usize);
            Ok(report)
        });
        assert_eq!(bare, observed, "telemetry perturbed the traffic runs");
        let snap = hub.snapshot();
        assert_eq!(snap.registry.counter("traffic_runs_total"), 4);
        let offered: u64 = bare.iter().map(|r| r.offered).sum();
        let delivered: u64 = bare.iter().map(|r| r.delivered).sum();
        assert_eq!(snap.registry.counter("traffic_offered_total"), offered);
        assert_eq!(snap.registry.counter("traffic_delivered_total"), delivered);
        assert_eq!(
            snap.registry.histograms()["traffic_packet_latency_rounds"].count(),
            delivered
        );
    }

    #[test]
    fn guarded_verdict_classifies_all_outcomes() {
        assert_eq!(guarded_verdict(|| Ok(Some(7u64))), TrialVerdict::Solved(7));
        assert_eq!(
            guarded_verdict::<u64>(|| Ok(None)),
            TrialVerdict::Wedged(WedgeCause::Unsolved)
        );
        assert_eq!(
            guarded_verdict::<u64>(|| Err(SimError::BudgetExhausted {
                budget: 500,
                solved: false,
            })),
            TrialVerdict::Wedged(WedgeCause::BudgetExhausted)
        );
        assert_eq!(
            guarded_verdict::<u64>(|| Err(SimError::Timeout { max_rounds: 9 })),
            TrialVerdict::Wedged(WedgeCause::Timeout)
        );
        assert_eq!(
            guarded_verdict::<u64>(|| Err(SimError::NoNodes)),
            TrialVerdict::Failed(SimError::NoNodes)
        );
    }

    #[test]
    fn guarded_verdict_isolates_panics_with_message() {
        let verdict = guarded_verdict::<u64>(|| panic!("invariant broke at round {}", 42));
        match &verdict {
            TrialVerdict::Wedged(WedgeCause::Panicked(msg)) => {
                assert!(msg.contains("invariant broke at round 42"), "{msg}");
            }
            other => panic!("expected a panicked wedge, got {other:?}"),
        }
        assert!(verdict.is_wedged());
        assert_eq!(verdict.solved(), None);
    }

    // The seed-carrying message is printed by the worker thread; the scope
    // re-panics with its own payload, so only the panic itself is asserted.
    #[test]
    #[should_panic]
    fn failing_trial_panics_with_seed() {
        let build = |seed: u64| {
            let mut engine = Engine::new(SimConfig::new(1).seed(seed).max_rounds(2));
            // Two steady transmitters collide forever: guaranteed timeout.
            struct Always;
            impl Protocol for Always {
                type Msg = u8;
                fn act(&mut self, _c: &RoundContext, _r: &mut SmallRng) -> Action<u8> {
                    Action::transmit(ChannelId::PRIMARY, 0)
                }
                fn observe(&mut self, _c: &RoundContext, _f: Feedback<u8>, _r: &mut SmallRng) {}
                fn status(&self) -> Status {
                    Status::Active
                }
            }
            engine.add_node(Always);
            engine.add_node(Always);
            engine
        };
        let _ = run_trials(2, 0, |seed| build(seed).run());
    }
}
