//! Output checks, all run outside the timed region: dense-engine replays,
//! packet conservation, node-action accounting and stage coverage.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mac_sim::dense::DenseEngine;
use mac_sim::{
    guarded_verdict, run_traffic, run_traffic_dense, Action, CdMode, Feedback, Protocol,
    RoundContext, Status, TrialVerdict,
};
use rand::rngs::SmallRng;

use crate::timed::Timed;
use crate::workload::{
    deep_config, deep_node, deep_radio, oneshot_config, oneshot_node, run_batch, traffic_config,
    traffic_node, traffic_spec, Tally, Workload, DEEP_SURVIVORS, ONESHOT_ACTIVE, TRAFFIC_WINDOW,
};

/// Trials of the first timed batch replayed on the dense engine.
const REPLAYS: usize = 16;

/// Arrival window of the dense traffic replays (shorter than the timed
/// streams: the dense engine scans every slot ever added each round).
const DENSE_WINDOW: u64 = TRAFFIC_WINDOW / 8;

/// Trials per workload read for stage coverage.
const COVERAGE_TRIALS: usize = 64;

/// The result of the output checks: a list of failed checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// One line per failed check.
    pub errors: Vec<String>,
    /// One line per passed check.
    pub passed: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn expect(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.passed.push(what);
        } else {
            self.errors.push(what);
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Checks a timed phase's outputs.
#[must_use]
pub fn check_timed(timed: &Timed, bench_seed: u64) -> Checks {
    let mut checks = Checks::default();
    let replays = &timed.sample[..REPLAYS.min(timed.sample.len())];
    match timed.workload {
        Workload::Oneshot => {
            checks.expect(
                timed.failed_trials == 0,
                format!(
                    "every oneshot trial solves ({} of {} failed)",
                    timed.failed_trials, timed.trials
                ),
            );
            let same = replays.iter().all(|t| {
                let mut dense = DenseEngine::new(oneshot_config(t.seed));
                for _ in 0..ONESHOT_ACTIVE {
                    dense.add_node(oneshot_node());
                }
                dense.run_summary().ok() == t.summary
            });
            checks.expect(
                same,
                format!(
                    "{} oneshot runs replay bit-identically on DenseEngine",
                    replays.len()
                ),
            );
        }
        Workload::Deep => {
            let same = replays.iter().all(|t| {
                let verdict = guarded_verdict(|| {
                    let mut dense =
                        DenseEngine::with_feedback(deep_config(t.seed), deep_radio(0.0));
                    for _ in 0..DEEP_SURVIVORS {
                        dense.add_node(deep_node());
                    }
                    dense.run_summary().map(|s| s.solved_round.map(|_| s))
                });
                matches!(verdict, TrialVerdict::Solved(s) if Some(s) == t.summary)
                    || (t.summary.is_none() && !matches!(verdict, TrialVerdict::Solved(_)))
            });
            checks.expect(
                same,
                format!(
                    "{} deep runs replay bit-identically on DenseEngine",
                    replays.len()
                ),
            );
        }
        Workload::Traffic => {
            checks.expect(
                timed.conserved,
                format!(
                    "offered = delivered + dropped + backlog_final for all {} streams",
                    timed.trials
                ),
            );
            checks.expect(
                timed.failed_trials == 0,
                format!(
                    "every traffic stream completes ({} failed)",
                    timed.failed_trials
                ),
            );
            let master = Workload::Traffic.master(bench_seed);
            let seeds = [
                mac_sim::derive_stream_seed(master, u64::MAX),
                mac_sim::derive_stream_seed(master, u64::MAX - 1),
            ];
            let same = seeds.iter().all(|&seed| dense_traffic_agrees(seed));
            checks.expect(
                same,
                format!(
                    "{} traffic streams replay identically on run_traffic_dense",
                    seeds.len()
                ),
            );
            let counted = seeds.iter().all(|&seed| node_actions_agree(seed));
            checks.expect(
                counted,
                "traffic node actions = backlog_sum + delivered".to_string(),
            );
        }
    }
    if timed.workload != Workload::Traffic {
        let (table, _) = coverage(timed.workload, bench_seed);
        check_coverage(&mut checks, timed.workload, &table);
    }
    checks
}

fn dense_traffic_agrees(seed: u64) -> bool {
    let spec = traffic_spec(DENSE_WINDOW);
    let sparse = run_traffic(traffic_config(seed), CdMode::Strong, &spec, traffic_node);
    let dense = run_traffic_dense(traffic_config(seed), CdMode::Strong, &spec, traffic_node);
    matches!((sparse, dense), (Ok(a), Ok(b)) if a == b)
}

/// A protocol wrapper that counts the actions its node takes.
struct Counted<P> {
    inner: P,
    actions: Arc<AtomicU64>,
}

impl<P: Protocol> Protocol for Counted<P> {
    type Msg = P::Msg;

    fn on_wake(&mut self, ctx: &RoundContext, rng: &mut SmallRng) {
        self.inner.on_wake(ctx, rng);
    }

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<P::Msg> {
        let action = self.inner.act(ctx, rng);
        if !matches!(action, Action::Sleep) {
            self.actions.fetch_add(1, Ordering::Relaxed);
        }
        action
    }

    fn observe(&mut self, ctx: &RoundContext, feedback: Feedback<P::Msg>, rng: &mut SmallRng) {
        self.inner.observe(ctx, feedback, rng);
    }

    fn status(&self) -> Status {
        self.inner.status()
    }

    fn phase(&self) -> &'static str {
        self.inner.phase()
    }
}

fn node_actions_agree(seed: u64) -> bool {
    let spec = traffic_spec(DENSE_WINDOW);
    let actions = Arc::new(AtomicU64::new(0));
    let counted = run_traffic(traffic_config(seed), CdMode::Strong, &spec, |pkt| Counted {
        inner: traffic_node(pkt),
        actions: Arc::clone(&actions),
    });
    let plain = run_traffic(traffic_config(seed), CdMode::Strong, &spec, traffic_node);
    match (counted, plain) {
        (Ok(c), Ok(p)) => c == p && actions.load(Ordering::Relaxed) == p.backlog_sum + p.delivered,
        _ => false,
    }
}

/// Node-rounds per phase name over [`COVERAGE_TRIALS`] traced trials of
/// `workload`, read from the phase spine, and the trials' operations.
#[must_use]
pub fn coverage(workload: Workload, bench_seed: u64) -> (BTreeMap<&'static str, u64>, Tally) {
    let master = mac_sim::derive_stream_seed(workload.master(bench_seed), u64::MAX);
    let (trials, _) = run_batch(
        workload,
        master,
        COVERAGE_TRIALS,
        crate::workload::WORKERS,
        true,
    );
    let (mut table, mut ops) = (BTreeMap::new(), Tally::default());
    for trial in &trials {
        ops.add(trial);
        for &(name, rounds) in &trial.spine {
            *table.entry(name).or_default() += rounds;
        }
    }
    (table, ops)
}

/// The stage each one-shot workload exists for must keep running.
pub fn check_coverage(
    checks: &mut Checks,
    workload: Workload,
    table: &BTreeMap<&'static str, u64>,
) {
    let stage = match workload {
        Workload::Oneshot => "reduce",
        Workload::Deep => "leaf-election",
        Workload::Traffic => return,
    };
    let rounds = table.get(stage).copied().unwrap_or(0);
    checks.expect(
        rounds > 0,
        format!(
            "{} reaches {stage} ({rounds} node-rounds in {COVERAGE_TRIALS} trials)",
            workload.name()
        ),
    );
}
