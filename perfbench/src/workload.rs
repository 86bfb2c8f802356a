//! The three in-process workloads and their trials.
//!
//! * `oneshot` — the paper's headline case: `FullAlgorithm`, C = 64,
//!   n = 2¹², |A| = 500, strong CD, clean channel, full `Engine::run`
//!   report. Loads node construction, `Reduce`, the observation path and
//!   per-trial campaign overhead; bypasses traffic, faults, `IdReduction`
//!   and `LeafElection` (`Reduce` solves it outright).
//! * `deep` — the Theorem 4 post-`Reduce` handoff no other workload
//!   reaches: 64 survivors at C = 1024 run
//!   `Supervised<IdReduction → LeafElection>` behind a `NoisyCd` fault
//!   layer, through `Engine::run_summary`. The restart slice is shorter
//!   than the stack's clean-channel tail, so the supervisor restarts
//!   stragglers (~5.6 restarts a trial). Loads the stage, fault-layer and
//!   supervise paths; light on construction; bypasses observers and
//!   `Reduce`. The layer injects no flips: at 1% noise about 4 trials in
//!   10⁴ end unsolved, and a benchmark workload must not fail; the traced
//!   run measures the noisy stack separately.
//! * `traffic` — `run_traffic` with `BackoffMac` on a Poisson 0.25 stream:
//!   incremental `add_node_at` and per-delivery retirement, below the
//!   backoff knee so backlog and host time stay bounded.
//!
//! Every trial runs under [`guarded_verdict`], so wedges, budget trips,
//! timeouts and panics become counted failures, never an abort.

use std::collections::BTreeMap;
use std::time::Instant;

use contention::phase::{AndThen, Phase, PhaseProtocol, PhaseTelemetry};
use contention::supervise::{RestartPolicy, Supervised, RESTART_MARKER};
use contention::{FullAlgorithm, IdReduction, LeafElection, Params};
use mac_sim::campaign::{Campaign, Cell, Collect, SeedStream};
use mac_sim::fault::{Layered, NoisyCd};
use mac_sim::{
    derive_stream_seed, guarded_verdict, run_traffic, ArrivalProcess, BackoffMac, CdMode, Engine,
    PowHistogram, RunSummary, SimConfig, TrafficReport, TrafficSpec, TrialVerdict,
};

use crate::stats::{ns, thread_cpu_ns};

/// Campaign workers: the benchmark machine has two CPUs.
pub const WORKERS: usize = 2;

/// `oneshot`: channels, universe, active nodes.
pub const ONESHOT_C: u32 = 64;
/// `oneshot` universe size n.
pub const ONESHOT_N: u64 = 1 << 12;
/// `oneshot` active-set size |A|.
pub const ONESHOT_ACTIVE: usize = 500;
/// A `oneshot` trial that has not solved by now counts as a timeout.
const ONESHOT_MAX_ROUNDS: u64 = 10_000;

/// `deep`: channels.
pub const DEEP_C: u32 = 1024;
/// `deep`: survivors entering `IdReduction`.
pub const DEEP_SURVIVORS: usize = 64;
/// `deep`: first supervision slice (acted rounds) and attempt count; the
/// slice doubles per attempt. 20 rounds is below the stack's clean-channel
/// tail, so restarts happen without a single unsolved trial.
const DEEP_SLICE: u64 = 20;
const DEEP_ATTEMPTS: u32 = 6;

/// `traffic`: channels, offered load (packets/round) and arrival window.
pub const TRAFFIC_C: u32 = 64;
/// `traffic` Poisson rate, below the `BackoffMac` knee (~0.28–0.30).
pub const TRAFFIC_RATE: f64 = 0.25;
/// `traffic` arrival window in rounds (~5k packets); the stream then
/// drains. Long enough that memory held per offered packet shows in the
/// peak RSS, short enough for ~5 000 streams a run, so the p99 stream
/// time has ~50 samples beyond it.
pub const TRAFFIC_WINDOW: u64 = 20_000;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline one-shot case.
    Oneshot,
    /// The forced post-`Reduce` stage stack under noise.
    Deep,
    /// Continuous Poisson arrivals.
    Traffic,
}

impl Workload {
    /// All in-process workloads.
    pub const ALL: [Workload; 3] = [Workload::Oneshot, Workload::Deep, Workload::Traffic];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Oneshot => "oneshot",
            Workload::Deep => "deep",
            Workload::Traffic => "traffic",
        }
    }

    /// Trials per timed batch (one campaign run).
    #[must_use]
    pub fn batch_trials(self) -> usize {
        match self {
            Workload::Oneshot | Workload::Deep => 256,
            Workload::Traffic => 16,
        }
    }

    /// Campaign shard size: a pure function of the workload, so results
    /// never depend on the worker count.
    #[must_use]
    pub fn shard_size(self) -> usize {
        match self {
            Workload::Oneshot | Workload::Deep => 8,
            Workload::Traffic => 1,
        }
    }

    /// The master seed of this workload's trial seeds under the
    /// benchmark seed.
    #[must_use]
    pub fn master(self, bench_seed: u64) -> u64 {
        derive_stream_seed(bench_seed, self as u64 + 1)
    }
}

/// What a traffic stream left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Packets that arrived.
    pub offered: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets lost to crashed slots.
    pub dropped: u64,
    /// Packets still queued when the stream stopped.
    pub backlog_final: u64,
    /// Largest end-of-round backlog.
    pub backlog_peak: u64,
    /// Sum of end-of-round backlogs.
    pub backlog_sum: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Per-packet latency, `delivery − arrival + 1` rounds.
    pub latency: PowHistogram,
}

impl StreamStats {
    fn of(report: &TrafficReport) -> Self {
        StreamStats {
            offered: report.offered,
            delivered: report.delivered,
            dropped: report.dropped,
            backlog_final: report.backlog_final,
            backlog_peak: report.backlog_peak,
            backlog_sum: report.backlog_sum,
            rounds: report.rounds,
            latency: report.latency.clone(),
        }
    }

    /// Whether every offered packet is accounted for.
    #[must_use]
    pub fn conserves_packets(&self) -> bool {
        self.offered == self.delivered + self.dropped + self.backlog_final
    }

    /// Node actions (transmits + listens): every live `BackoffMac` acts
    /// once per round, and a delivered packet's last round ends before it
    /// leaves the end-of-round backlog.
    #[must_use]
    pub fn node_actions(&self) -> u64 {
        self.backlog_sum + self.delivered
    }
}

/// One trial's record.
#[derive(Debug, Clone, Default)]
pub struct Trial {
    /// Engine seed.
    pub seed: u64,
    /// Host time of the whole trial: construction, run, teardown.
    pub ns: u64,
    /// CPU time the worker thread spent on the trial: [`Trial::ns`] less
    /// any time the thread was preempted or its CPU taken by the
    /// hypervisor.
    pub cpu_ns: u64,
    /// Traced: engine construction and node insertion.
    pub build_ns: u64,
    /// Traced: the run itself.
    pub run_ns: u64,
    /// Why the trial failed (wedge, budget, timeout, panic, error).
    pub failure: Option<String>,
    /// One-shot workloads: the solved run's summary.
    pub summary: Option<RunSummary>,
    /// Traffic: the stream's report.
    pub stream: Option<StreamStats>,
    /// Node actions; 0 where the trial's path does not count them.
    pub node_actions: u64,
    /// Nodes the trial constructed.
    pub nodes: u64,
    /// Traced: node-rounds per phase name from the phase spine.
    pub spine: Vec<(&'static str, u64)>,
    /// Traced `deep`: supervised restarts over all nodes.
    pub restarts: u64,
    /// Traced `deep`: CD flips injected.
    pub flips: u64,
}

impl Trial {
    fn settle<T>(&mut self, verdict: TrialVerdict<T>) -> Option<T> {
        match verdict {
            TrialVerdict::Solved(value) => Some(value),
            TrialVerdict::Wedged(cause) => {
                self.failure = Some(format!("wedged: {cause:?}"));
                None
            }
            TrialVerdict::Failed(e) => {
                self.failure = Some(format!("failed: {e}"));
                None
            }
        }
    }

    /// Operations attempted and failed: one resolution, or a stream's
    /// offered and undelivered packets. A stream that failed reported no
    /// packets and counts as one failed operation.
    #[must_use]
    pub fn operations(&self) -> (u64, u64) {
        match &self.stream {
            Some(s) => (s.offered, s.dropped + s.backlog_final),
            None => (1, u64::from(self.failure.is_some())),
        }
    }

    /// Packets delivered: one per solved one-shot resolution.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        match (&self.stream, &self.summary) {
            (Some(s), _) => s.delivered,
            (None, Some(_)) => 1,
            (None, None) => 0,
        }
    }
}

/// Operations attempted and failed over a set of trials or runs, with the
/// first few failures.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures, `(seed, cause)`.
    pub failures: Vec<(u64, String)>,
}

impl Tally {
    /// Counts one trial's operations (see [`Trial::operations`]).
    pub fn add(&mut self, trial: &Trial) {
        let (attempted, failed) = trial.operations();
        self.attempted += attempted;
        self.failed += failed;
        if let Some(cause) = &trial.failure {
            self.note(trial.seed, cause.clone());
        }
    }

    /// Counts one standalone run at `seed`, failed unless `ok`.
    pub fn run(&mut self, seed: u64, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(seed, format!("{what}: unsolved, wedged or failed"));
        }
    }

    /// Adds `other`'s counts and failures.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (seed, cause) in other.failures {
            self.note(seed, cause);
        }
    }

    fn note(&mut self, seed: u64, cause: String) {
        if self.failures.len() < 8 {
            self.failures.push((seed, cause));
        }
    }
}

/// The `oneshot` engine configuration.
#[must_use]
pub fn oneshot_config(seed: u64) -> SimConfig {
    SimConfig::new(ONESHOT_C)
        .seed(seed)
        .max_rounds(ONESHOT_MAX_ROUNDS)
}

/// A fresh `oneshot` node.
#[must_use]
pub fn oneshot_node() -> FullAlgorithm {
    FullAlgorithm::new(Params::practical(), ONESHOT_C, ONESHOT_N)
}

/// One supervised `deep` attempt: `IdReduction` handing its id to
/// `LeafElection`.
pub type DeepAttempt = AndThen<IdReduction, LeafElection, fn(u32) -> LeafElection>;

/// The `deep` stack as the engine sees it.
pub type DeepNode = PhaseProtocol<Supervised<DeepAttempt, fn() -> DeepAttempt>>;

fn leaf_election(id: u32) -> LeafElection {
    LeafElection::new(DEEP_C, id)
}

/// A fresh unsupervised `deep` attempt.
#[must_use]
pub fn deep_attempt() -> DeepAttempt {
    IdReduction::new(Params::practical(), DEEP_C).and_then(leaf_election as fn(u32) -> LeafElection)
}

/// The `deep` restart policy.
#[must_use]
pub fn deep_policy() -> RestartPolicy {
    RestartPolicy::new(DEEP_SLICE, DEEP_ATTEMPTS)
}

/// A fresh supervised `deep` node.
#[must_use]
pub fn deep_node() -> DeepNode {
    PhaseProtocol::new(Supervised::new(
        deep_attempt as fn() -> DeepAttempt,
        deep_policy(),
    ))
}

/// The `deep` engine configuration: the round budget covers every
/// supervised attempt.
#[must_use]
pub fn deep_config(seed: u64) -> SimConfig {
    SimConfig::new(DEEP_C)
        .seed(seed)
        .record_metrics(false)
        .round_budget(deep_policy().total_rounds() + 64)
}

/// The `deep` radio at CD flip probability `noise`, over strong CD.
#[must_use]
pub fn deep_radio(noise: f64) -> Layered<NoisyCd, CdMode> {
    Layered::new(NoisyCd::symmetric(noise), CdMode::Strong)
}

/// The `traffic` stream: Poisson arrivals over the window, then a drain,
/// bounded by a horizon of twice the window.
#[must_use]
pub fn traffic_spec(window: u64) -> TrafficSpec {
    TrafficSpec::new(ArrivalProcess::Poisson { rate: TRAFFIC_RATE }, window).horizon(2 * window)
}

/// The `traffic` engine configuration.
#[must_use]
pub fn traffic_config(seed: u64) -> SimConfig {
    SimConfig::new(TRAFFIC_C).seed(seed)
}

/// A `traffic` packet's sender.
#[must_use]
pub fn traffic_node(packet: u64) -> BackoffMac {
    BackoffMac::new(2, 256, packet)
}

/// Node-rounds per phase name over `nodes`, restart markers excluded.
pub fn spine<'a, P: PhaseTelemetry + 'a>(
    nodes: impl Iterator<Item = &'a P>,
) -> Vec<(&'static str, u64)> {
    let mut rounds: BTreeMap<&'static str, u64> = BTreeMap::new();
    for node in nodes {
        for record in node.phase_stats() {
            if record.name != RESTART_MARKER {
                *rounds.entry(record.name).or_default() += record.rounds;
            }
        }
    }
    rounds.into_iter().collect()
}

/// Runs one trial of `workload` at `seed`. A traced trial also times
/// construction and run apart and reads the phase spine.
#[must_use]
pub fn run_trial(workload: Workload, seed: u64, traced: bool) -> Trial {
    match workload {
        Workload::Oneshot => oneshot_trial(seed, traced),
        Workload::Deep => deep_trial(seed, traced, 0.0),
        Workload::Traffic => traffic_trial(seed, TRAFFIC_WINDOW),
    }
}

fn oneshot_trial(seed: u64, traced: bool) -> Trial {
    let mut trial = Trial {
        seed,
        nodes: ONESHOT_ACTIVE as u64,
        ..Trial::default()
    };
    let start = Instant::now();
    let cpu_start = thread_cpu_ns();
    let verdict = guarded_verdict(|| {
        let mut engine = Engine::new(oneshot_config(seed));
        for _ in 0..ONESHOT_ACTIVE {
            engine.add_node(oneshot_node());
        }
        let built = Instant::now();
        let report = engine.run()?;
        if traced {
            trial.build_ns = ns(built - start);
            trial.run_ns = ns(built.elapsed());
            trial.spine = spine(engine.iter_nodes());
        }
        trial.node_actions = report.metrics.transmissions + report.metrics.listens;
        Ok(report.solved_round.map(|_| report.summary()))
    });
    trial.ns = ns(start.elapsed());
    trial.cpu_ns = thread_cpu_ns().saturating_sub(cpu_start);
    trial.summary = trial.settle(verdict);
    trial
}

/// One `deep` trial at CD flip probability `noise`.
#[must_use]
pub fn deep_trial(seed: u64, traced: bool, noise: f64) -> Trial {
    let mut trial = Trial {
        seed,
        nodes: DEEP_SURVIVORS as u64,
        ..Trial::default()
    };
    let start = Instant::now();
    let cpu_start = thread_cpu_ns();
    let verdict = guarded_verdict(|| {
        let mut engine = Engine::with_feedback(deep_config(seed), deep_radio(noise));
        for _ in 0..DEEP_SURVIVORS {
            engine.add_node(deep_node());
        }
        let built = Instant::now();
        let summary = engine.run_summary()?;
        if traced {
            trial.build_ns = ns(built - start);
            trial.run_ns = ns(built.elapsed());
            trial.spine = spine(engine.iter_nodes());
            trial.node_actions = trial.spine.iter().map(|&(_, r)| r).sum();
            trial.restarts = engine
                .iter_nodes()
                .map(|node| u64::from(node.inner().restarts()))
                .sum();
            trial.flips = engine.feedback().layer().flips();
        }
        Ok(summary.solved_round.map(|_| summary))
    });
    trial.ns = ns(start.elapsed());
    trial.cpu_ns = thread_cpu_ns().saturating_sub(cpu_start);
    trial.summary = trial.settle(verdict);
    trial
}

/// One `traffic` stream over an arrival window of `window` rounds.
#[must_use]
pub fn traffic_trial(seed: u64, window: u64) -> Trial {
    let mut trial = Trial {
        seed,
        ..Trial::default()
    };
    let spec = traffic_spec(window);
    let start = Instant::now();
    let cpu_start = thread_cpu_ns();
    let verdict = guarded_verdict(|| {
        run_traffic(traffic_config(seed), CdMode::Strong, &spec, traffic_node)
            .map(|report| Some(StreamStats::of(&report)))
    });
    trial.ns = ns(start.elapsed());
    trial.cpu_ns = thread_cpu_ns().saturating_sub(cpu_start);
    if let Some(stream) = trial.settle(verdict) {
        trial.nodes = stream.offered;
        trial.node_actions = stream.node_actions();
        trial.stream = Some(stream);
    }
    trial
}

/// Runs `trials` trials of `workload` as one campaign on `workers`
/// workers; trial `i` runs at seed `derive_stream_seed(master, i)`.
/// Returns the trials in seed order and the campaign's wall clock.
#[must_use]
pub fn run_batch(
    workload: Workload,
    master: u64,
    trials: usize,
    workers: usize,
    traced: bool,
) -> (Vec<Trial>, std::time::Duration) {
    let mut campaign = Campaign::new()
        .workers(workers)
        .shard_size(workload.shard_size());
    campaign.push(Cell::new(
        trials,
        SeedStream::Derived(master),
        Collect::default,
        move |seed, acc: &mut Collect<Trial>| acc.0.push(run_trial(workload, seed, traced)),
    ));
    let mut out = Vec::new();
    let start = Instant::now();
    campaign.run(|_, acc| out = acc.0);
    (out, start.elapsed())
}
