//! The timed phase of an in-process workload and the end-to-end metrics it
//! yields.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mac_sim::PowHistogram;

use crate::stats::{stolen_s, Metric, Reservoir};
use crate::workload::{run_batch, Tally, Trial, Workload, WORKERS};

/// Batches whose trials define the simulated metrics: a fixed prefix, so
/// that those metrics repeat exactly for a seed however fast the host is.
pub const SIM_BATCHES: usize = 8;

/// Per-trial CPU-time samples kept (fixed memory).
const RESERVOIR: usize = 1 << 15;

/// Simulated outcomes of the fixed prefix of trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Simulated {
    /// Trials in the prefix.
    pub trials: u64,
    /// Operations attempted in the prefix (see [`Trial::operations`]).
    pub attempted: u64,
    /// Failed operations in the prefix.
    pub failed: u64,
    /// Rounds to solve → solved trials (one-shot workloads).
    pub rounds: BTreeMap<u64, u64>,
    /// Per-packet latency (traffic).
    pub latency: PowHistogram,
    /// Packets delivered.
    pub delivered: u64,
    /// Rounds executed, summed over trials.
    pub rounds_executed: u64,
    /// Node actions, summed over trials (0 where not counted).
    pub node_actions: u64,
}

impl Simulated {
    /// The simulated outcomes of `trials`.
    #[must_use]
    pub fn of(trials: &[Trial]) -> Self {
        let mut sim = Simulated::default();
        trials.iter().for_each(|t| sim.add(t));
        sim
    }

    fn add(&mut self, trial: &Trial) {
        let (attempted, failed) = trial.operations();
        self.trials += 1;
        self.attempted += attempted;
        self.failed += failed;
        self.node_actions += trial.node_actions;
        self.delivered += trial.delivered();
        if let Some(summary) = &trial.summary {
            self.rounds_executed += summary.rounds_executed;
            if let Some(rounds) = summary.rounds_to_solve() {
                *self.rounds.entry(rounds).or_default() += 1;
            }
        }
        if let Some(stream) = &trial.stream {
            self.rounds_executed += stream.rounds;
            self.latency.merge(&stream.latency);
        }
    }
}

/// Everything the timed phase measured.
pub struct Timed {
    /// The workload.
    pub workload: Workload,
    /// Trials attempted.
    pub trials: u64,
    /// Trials that failed.
    pub failed_trials: u64,
    /// Operations attempted and failed over the whole phase.
    pub ops: Tally,
    /// Batches run.
    pub batches: u64,
    /// Wall clock of the whole timed phase, seconds.
    pub wall: f64,
    /// Seconds of the timed phase the hypervisor took from each CPU
    /// ([`stolen_s`]).
    pub stolen: f64,
    /// Packets delivered over all trials.
    pub delivered: u64,
    /// Node actions over all trials (0 where the path does not count).
    pub node_actions: u64,
    /// Per-trial CPU time sample ([`Trial::cpu_ns`]).
    pub trial_ns: Reservoir,
    /// The fixed prefix's simulated outcomes.
    pub sim: Simulated,
    /// Whether every traffic stream conserved its packets.
    pub conserved: bool,
    /// The first batch's trials, kept for the output checks.
    pub sample: Vec<Trial>,
}

/// Runs batches of `workload` until `seconds` have passed and at least
/// [`SIM_BATCHES`] batches are done. Batch `b` is trial-seeded from
/// `derive_stream_seed(master, b)`.
#[must_use]
pub fn run_timed(workload: Workload, bench_seed: u64, seconds: f64) -> Timed {
    let master = workload.master(bench_seed);
    let mut timed = Timed {
        workload,
        trials: 0,
        failed_trials: 0,
        ops: Tally::default(),
        batches: 0,
        wall: 0.0,
        stolen: 0.0,
        delivered: 0,
        node_actions: 0,
        trial_ns: Reservoir::new(RESERVOIR, master),
        sim: Simulated::default(),
        conserved: true,
        sample: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let stolen_before = stolen_s();
    let start = Instant::now();
    let mut batch = 0u64;
    while batch < SIM_BATCHES as u64 || start.elapsed() < budget {
        let seeds = mac_sim::derive_stream_seed(master, batch);
        let (trials, _) = run_batch(workload, seeds, workload.batch_trials(), WORKERS, false);
        for trial in &trials {
            timed.fold(trial, batch < SIM_BATCHES as u64);
        }
        if batch == 0 {
            timed.sample = trials;
        }
        batch += 1;
    }
    timed.wall = start.elapsed().as_secs_f64();
    timed.stolen = stolen_s() - stolen_before;
    timed.batches = batch;
    timed
}

impl Timed {
    fn fold(&mut self, trial: &Trial, in_prefix: bool) {
        self.trials += 1;
        self.trial_ns.push(trial.cpu_ns);
        self.delivered += trial.delivered();
        self.node_actions += trial.node_actions;
        if in_prefix {
            self.sim.add(trial);
        }
        self.ops.add(trial);
        if let Some(stream) = &trial.stream {
            self.conserved &= stream.conserves_packets();
        }
        self.failed_trials += u64::from(trial.failure.is_some());
    }

    /// Seconds the timed phase ran: wall clock less the time the
    /// hypervisor took the CPUs away. On a shared virtual machine that
    /// time comes and goes with other tenants' load, and the program
    /// cannot change it.
    #[must_use]
    pub fn run_s(&self) -> f64 {
        (self.wall - self.stolen).max(f64::MIN_POSITIVE)
    }

    /// Completed trials per second of [`Timed::run_s`].
    #[must_use]
    pub fn trials_per_s(&self) -> f64 {
        (self.trials - self.failed_trials) as f64 / self.run_s()
    }

    /// The metrics `BENCHMARK.json` gates on, minus `setup_s` and
    /// `peak_rss_mb` (measured by `run.py` in processes of their own).
    #[must_use]
    pub fn gated(&self) -> Vec<Metric> {
        vec![
            Metric::new("wall_s", self.run_s() / self.batches.max(1) as f64, "s"),
            Metric::new("trials_per_s", self.trials_per_s(), "1/s"),
            Metric::new("trial_us_p50", self.trial_ns.quantile(0.50) / 1e3, "us"),
            Metric::new("trial_us_p99", self.trial_ns.quantile(0.99) / 1e3, "us"),
        ]
    }

    /// Every end-to-end metric that applies to this workload, for the
    /// human-readable report, with the sample it rests on.
    #[must_use]
    pub fn report(&self) -> Vec<(Metric, String)> {
        let n = format!("n={} trials", self.trials);
        let sample = format!(
            "worker-thread CPU time, n={} of {} trials sampled",
            self.trial_ns.seen().min(RESERVOIR as u64),
            self.trials
        );
        let prefix = format!("first {} trials, seed-determined", self.sim.trials);
        let mut out: Vec<(Metric, String)> = self
            .gated()
            .into_iter()
            .map(|m| {
                let note = match m.name.as_str() {
                    "wall_s" => format!(
                        "mean of {} batches of {}, {:.3} s stolen of {:.2} s wall",
                        self.batches,
                        self.workload.batch_trials(),
                        self.stolen,
                        self.wall
                    ),
                    "trial_us_p50" | "trial_us_p99" => sample.clone(),
                    _ => format!("{n} over {:.2} s", self.run_s()),
                };
                (m, note)
            })
            .collect();
        out.push((
            Metric::new("packets_per_s", self.delivered as f64 / self.run_s(), "1/s"),
            format!("{} delivered", self.delivered),
        ));
        if self.node_actions > 0 {
            out.push((
                Metric::new(
                    "node_actions_per_s",
                    self.node_actions as f64 / self.run_s(),
                    "1/s",
                ),
                format!("{} node actions", self.node_actions),
            ));
        }
        match self.workload {
            Workload::Traffic => {
                out.push((
                    Metric::new(
                        "latency_rounds_p50",
                        self.sim.latency.quantile(0.50) as f64,
                        "rounds",
                    ),
                    format!("{} packets, {prefix}", self.sim.latency.count()),
                ));
                out.push((
                    Metric::new(
                        "latency_rounds_p99",
                        self.sim.latency.quantile(0.99) as f64,
                        "rounds",
                    ),
                    format!("{} packets, {prefix}", self.sim.latency.count()),
                ));
                out.push((
                    Metric::new(
                        "delivered_per_round",
                        self.sim.delivered as f64 / self.sim.rounds_executed.max(1) as f64,
                        "packets/round",
                    ),
                    prefix.clone(),
                ));
            }
            Workload::Oneshot | Workload::Deep => {
                let solved: u64 = self.sim.rounds.values().sum();
                for (name, q) in [("rounds_p50", 0.50), ("rounds_p99", 0.99)] {
                    out.push((
                        Metric::new(
                            name,
                            crate::stats::hist_quantile(&self.sim.rounds, q) as f64,
                            "rounds",
                        ),
                        format!("{solved} solved, {prefix}"),
                    ));
                }
            }
        }
        out.push((
            Metric::new(
                "fail_rate",
                self.sim.failed as f64 / self.sim.attempted.max(1) as f64,
                "ratio",
            ),
            format!(
                "{} failed of {} attempted, {prefix}; whole run: {} of {}",
                self.sim.failed, self.sim.attempted, self.ops.failed, self.ops.attempted
            ),
        ));
        out
    }
}
