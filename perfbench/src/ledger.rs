//! The traced run: per-layer metrics, each measured from outside by timing
//! calls into one layer's public functions.
//!
//! Layer metrics of the workload itself (engine, stage spine, campaign,
//! tracing cost) come from that workload's trials. The rest come from
//! standalone probes that do not depend on the workload: the paper stages
//! run alone, the fault and supervise wrappers against their bare
//! counterparts, each observer against the plain run, and the traffic
//! layer's arrival generator and memory.

use std::collections::BTreeMap;
use std::time::Instant;

use contention::phase::PhaseProtocol;
use contention::{IdReduction, LeafElection, Params, Reduce};
use mac_sim::fault::{Layered, NoisyCd};
use mac_sim::obs::RunRecorder;
use mac_sim::{
    derive_stream_seed, guarded_verdict, ArrivalProcess, ArrivalStream, CdMode, Engine,
    FeedbackModel, Protocol, RunSummary, SimConfig, SimError, StopWhen, TelemetrySink,
    TrialVerdict,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::checks::{check_coverage, coverage, Checks};
use crate::stats::{median, ns, proc_status_bytes, Metric};
use crate::workload::{
    deep_attempt, deep_config, deep_node, deep_trial, oneshot_config, oneshot_node, run_batch,
    traffic_config, traffic_node, traffic_trial, Tally, Trial, Workload, DEEP_C, DEEP_SURVIVORS,
    ONESHOT_ACTIVE, ONESHOT_C, ONESHOT_N, TRAFFIC_RATE, TRAFFIC_WINDOW, WORKERS,
};

/// Trials per standalone probe.
const PROBE_TRIALS: u64 = 256;

/// CD flip probability of the fault probe: the noisy `deep` stack.
const PROBE_NOISE: f64 = 0.01;

/// Arrival window of the traffic memory probe: long enough that memory
/// held per offered packet dominates the process's baseline.
const RSS_WINDOW: u64 = 8 * TRAFFIC_WINDOW;

/// The per-layer metrics and the stage-coverage table of a traced run.
pub struct Ledger {
    /// Per-layer metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Node-rounds per phase name, per one-shot workload.
    pub coverage: Vec<(Workload, BTreeMap<&'static str, u64>)>,
    /// Output checks of the probes.
    pub checks: Checks,
    /// Every trial and run of the traced run: the workload's own, the
    /// probes' and the coverage trials.
    pub ops: Tally,
}

/// Runs the traced measurements for `workload` for about `seconds`.
#[must_use]
pub fn run_ledger(workload: Workload, bench_seed: u64, seconds: f64) -> Ledger {
    let mut checks = Checks::default();
    let mut ops = Tally::default();
    let mut metrics = Vec::new();
    // First, while nothing else has raised the high-water mark.
    let rss_per_packet = traffic_rss_per_packet(derive_stream_seed(bench_seed, 11), &mut ops);

    metrics.extend(workload_layers(workload, bench_seed, seconds, &mut ops));
    metrics.extend(stage_probes(bench_seed, &mut ops));
    metrics.extend(fault_probes(bench_seed, &mut checks, &mut ops));
    metrics.extend(observer_probes(bench_seed, &mut ops));
    metrics.extend(traffic_probes(bench_seed, &mut ops));
    metrics.push(Metric::new(
        "traffic.rss_bytes_per_offered_packet",
        rss_per_packet,
        "B",
    ));

    let mut tables = Vec::new();
    for w in [Workload::Oneshot, Workload::Deep] {
        let (table, coverage_ops) = coverage(w, bench_seed);
        ops.merge(coverage_ops);
        check_coverage(&mut checks, w, &table);
        tables.push((w, table));
    }
    Ledger {
        metrics,
        coverage: tables,
        checks,
        ops,
    }
}

/// Sums of a set of traced trials.
#[derive(Default)]
struct TracedSums {
    trials: u64,
    ns: u64,
    build_ns: u64,
    run_ns: u64,
    nodes: u64,
    node_actions: u64,
    spine: BTreeMap<&'static str, u64>,
}

impl TracedSums {
    fn add(&mut self, trial: &Trial) {
        self.trials += 1;
        self.ns += trial.ns;
        self.build_ns += trial.build_ns;
        self.run_ns += trial.run_ns;
        self.nodes += trial.nodes;
        self.node_actions += trial.node_actions;
        for &(name, rounds) in &trial.spine {
            *self.spine.entry(name).or_default() += rounds;
        }
    }
}

/// Engine, stage-spine, campaign and tracing-cost metrics of the
/// workload's own trials: traced and untraced batches alternate on the
/// same seeds for about `seconds / 2`.
fn workload_layers(
    workload: Workload,
    bench_seed: u64,
    seconds: f64,
    ops: &mut Tally,
) -> Vec<Metric> {
    let master = derive_stream_seed(workload.master(bench_seed), 17);
    let trials = workload.batch_trials();
    let mut traced = TracedSums::default();
    let mut ratios = Vec::new();
    let (mut untraced_busy, mut untraced_wall, mut untraced_trials) = (0u64, 0.0f64, 0u64);
    let start = Instant::now();
    let mut pair = 0u64;
    while pair < 4 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let seeds = derive_stream_seed(master, pair);
        let (plain, plain_wall) = run_batch(workload, seeds, trials, WORKERS, false);
        let (spans, spans_wall) = run_batch(workload, seeds, trials, WORKERS, true);
        ratios.push(spans_wall.as_secs_f64() / plain_wall.as_secs_f64());
        untraced_busy += plain.iter().map(|t| t.ns).sum::<u64>();
        untraced_wall += plain_wall.as_secs_f64();
        untraced_trials += plain.len() as u64;
        plain.iter().chain(&spans).for_each(|t| ops.add(t));
        spans.iter().for_each(|t| traced.add(t));
        pair += 1;
    }

    let per_trial = |x: u64| x as f64 / traced.trials.max(1) as f64;
    let spine_total: u64 = traced.spine.values().sum();
    let stage = |name: &str| traced.spine.get(name).copied().unwrap_or(0);
    let (setup_ns_per_node, setup_share, run_ns) = if workload == Workload::Traffic {
        // Traffic inserts nodes during the run: price insertion alone.
        let per_node = traffic_insert_ns_per_node(derive_stream_seed(bench_seed, 12));
        let share = per_node * traced.nodes as f64 / traced.ns.max(1) as f64;
        (per_node, share, traced.ns)
    } else {
        (
            traced.build_ns as f64 / traced.nodes.max(1) as f64,
            traced.build_ns as f64 / traced.ns.max(1) as f64,
            traced.run_ns,
        )
    };
    let capacity_ns = WORKERS as f64 * untraced_wall * 1e9;
    vec![
        Metric::new("engine.setup_ns_per_node", setup_ns_per_node, "ns"),
        Metric::new("engine.setup_share", setup_share, "ratio"),
        Metric::new(
            "engine.run_ns_per_node_action",
            run_ns as f64 / traced.node_actions.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "engine.node_actions_per_trial",
            per_trial(traced.node_actions),
            "count",
        ),
        Metric::new(
            "reduce.node_rounds_share",
            stage("reduce") as f64 / spine_total.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "id_reduction.node_rounds_per_trial",
            per_trial(stage("id-reduction")),
            "count",
        ),
        Metric::new(
            "leaf_election.node_rounds_per_trial",
            per_trial(stage("leaf-election")),
            "count",
        ),
        Metric::new(
            "campaign.busy_share",
            untraced_busy as f64 / capacity_ns,
            "ratio",
        ),
        Metric::new(
            "campaign.overhead_ns_per_trial",
            (capacity_ns - untraced_busy as f64) / untraced_trials.max(1) as f64,
            "ns",
        ),
        Metric::new("trace_overhead_ratio", median(&ratios), "ratio"),
    ]
}

/// Host time of `Engine::add_node_at` per `BackoffMac` node, inserting one
/// traffic stream's worth of nodes at their arrival rounds.
fn traffic_insert_ns_per_node(seed: u64) -> f64 {
    let mut stream = ArrivalStream::new(
        ArrivalProcess::Poisson { rate: TRAFFIC_RATE },
        TRAFFIC_WINDOW,
        seed,
    );
    let mut arrivals = Vec::new();
    while let Some((round, count)) = stream.next_batch() {
        arrivals.extend(std::iter::repeat_n(round, count as usize));
    }
    let mut samples = Vec::new();
    for rep in 0..8u64 {
        let start = Instant::now();
        let mut engine = Engine::new(traffic_config(seed ^ rep));
        for (packet, &round) in arrivals.iter().enumerate() {
            engine.add_node_at(traffic_node(packet as u64), round);
        }
        drop(engine);
        samples.push(ns(start.elapsed()) as f64 / arrivals.len().max(1) as f64);
    }
    median(&samples)
}

/// Runs `PROBE_TRIALS` engines built by `build` and returns host ns of
/// `run()` per node action (construction excluded) over the runs that
/// finished.
fn ns_per_node_action<P: Protocol>(
    seed: u64,
    ops: &mut Tally,
    what: &str,
    build: impl Fn(u64) -> Engine<P>,
) -> f64 {
    let (mut run_ns, mut actions) = (0u64, 0u64);
    for i in 0..PROBE_TRIALS {
        let s = derive_stream_seed(seed, i);
        let mut engine = build(s);
        let start = Instant::now();
        let verdict = guarded_verdict(|| engine.run().map(Some));
        let elapsed = ns(start.elapsed());
        ops.run(s, matches!(verdict, TrialVerdict::Solved(_)), what);
        if let TrialVerdict::Solved(report) = verdict {
            run_ns += elapsed;
            actions += report.metrics.transmissions + report.metrics.listens;
        }
    }
    run_ns as f64 / actions.max(1) as f64
}

fn stage_config(channels: u32, seed: u64) -> SimConfig {
    SimConfig::new(channels)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000)
}

/// Each paper stage run on its own, at the size it has inside its
/// workload: `Reduce` at the `oneshot` size, `IdReduction` and
/// `LeafElection` at the `deep` size.
fn stage_probes(bench_seed: u64, ops: &mut Tally) -> Vec<Metric> {
    let seed = derive_stream_seed(bench_seed, 13);
    let reduce = ns_per_node_action(seed, ops, "reduce alone", |s| {
        let mut engine = Engine::new(stage_config(ONESHOT_C, s));
        for _ in 0..ONESHOT_ACTIVE {
            engine.add_node(Reduce::with_params(Params::practical(), ONESHOT_N));
        }
        engine
    });
    let id_reduction = ns_per_node_action(seed, ops, "id-reduction alone", |s| {
        let mut engine = Engine::new(stage_config(DEEP_C, s));
        for _ in 0..DEEP_SURVIVORS {
            engine.add_node(IdReduction::new(Params::practical(), DEEP_C));
        }
        engine
    });
    let leaf_election = ns_per_node_action(seed, ops, "leaf-election alone", |s| {
        let mut engine = Engine::new(stage_config(DEEP_C, s));
        for id in distinct_ids(DEEP_C / 2, DEEP_SURVIVORS, s) {
            engine.add_node(LeafElection::new(DEEP_C, id));
        }
        engine
    });
    vec![
        Metric::new("reduce.ns_per_node_action", reduce, "ns"),
        Metric::new("id_reduction.ns_per_node_action", id_reduction, "ns"),
        Metric::new("leaf_election.ns_per_node_action", leaf_election, "ns"),
    ]
}

/// `count` distinct ids from `1..=range`, seeded.
fn distinct_ids(range: u32, count: usize, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ids: Vec<u32> = (1..=range).collect();
    for i in 0..count {
        let j = rng.gen_range(i..ids.len());
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids
}

/// Times `a` and `b` on the same seeds, alternating which goes first, and
/// returns `Σ a / Σ b` together with whether every pair of results agreed.
/// A run that returns `None` counts as a failed operation.
fn paired<T: PartialEq>(
    seed: u64,
    trials: u64,
    ops: &mut Tally,
    what: &str,
    mut a: impl FnMut(u64) -> Option<T>,
    mut b: impl FnMut(u64) -> Option<T>,
) -> (f64, bool) {
    let (mut a_ns, mut b_ns, mut agree) = (0u64, 0u64, true);
    for i in 0..trials {
        let s = derive_stream_seed(seed, i);
        let ((ra, ta), (rb, tb)) = if i % 2 == 0 {
            let first = timed(|| a(s));
            (first, timed(|| b(s)))
        } else {
            let first = timed(|| b(s));
            (timed(|| a(s)), first)
        };
        a_ns += ta;
        b_ns += tb;
        ops.run(s, ra.is_some(), what);
        ops.run(s, rb.is_some(), what);
        agree &= ra == rb;
    }
    (a_ns as f64 / b_ns.max(1) as f64, agree)
}

/// Runs `f`, returning its result and host nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, ns(start.elapsed()))
}

/// The run's summary if it solved; `None` if it did not, wedged, failed
/// or panicked.
fn solved(run: impl FnOnce() -> Result<RunSummary, SimError>) -> Option<RunSummary> {
    guarded_verdict(|| run().map(|s| s.solved_round.map(|_| s))).solved()
}

/// One `deep` run on `radio`, with `node` as the node builder.
fn deep_run<P: Protocol, F: FeedbackModel>(
    seed: u64,
    radio: F,
    node: impl Fn() -> P,
) -> Option<RunSummary> {
    let mut engine = Engine::with_feedback(deep_config(seed), radio);
    for _ in 0..DEEP_SURVIVORS {
        engine.add_node(node());
    }
    solved(|| engine.run_summary())
}

/// Fault layer and supervision wrapper: overhead on a clean channel
/// against their bare counterparts, and flips and restarts of the `deep`
/// stack under 1% CD noise.
fn fault_probes(bench_seed: u64, checks: &mut Checks, ops: &mut Tally) -> Vec<Metric> {
    let seed = derive_stream_seed(bench_seed, 14);
    let (noisy_ratio, noisy_same) = paired(
        seed,
        PROBE_TRIALS,
        ops,
        "deep stack, NoisyCd(0) vs bare",
        |s| {
            deep_run(
                s,
                Layered::new(NoisyCd::symmetric(0.0), CdMode::Strong),
                deep_node,
            )
        },
        |s| deep_run(s, CdMode::Strong, deep_node),
    );
    checks.expect(
        noisy_same,
        "Layered<NoisyCd(0)> runs are identical to bare strong CD",
    );
    let (supervise_ratio, _) = paired(
        seed,
        PROBE_TRIALS,
        ops,
        "deep stack, supervised vs bare",
        |s| deep_run(s, CdMode::Strong, deep_node).map(|_| ()),
        |s| deep_run(s, CdMode::Strong, || PhaseProtocol::new(deep_attempt())).map(|_| ()),
    );
    let trials: Vec<Trial> = (0..PROBE_TRIALS)
        .map(|i| deep_trial(derive_stream_seed(seed, i), true, PROBE_NOISE))
        .collect();
    trials.iter().for_each(|t| ops.add(t));
    let count = trials.len().max(1) as f64;
    vec![
        Metric::new("fault.noisy_cd.overhead_ratio", noisy_ratio, "ratio"),
        Metric::new(
            "fault.noisy_cd.flips_per_trial",
            trials.iter().map(|t| t.flips).sum::<u64>() as f64 / count,
            "count",
        ),
        Metric::new(
            "supervise.restarts_per_trial",
            trials.iter().map(|t| t.restarts).sum::<u64>() as f64 / count,
            "count",
        ),
        Metric::new("supervise.overhead_ratio", supervise_ratio, "ratio"),
    ]
}

fn oneshot_engine(seed: u64, record_metrics: bool) -> Engine<contention::FullAlgorithm> {
    let mut engine = Engine::new(oneshot_config(seed).record_metrics(record_metrics));
    for _ in 0..ONESHOT_ACTIVE {
        engine.add_node(oneshot_node());
    }
    engine
}

/// Observers on `oneshot` seeds, each against the plain path:
/// `run` ÷ `run_summary`, and `TelemetrySink` / `RunRecorder` ÷ `run`.
fn observer_probes(bench_seed: u64, ops: &mut Tally) -> Vec<Metric> {
    let seed = derive_stream_seed(bench_seed, 15);
    let trials = 4 * PROBE_TRIALS;
    let full = |s| solved(|| oneshot_engine(s, true).run().map(|r| r.summary()));
    let (full_report, _) = paired(
        seed,
        trials,
        ops,
        "oneshot, run vs run_summary",
        full,
        |s| solved(|| oneshot_engine(s, false).run_summary()),
    );
    let (telemetry, _) = paired(
        seed,
        trials,
        ops,
        "oneshot, TelemetrySink vs run",
        |s| {
            let mut sink = TelemetrySink::new();
            solved(|| {
                oneshot_engine(s, true)
                    .run_observed(&mut sink)
                    .map(|r| r.summary())
            })
        },
        full,
    );
    let (recorder, _) = paired(
        seed,
        trials,
        ops,
        "oneshot, RunRecorder vs run",
        |s| {
            let mut recorder = RunRecorder::new();
            let out = solved(|| {
                oneshot_engine(s, true)
                    .run_observed(&mut recorder)
                    .map(|r| r.summary())
            });
            drop(recorder.into_record(s));
            out
        },
        full,
    );
    vec![
        Metric::new("obs.full_report_ratio", full_report, "ratio"),
        Metric::new("obs.telemetry_sink_ratio", telemetry, "ratio"),
        Metric::new("obs.run_recorder_ratio", recorder, "ratio"),
    ]
}

/// The traffic layer: per-round and per-delivery host cost, backlog, and
/// the arrival generator alone.
fn traffic_probes(bench_seed: u64, ops: &mut Tally) -> Vec<Metric> {
    let seed = derive_stream_seed(bench_seed, 16);
    let streams: Vec<Trial> = (0..4)
        .map(|i| traffic_trial(derive_stream_seed(seed, i), TRAFFIC_WINDOW))
        .collect();
    streams.iter().for_each(|t| ops.add(t));
    let sum = |f: &dyn Fn(&Trial) -> u64| streams.iter().map(f).sum::<u64>() as f64;
    let host_ns = sum(&|t| t.ns);
    let rounds = sum(&|t| t.stream.as_ref().map_or(0, |s| s.rounds));
    let delivered = sum(&|t| t.stream.as_ref().map_or(0, |s| s.delivered));
    let backlog_sum = sum(&|t| t.stream.as_ref().map_or(0, |s| s.backlog_sum));
    let backlog_peak = streams
        .iter()
        .filter_map(|t| t.stream.as_ref().map(|s| s.backlog_peak))
        .max()
        .unwrap_or(0);

    let mut per_batch = Vec::new();
    for i in 0..16 {
        let mut stream = ArrivalStream::new(
            ArrivalProcess::Poisson { rate: TRAFFIC_RATE },
            TRAFFIC_WINDOW,
            derive_stream_seed(seed, 100 + i),
        );
        let start = Instant::now();
        let mut batches = 0u64;
        while std::hint::black_box(stream.next_batch()).is_some() {
            batches += 1;
        }
        per_batch.push(ns(start.elapsed()) as f64 / batches.max(1) as f64);
    }
    vec![
        Metric::new("traffic.ns_per_round", host_ns / rounds.max(1.0), "ns"),
        Metric::new(
            "traffic.ns_per_delivery",
            host_ns / delivered.max(1.0),
            "ns",
        ),
        Metric::new("traffic.arrivals_ns_per_batch", median(&per_batch), "ns"),
        Metric::new("traffic.backlog_peak", backlog_peak as f64, "packets"),
        Metric::new(
            "traffic.backlog_mean",
            backlog_sum / rounds.max(1.0),
            "packets",
        ),
    ]
}

/// Resident memory added per offered packet by one long stream on this
/// thread: `VmHWM` after the stream minus `VmRSS` before it.
fn traffic_rss_per_packet(seed: u64, ops: &mut Tally) -> f64 {
    let before = proc_status_bytes("VmRSS");
    let stream = traffic_trial(seed, RSS_WINDOW);
    let after = proc_status_bytes("VmHWM");
    ops.add(&stream);
    let offered = stream.stream.map_or(0, |s| s.offered);
    after.saturating_sub(before) as f64 / offered.max(1) as f64
}
