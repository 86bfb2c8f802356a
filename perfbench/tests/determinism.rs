//! The benchmark's simulated metrics are a function of the seed alone:
//! identical at one and two campaign workers, and across repeated runs.

use perfbench::timed::Simulated;
use perfbench::workload::{run_batch, Trial, Workload};

/// Small enough for a debug build, large enough to reach every stage.
fn trials(workload: Workload) -> usize {
    match workload {
        Workload::Oneshot | Workload::Deep => 24,
        Workload::Traffic => 2,
    }
}

fn run(workload: Workload, workers: usize) -> Vec<Trial> {
    let master = mac_sim::derive_stream_seed(workload.master(7), 0);
    run_batch(workload, master, trials(workload), workers, false).0
}

#[test]
fn simulated_metrics_do_not_depend_on_worker_count() {
    for workload in Workload::ALL {
        let one = run(workload, 1);
        let two = run(workload, 2);
        assert_eq!(one.len(), trials(workload));
        assert_eq!(
            Simulated::of(&one),
            Simulated::of(&two),
            "{}",
            workload.name()
        );
        let summaries = |t: &[Trial]| {
            t.iter()
                .map(|t| (t.seed, t.summary, t.stream.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(summaries(&one), summaries(&two), "{}", workload.name());
    }
}

#[test]
fn simulated_metrics_repeat_for_a_seed() {
    for workload in Workload::ALL {
        assert_eq!(
            Simulated::of(&run(workload, 2)),
            Simulated::of(&run(workload, 2))
        );
    }
}

#[test]
fn no_workload_trial_fails() {
    for workload in Workload::ALL {
        assert!(
            run(workload, 2).iter().all(|t| t.failure.is_none()),
            "{}",
            workload.name()
        );
    }
}
