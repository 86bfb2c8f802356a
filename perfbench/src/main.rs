//! `perfbench` — one in-process workload per invocation.
//!
//! ```text
//! perfbench setup  --workload W --seed N
//! perfbench memory --workload W --seed N
//! perfbench run    --workload W --seed N --seconds S
//! perfbench ledger --workload W --seed N --seconds S
//! ```
//!
//! `setup` prepares the workload up to its first timed trial, prints
//! `ready` and exits. `memory` runs the first timed batch and prints the
//! process's `VmHWM` in bytes. `run` prints the end-to-end metrics of
//! a timed phase, `ledger` the per-layer metrics of a traced run; both end
//! with one JSON result line. Workloads: `oneshot`, `deep`, `traffic`.

use std::process::ExitCode;

use perfbench::checks::{check_timed, Checks};
use perfbench::ledger::run_ledger;
use perfbench::stats::{proc_status_bytes, result_json, Metric};
use perfbench::timed::run_timed;
use perfbench::workload::{run_batch, Tally, Workload, WORKERS};

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    let (mut workload, mut seed, mut seconds) = (None, None, 10.0);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
    })
}

/// Everything before the first timed trial: one warm-up trial per worker,
/// on seeds the timed phase never uses.
fn set_up(workload: Workload, seed: u64) {
    let warm = mac_sim::derive_stream_seed(workload.master(seed), u64::MAX - 2);
    let _ = run_batch(workload, warm, WORKERS, WORKERS, false);
}

fn print_checks(checks: &Checks) {
    for line in &checks.passed {
        println!("check ok      {line}");
    }
    for line in &checks.errors {
        println!("check FAILED  {line}");
    }
}

fn print_failures(ops: &Tally) {
    println!("# {} of {} operations failed", ops.failed, ops.attempted);
    for (seed, cause) in &ops.failures {
        println!("failure  seed {seed}: {cause}");
    }
}

fn print_metric(workload: &str, metric: &Metric, note: &str) {
    println!(
        "{workload:<8} {:<40} {:>16.6} {:<14} {note}",
        metric.name, metric.value, metric.unit
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    match args.command.as_str() {
        "setup" => {
            set_up(args.workload, args.seed);
            println!("ready");
        }
        "memory" => {
            let first_batch = mac_sim::derive_stream_seed(args.workload.master(args.seed), 0);
            let _ = run_batch(
                args.workload,
                first_batch,
                args.workload.batch_trials(),
                WORKERS,
                false,
            );
            println!("{}", proc_status_bytes("VmHWM"));
        }
        "run" => {
            set_up(args.workload, args.seed);
            let timed = run_timed(args.workload, args.seed, args.seconds);
            println!(
                "# {name}: seed {} · {} campaign workers · {} CPUs available",
                args.seed,
                WORKERS,
                std::thread::available_parallelism().map_or(1, usize::from)
            );
            for (metric, note) in timed.report() {
                print_metric(name, &metric, &note);
            }
            print_failures(&timed.ops);
            let checks = check_timed(&timed, args.seed);
            print_checks(&checks);
            println!(
                "{}",
                result_json(
                    checks.ok(),
                    timed.ops.attempted,
                    timed.ops.failed,
                    &timed.gated()
                )
            );
        }
        "ledger" => {
            let ledger = run_ledger(args.workload, args.seed, args.seconds);
            for (workload, table) in &ledger.coverage {
                let total: u64 = table.values().sum();
                for (phase, rounds) in table {
                    println!(
                        "coverage {:<8} {phase:<16} {rounds:>10} node-rounds  {:>6.2}%",
                        workload.name(),
                        100.0 * *rounds as f64 / total.max(1) as f64
                    );
                }
            }
            for metric in &ledger.metrics {
                print_metric(name, metric, "");
            }
            print_failures(&ledger.ops);
            print_checks(&ledger.checks);
            println!(
                "{}",
                result_json(
                    ledger.checks.ok(),
                    ledger.ops.attempted,
                    ledger.ops.failed,
                    &ledger.metrics
                )
            );
        }
        other => {
            eprintln!("perfbench: unknown command {other}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
