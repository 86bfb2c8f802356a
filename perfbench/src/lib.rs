//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Measures the simulator and the paper's pipeline from outside, by
//! timing calls into the public functions of `mac_sim` and `contention`.
//! The `perfbench` binary runs one workload per process; `run.py` next to
//! this crate builds it, measures set-up time across processes, runs the
//! `repro-quick` workload, and prints the result line. See `README.md`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

// `stats::thread_cpu_ns` uses Linux's value of `CLOCK_THREAD_CPUTIME_ID`.
#[cfg(not(target_os = "linux"))]
compile_error!("perfbench runs on Linux only");

pub mod checks;
pub mod ledger;
pub mod stats;
pub mod timed;
pub mod workload;
