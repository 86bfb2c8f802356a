#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` crate next to this
script and the `repro` binary (into $CARGO_TARGET_DIR, default
`.bench_build`), runs the workload, checks its outputs, and prints a
human-readable report followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` the per-layer metrics. Workloads: oneshot, deep, traffic
(in-process, see src/workload.rs) and repro-quick (`repro --quick` as a
subprocess). See README.md for what each one measures and why.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 2
IN_PROCESS = ("oneshot", "deep", "traffic")
WORKLOADS = IN_PROCESS + ("repro-quick",)
EXPERIMENTS = [f"e{i}" for i in range(1, 22)]
# Set-up time is measured on three groups of SETUP_REPEATS processes, spread
# over the run (before, between and after the timed parts), and the median
# of all of them is reported: one group alone follows the host's momentary
# state.
SETUP_REPEATS = 15
# Processes started to measure peak memory; the median is reported.
MEMORY_REPEATS = 9
# `repro --quick` runs timed per run, at least this many even past --seconds.
REPRO_MIN_RUNS = 3
# Runs with and without --record-dir, alternating which goes first.
RECORD_PAIRS = 2
TOTAL_LINE = "_Total wall time"
# Units of /proc/stat per second.
USER_HZ = 100


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Builds the benchmark crate and `repro`; returns (perfbench, repro) paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml"), "--bin", "perfbench"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "Cargo.toml"),
         "-p", "contention-harness", "--bin", "repro"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "perfbench", release / "repro"


def stolen_s():
    """Seconds the hypervisor has taken from this machine's CPUs while they
    had work to run (`steal` in /proc/stat), averaged over the CPUs."""
    try:
        lines = Path("/proc/stat").read_text().split("\n")
    except OSError:
        return 0.0
    cpus = max(1, sum(line.startswith("cpu") for line in lines[1:]))
    return int(lines[0].split()[8]) / USER_HZ / cpus


def run_child(cmd):
    """Runs cmd to completion; returns (exit code, stdout, wall s, max RSS bytes)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, out.decode(), wall, usage.ru_maxrss * 1024


def setup_times(cmd):
    """Times from starting `cmd` to its first output line, over SETUP_REPEATS processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        first = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or not first:
            raise SystemExit(f"set-up failed: {' '.join(map(str, cmd))}")
    return times


def last_json(text):
    lines = text.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def repro_digest(stdout):
    """sha256 of repro's stdout without its run-time line."""
    kept = [line for line in stdout.split("\n") if not line.startswith(TOTAL_LINE)]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def expected_digest():
    return (HERE / "repro_quick.sha256").read_text().split()[0]


def repro_cmd(repro, *extra):
    return [str(repro), "--quick", "--workers", str(WORKERS), *extra]


def campaign_trials(repro, scratch):
    """Runs repro once with a metrics hub attached; returns (trials per run, output ok)."""
    prom = scratch / "metrics.prom"
    code, out, _, _ = run_child(repro_cmd(repro, "--metrics-out", str(prom)))
    trials = 0
    if code == 0 and prom.exists():
        for line in prom.read_text().splitlines():
            if line.startswith("campaign_trials_done_total "):
                trials = int(line.split()[1])
    return trials, code == 0 and repro_digest(out) == expected_digest()


def repro_quick(repro, seconds):
    """The end-to-end metrics of `repro --quick --workers 2`, timed per run."""
    scratch = target_dir() / "perfbench-scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    setup_cmd = [str(repro), "--list"]
    setups = setup_times(setup_cmd)
    trials, warm_ok = campaign_trials(repro, scratch)
    setups += setup_times(setup_cmd)
    walls, rss, failed = [], [], 0
    start = time.perf_counter()
    while len(walls) < REPRO_MIN_RUNS or time.perf_counter() - start < seconds:
        # A run's time is its wall clock less the time the hypervisor took
        # the CPUs away: on a shared virtual machine that comes and goes
        # with other tenants' load, and the program cannot change it.
        stolen = stolen_s()
        code, out, wall, maxrss = run_child(repro_cmd(repro))
        walls.append(wall - (stolen_s() - stolen))
        rss.append(maxrss)
        if code != 0 or repro_digest(out) != expected_digest():
            failed += 1
    shutil.rmtree(scratch, ignore_errors=True)
    setups += setup_times(setup_cmd)
    setup = statistics.median(setups)
    runs = len(walls)
    ordered = sorted(walls)
    p99 = ordered[max(1, -(-99 * runs // 100)) - 1]
    wall = statistics.median(walls)
    report = [
        ("setup_s", setup, "s", f"median of {len(setups)} `repro --list` processes"),
        ("wall_s", wall, "s", f"median of {runs} runs, wall clock less stolen time"),
        ("trials_per_s", trials * runs / sum(walls), "1/s",
         f"{trials} campaign trials a run (counted by repro's metrics hub)"),
        ("trial_us_p50", wall * 1e6, "us", f"per repro run, n={runs}"),
        ("trial_us_p99", p99 * 1e6, "us", f"per repro run, nearest rank of n={runs}"),
        ("peak_rss_mb", statistics.median(rss) / 1e6, "MB", "median ru_maxrss of the runs"),
        ("fail_rate", failed / runs, "ratio", f"{failed} of {runs} runs failed or mismatched"),
    ]
    for name, value, unit, note in report:
        print(f"{'repro-quick':<11} {name:<37} {value:>16.6f} {unit:<14} {note}")
    print(f"check {'ok    ' if warm_ok else 'FAILED'}  repro output matches the stored digest "
          "with a metrics hub attached")
    print(f"check {'ok    ' if failed == 0 else 'FAILED'}  every timed repro run exits 0 "
          "and matches the stored digest")
    metrics = {name: metric(value, unit) for name, value, unit, _ in report if name != "fail_rate"}
    return {"correct": warm_ok and failed == 0 and trials > 0,
            "attempted": runs, "failed": failed, "metrics": metrics}


def harness_layers(repro):
    """Per-experiment wall clock and the record-dir overhead of `repro --quick`."""
    metrics, failed, attempted = {}, 0, 0
    for exp in EXPERIMENTS:
        code, _, wall, _ = run_child(repro_cmd(repro, exp))
        attempted += 1
        failed += code != 0
        metrics[f"harness.{exp}.wall_s"] = metric(wall, "s")
    records = target_dir() / "perfbench-records"
    plain, recorded = [], []
    for i in range(RECORD_PAIRS):
        order = [False, True] if i % 2 == 0 else [True, False]
        for record in order:
            shutil.rmtree(records, ignore_errors=True)
            extra = ("--record-dir", str(records)) if record else ()
            code, out, wall, _ = run_child(repro_cmd(repro, *extra))
            attempted += 1
            failed += code != 0 or repro_digest(out) != expected_digest()
            (recorded if record else plain).append(wall)
    shutil.rmtree(records, ignore_errors=True)
    metrics["harness.record_overhead_ratio"] = metric(
        statistics.median(recorded) / statistics.median(plain), "ratio")
    split = sum(metrics[f"harness.{exp}.wall_s"]["value"] for exp in EXPERIMENTS)
    return metrics, split / statistics.median(plain), attempted, failed


def traced(perfbench, repro, workload, seed, seconds):
    """The per-layer metrics: the in-process ledger plus the harness layers."""
    ledger_workload = workload if workload in IN_PROCESS else "oneshot"
    code, out, _, _ = run_child([str(perfbench), "ledger", "--workload", ledger_workload,
                                 "--seed", str(seed), "--seconds", str(seconds)])
    if code != 0:
        raise SystemExit(f"perfbench ledger exited with {code}")
    result = last_json(out)
    harness, split_ratio, attempted, failed = harness_layers(repro)
    if workload == "repro-quick":
        # Tracing repro means splitting it into one process per experiment.
        result["metrics"]["trace_overhead_ratio"] = metric(split_ratio, "ratio")
    result["metrics"].update(harness)
    for name, m in harness.items():
        print(f"{workload:<8} {name:<40} {m['value']:>16.6f} {m['unit']}")
    result["attempted"] += attempted
    result["failed"] += failed
    result["correct"] = result["correct"] and failed == 0
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    perfbench, repro = build()
    if args.trace:
        result = traced(perfbench, repro, args.workload, args.seed, args.seconds)
    elif args.workload == "repro-quick":
        result = repro_quick(repro, args.seconds)
    else:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        setup_cmd = [str(perfbench), "setup", *common]
        setups = setup_times(setup_cmd)
        rss = statistics.median(
            int(run_child([str(perfbench), "memory", *common])[1])
            for _ in range(MEMORY_REPEATS))
        setups += setup_times(setup_cmd)
        code, out, _, _ = run_child([str(perfbench), "run", *common,
                                     "--seconds", str(args.seconds)])
        if code != 0:
            raise SystemExit(f"perfbench run exited with {code}")
        setups += setup_times(setup_cmd)
        setup = statistics.median(setups)
        result = last_json(out)
        print(f"{args.workload:<8} {'setup_s':<40} {setup:>16.6f} s              "
              f"median of {len(setups)} processes, start to first timed trial")
        print(f"{args.workload:<8} {'peak_rss_mb':<40} {rss / 1e6:>16.6f} MB             "
              f"median VmHWM of {MEMORY_REPEATS} processes running the first batch")
        result["metrics"] = {"setup_s": metric(setup, "s"), **result["metrics"],
                             "peak_rss_mb": metric(rss / 1e6, "MB")}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
