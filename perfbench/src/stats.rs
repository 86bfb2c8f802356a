//! Small measurement helpers: order statistics, a fixed-memory sample
//! reservoir, process memory readings, and the metric records the
//! benchmark prints.

use std::time::Duration;

use mac_sim::obs::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (nearest rank, lower middle) of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of an exact value → count histogram.
#[must_use]
pub fn hist_quantile(hist: &std::collections::BTreeMap<u64, u64>, q: f64) -> u64 {
    let total: u64 = hist.values().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (&value, &count) in hist {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    unreachable!("rank never exceeds the total count")
}

/// Nanoseconds in `d`, saturating.
#[must_use]
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// CPU time the calling thread has used, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Time the thread spends preempted or
/// blocked does not count, so another process taking a CPU for a moment
/// does not show up in a per-trial reading.
#[must_use]
#[allow(unsafe_code)]
pub fn thread_cpu_ns() -> u64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Seconds the hypervisor has taken from this machine's CPUs while they
/// had work to run (`steal` in `/proc/stat`), averaged over the CPUs; 0
/// where the kernel reports none.
#[must_use]
pub fn stolen_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let mut lines = stat.lines();
    // "cpu user nice system idle iowait irq softirq steal ...", in USER_HZ.
    let ticks: u64 = lines
        .next()
        .and_then(|total| total.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0);
    let cpus = lines.filter(|line| line.starts_with("cpu")).count().max(1);
    ticks as f64 / USER_HZ / cpus as f64
}

/// Units of `/proc/stat` per second (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// A uniform sample of at most `capacity` values (Algorithm R), in memory
/// fixed and touched up front, so that how many trials a run completes
/// never changes the process's peak memory.
pub struct Reservoir {
    samples: Vec<u64>,
    capacity: usize,
    seen: u64,
    rng: SmallRng,
}

impl Reservoir {
    /// An empty reservoir; `seed` fixes which items are kept.
    #[must_use]
    pub fn new(capacity: usize, seed: u64) -> Self {
        // Writing every slot once maps the pages now, not during timing.
        let mut samples = vec![u64::MAX; capacity];
        samples.clear();
        Reservoir {
            samples,
            capacity,
            seen: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            let slot = self.rng.gen_range(0..self.seen);
            if let Some(kept) = self.samples.get_mut(slot as usize) {
                *kept = value;
            }
        }
    }

    /// Values offered so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Nearest-rank quantile of the kept sample.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let values: Vec<f64> = self.samples.iter().map(|&v| v as f64).collect();
        quantile(&values, q)
    }
}

/// A `VmHWM` / `VmRSS`-style field of `/proc/self/status`, in bytes; 0
/// where the file is unavailable.
#[must_use]
pub fn proc_status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json` (or printed only).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `us`, `rounds`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric record.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The benchmark's result line: `{"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}`.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields = metrics
        .iter()
        .map(|m| {
            let value = Json::obj(vec![
                ("value".into(), m.value.into()),
                ("unit".into(), m.unit.into()),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    Json::obj(vec![
        ("correct".into(), correct.into()),
        ("attempted".into(), attempted.into()),
        ("failed".into(), failed.into()),
        ("metrics".into(), Json::obj(fields)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn reservoir_keeps_at_most_capacity() {
        let mut r = Reservoir::new(4, 1);
        for v in 0..100 {
            r.push(v);
        }
        assert_eq!(r.seen(), 100);
        assert!(r.quantile(1.0) < 100.0);
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > before, "{x}");
    }
}
