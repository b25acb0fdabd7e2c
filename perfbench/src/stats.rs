//! Sample sets, nearest-rank percentiles and the end-to-end metric set
//! every workload reports.

use std::collections::BTreeMap;
use std::time::Duration;

/// Fewest timed ops a run may report end-to-end metrics from: a metric
/// computed from one timed call per run is too noisy to gate on.
pub const MIN_OPS: usize = 10;

/// Fewest set-ups a run times before it reports their median as
/// `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// One reported metric: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Nearest-rank `q`-quantile of `samples` (`0 < q ≤ 1`), with the number
/// of samples that lie strictly beyond its rank. `None` when empty.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The `q`-quantile, but only when at least [`TAIL_SAMPLES`] samples lie
/// beyond it — a p90 from 20 samples rests on two values and is not
/// reported.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    nearest_rank(samples, q)
        .filter(|&(_, beyond)| beyond >= TAIL_SAMPLES)
        .map(|(v, _)| v)
}

/// Median (nearest rank); `0` for an empty set, which callers use for a
/// layer the workload never calls.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).map_or(0.0, |(v, _)| v)
}

/// Milliseconds of a duration, as measured.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One completed op: its latency, whether it was traced, and its class
/// (ops of one class do the same work, so traced and untraced ops are
/// compared class by class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub ms: f64,
    pub traced: bool,
    pub class: u64,
}

/// What one timed phase recorded: a sample per completed op, the ops
/// attempted and failed, and the phase's wall time.
#[derive(Debug, Default)]
pub struct OpLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
}

impl OpLog {
    /// Records one op; a failed op (errored, refused or wrong) still
    /// counts as attempted but adds no latency sample.
    pub fn record(&mut self, ms: f64, ok: bool, traced: bool, class: u64) {
        self.attempted += 1;
        if ok {
            self.samples.push(Sample { ms, traced, class });
        } else {
            self.failed += 1;
        }
    }

    /// Completed ops, traced or not.
    pub fn completed(&self) -> usize {
        self.samples.len()
    }

    /// Latencies of the untraced ops: the end-to-end samples.
    pub fn untraced_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| !s.traced)
            .map(|s| s.ms)
            .collect()
    }

    /// Traced over untraced p50 latency, per op class, then the median
    /// over the classes that have both. `None` when no class has both.
    pub fn trace_overhead(&self) -> Option<f64> {
        let mut by_class: BTreeMap<u64, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for s in &self.samples {
            let (traced, plain) = by_class.entry(s.class).or_default();
            if s.traced { traced } else { plain }.push(s.ms);
        }
        let ratios: Vec<f64> = by_class
            .values()
            .filter(|(t, p)| !t.is_empty() && !p.is_empty())
            .map(|(t, p)| median(t) / median(p))
            .collect();
        (!ratios.is_empty()).then(|| median(&ratios))
    }

    /// Folds another log (one per client connection) into this one.
    pub fn merge(&mut self, other: OpLog) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall = self.wall.max(other.wall);
    }
}

/// The gated end-to-end metrics plus the human report lines (which
/// include `op_p90_ms` where at least [`TAIL_SAMPLES`] samples lie beyond
/// it, and every sample count).
#[derive(Debug)]
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    pub report: Vec<String>,
}

/// Computes `setup_s`, `ops_per_s`, `op_p50_ms` and `peak_rss_mb` from
/// many samples. Refuses (with the reason) a run with fewer than
/// [`SETUP_REPEATS`] set-ups or [`MIN_OPS`] completed ops.
pub fn end_to_end(setups_s: &[f64], ops: &OpLog, peak_rss_mb: f64) -> Result<EndToEnd, String> {
    if setups_s.len() < SETUP_REPEATS {
        return Err(format!(
            "setup_s needs {SETUP_REPEATS} set-ups per run, got {}",
            setups_s.len()
        ));
    }
    let latencies = ops.untraced_ms();
    let n = latencies.len();
    if n < MIN_OPS {
        return Err(format!(
            "op latency needs at least {MIN_OPS} completed ops per run, got {n}"
        ));
    }
    let wall = ops.wall.as_secs_f64();
    if wall <= 0.0 {
        return Err("the timed phase took no time".into());
    }
    let setup = median(setups_s);
    let ops_per_s = n as f64 / wall;
    let p50 = median(&latencies);
    let mut report = vec![
        format!(
            "setup_s {setup:.4} s (median of {} set-ups)",
            setups_s.len()
        ),
        format!("ops_per_s {ops_per_s:.4} 1/s ({n} ops in {wall:.2} s)"),
        format!("op_p50_ms {p50:.4} ms (n={n})"),
    ];
    report.push(match tail_percentile(&latencies, 0.9) {
        Some(p90) => format!("op_p90_ms {p90:.4} ms (n={n})"),
        None => {
            format!("op_p90_ms not reported (n={n}: fewer than {TAIL_SAMPLES} samples beyond p90)")
        }
    });
    report.push(format!("peak_rss_mb {peak_rss_mb:.2} MB"));
    report.push(format!(
        "ops attempted {} failed {}",
        ops.attempted, ops.failed
    ));
    Ok(EndToEnd {
        metrics: vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("ops_per_s", ops_per_s, "1/s"),
            Metric::new("op_p50_ms", p50, "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        report,
    })
}

/// `VmHWM` (peak resident set) of process `pid` (`"self"` for this one),
/// in MiB, read from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.9), Some((90.0, 10)));
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 0.9), None);
        // p50 of 20 samples has 10 beyond it; of 19, only 9.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(tail_percentile(&twenty[..19], 0.5), None);
    }

    const SETUPS: [f64; SETUP_REPEATS] = [0.5, 0.4, 0.6, 0.5, 0.7];

    fn log_of(n: usize) -> OpLog {
        let mut log = OpLog {
            wall: Duration::from_secs(2),
            ..OpLog::default()
        };
        for i in 0..n {
            log.record(1.0 + i as f64, true, false, 0);
        }
        log
    }

    #[test]
    fn report_states_sample_counts_and_omits_thin_p90() {
        let e = end_to_end(&SETUPS, &log_of(99), 10.0).expect("enough samples");
        assert!(e.report.iter().any(|l| l == "op_p50_ms 50.0000 ms (n=99)"));
        assert!(e
            .report
            .iter()
            .any(|l| l.starts_with("op_p90_ms not reported (n=99")));
        let e = end_to_end(&SETUPS, &log_of(100), 10.0).expect("enough samples");
        assert!(e.report.iter().any(|l| l == "op_p90_ms 90.0000 ms (n=100)"));
        // op_p90_ms never reaches the gated set: not every workload has it.
        let names: Vec<&str> = e.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, ["setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"]);
        assert_eq!(e.metrics[0].value, 0.5);
    }

    #[test]
    fn no_metric_comes_from_a_single_timed_call() {
        assert!(end_to_end(&SETUPS, &log_of(1), 10.0).is_err());
        assert!(end_to_end(&SETUPS, &log_of(MIN_OPS - 1), 10.0).is_err());
        assert!(end_to_end(&SETUPS[..SETUP_REPEATS - 1], &log_of(MIN_OPS), 10.0).is_err());
        assert!(end_to_end(&SETUPS, &log_of(MIN_OPS), 10.0).is_ok());
    }

    #[test]
    fn failed_ops_count_as_attempted_without_a_latency() {
        let mut log = OpLog::default();
        log.record(3.0, true, false, 0);
        log.record(99.0, false, false, 0);
        log.record(4.0, true, true, 0);
        assert_eq!((log.attempted, log.failed, log.completed()), (3, 1, 2));
        assert_eq!(log.untraced_ms(), [3.0]);
    }

    #[test]
    fn trace_overhead_compares_within_a_class() {
        let mut log = OpLog::default();
        // Class 1 is ten times dearer than class 0; tracing adds 10 %.
        for (ms, traced, class) in [
            (1.0, false, 0),
            (1.1, true, 0),
            (10.0, false, 1),
            (11.0, true, 1),
        ] {
            log.record(ms, true, traced, class);
        }
        log.record(50.0, true, true, 2); // no untraced peer: ignored
        let r = log.trace_overhead().expect("two classes have both");
        assert!((r - 1.1).abs() < 1e-9, "{r}");
    }
}
