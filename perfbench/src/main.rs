//! The unicon benchmark harness. Usage, from the repository root:
//!
//! ```text
//! perfbench --workload <serve_stream|horizon|construct> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench pin        # regenerate perfbench/expected/*.tsv
//! ```
//!
//! `python3 perfbench/run.py ...` builds the harness and the `unicon`
//! daemon first, then runs this. The report's last line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`).
//! The exit code is nonzero when any output check fails.

mod construct;
mod horizon;
mod json;
mod layers;
mod pin;
mod rng;
mod serve_stream;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{Metric, OpLog};
use trace::Tracer;

/// Truncation precision of every query the benchmark makes.
pub const EPSILON: f64 = 1e-6;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
}

/// Scratch directory, relative to the checkout the benchmark runs from,
/// for the daemon socket and the span file.
pub const OUT_DIR: &str = ".perfbench";

impl Config {
    /// Whether the timed phase that began at `start` goes on after `done`
    /// ops: for `--seconds`, and past it until `min_ops` ops completed,
    /// but never beyond three times `--seconds`.
    pub fn keep_going(&self, start: Instant, done: usize, min_ops: usize) -> bool {
        let elapsed = start.elapsed();
        elapsed < self.seconds * 3 && (elapsed < self.seconds || done < min_ops)
    }

    /// In a traced run, every other op is traced, so `obs.trace_overhead`
    /// compares traced with untraced ops of the same run.
    pub fn trace_op(&self, op: u64) -> bool {
        self.traced && op.is_multiple_of(2)
    }
}

/// What a workload run hands back for reporting.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time of each set-up repeat, in seconds.
    pub setups_s: Vec<f64>,
    /// The timed phase.
    pub ops: OpLog,
    /// `VmHWM` of the process that did the work, in MiB.
    pub peak_rss_mb: f64,
    /// Spans and per-call values (empty unless traced).
    pub tracer: Tracer,
    /// Failed checks outside the timed ops (set-up, parity, final scrape).
    pub errors: Vec<String>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

const WORKLOADS: &[&str] = &["serve_stream", "horizon", "construct"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench pin",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let config = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    };
    Ok((workload, config))
}

/// Renders the report's last line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn run(workload: &str, config: &Config) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let mut out = match workload {
        "serve_stream" => serve_stream::run(config)?,
        "horizon" => horizon::run(config)?,
        _ => construct::run(config)?,
    };
    let mut lines = vec![format!(
        "perfbench {workload} seed {} ({} s, {})",
        config.seed,
        config.seconds.as_secs_f64(),
        if config.traced { "traced" } else { "untraced" }
    )];
    lines.append(&mut out.notes);
    let metrics = if config.traced {
        if let Some(ratio) = out.ops.trace_overhead() {
            out.tracer.value("obs.trace_overhead", ratio);
        }
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}-{}.jsonl", config.seed));
        out.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        lines.push(format!("spans written to {}", path.display()));
        let traced = out.ops.samples.iter().filter(|s| s.traced).count();
        lines.push(format!(
            "ops attempted {} failed {} ({traced} traced, {} untraced)",
            out.ops.attempted,
            out.ops.failed,
            out.ops.completed() - traced
        ));
        let metrics = out.tracer.per_layer();
        for m in &metrics {
            lines.push(format!(
                "{:<26} {:>16.4} {:<6} (calls={})",
                m.name,
                m.value,
                m.unit,
                out.tracer.calls(m.name)
            ));
        }
        metrics
    } else {
        let e2e = stats::end_to_end(&out.setups_s, &out.ops, out.peak_rss_mb)?;
        lines.extend(e2e.report);
        e2e.metrics
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.ops.failed == 0 && out.errors.is_empty();
    for l in lines {
        println!("{l}");
    }
    println!(
        "{}",
        result_json(correct, out.ops.attempted, out.ops.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pin") {
        return match pin::run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench pin: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (workload, config) = match parse_args(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&workload, &config) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let (w, c) = parse_args(&strings(&[
            "--workload",
            "horizon",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!((w.as_str(), c.seed, c.traced), ("horizon", 7, true));
        assert_eq!(c.seconds, Duration::from_secs(10));
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "horizon", "--seconds", "1"])).is_err());
    }

    #[test]
    fn result_line_has_the_report_keys() {
        let line = result_json(true, 12, 0, &[Metric::new("op_p50_ms", 1.25, "ms")]);
        let v = json::Value::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(true)));
        assert_eq!(v.num("attempted"), Some(12.0));
        assert_eq!(v.num("failed"), Some(0.0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("op_p50_ms"))
            .expect("metric");
        assert_eq!(m.num("value"), Some(1.25));
        assert_eq!(m.str("unit"), Some("ms"));
    }

    /// The harness and `BENCHMARK.json` must name the same metrics.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::Value::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match v.get(key) {
                Some(json::Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        (
                            m.str("name").expect("name").to_string(),
                            m.str("unit").expect("unit").to_string(),
                        )
                    })
                    .collect(),
                _ => panic!("{key} is a list"),
            }
        };
        let e2e = stats::end_to_end(
            &[1.0; stats::SETUP_REPEATS],
            &OpLog {
                samples: vec![
                    stats::Sample {
                        ms: 1.0,
                        traced: false,
                        class: 0
                    };
                    stats::MIN_OPS
                ],
                wall: Duration::from_secs(1),
                ..OpLog::default()
            },
            1.0,
        )
        .expect("enough samples");
        let reported: Vec<(String, String)> = e2e
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), reported);
        let layers: Vec<(String, String)> = trace::PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = match v.get("workloads") {
            Some(json::Value::Arr(items)) => items
                .iter()
                .map(|w| w.str("name").expect("name").to_string())
                .collect(),
            _ => panic!("workloads is a list"),
        };
        assert_eq!(workloads, strings(WORKLOADS));
    }
}
