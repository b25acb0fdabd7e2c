//! Harness-side tracing: spans around the calls the harness makes into
//! each layer, plus per-call values read from what those calls return.
//!
//! Spans are kept in memory and written out as JSON lines when the run
//! ends. A layer's time is the p50 of its spans' self times (duration
//! minus the part covered by child spans).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::{median, Metric};

/// Every per-layer metric, in report order, with its unit. A workload
/// that makes no call into a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ftwc.generate_ms", "ms"),
    ("ftwc.imc_states", "count"),
    ("transform.ms", "ms"),
    ("transform.ctmdp_states", "count"),
    ("transform.words", "count"),
    ("transform.ctmdp_bytes", "bytes"),
    ("imc.compose_ms", "ms"),
    ("imc.minimize_ms", "ms"),
    ("imc.refine_rounds", "count"),
    ("imc.refine_dirty_states", "count"),
    ("verify.certify_ms", "ms"),
    ("verify.roundtrip_ms", "ms"),
    ("verify.obligations", "count"),
    ("sparse.compile_ms", "ms"),
    ("sparse.resident_bytes", "bytes"),
    ("numeric.weights_ms", "ms"),
    ("numeric.weight_hit_ratio", "ratio"),
    ("ctmdp.iterate_ms", "ms"),
    ("ctmdp.iterations", "count"),
    ("ctmdp.ns_per_state_step", "ns"),
    ("ctmdp.parallel_gain", "ratio"),
    ("ctmdp.guarded_ms", "ms"),
    ("serve.register_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.scrape_ms", "ms"),
    ("obs.serve_over_library", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// One recorded span. `parent` indexes the same tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Span recorder for one thread of the harness. While disabled, opening
/// and closing spans and recording values are no-ops, so one code path
/// serves traced and untraced ops.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared by all
    /// threads of a run, so merged spans share one clock).
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off from the next span on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans opened from now on with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `open` returned (spans close innermost first).
    pub fn close(&mut self, token: Option<usize>) {
        if let Some(id) = token {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.open(name);
        let out = f();
        self.close(token);
        out
    }

    /// Records one per-call value of metric `name`.
    pub fn value(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            self.values.entry(name).or_default().push(v);
        }
    }

    /// The values recorded so far for `name`.
    pub fn values(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// Folds another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, vs) in other.values {
            self.values.entry(name).or_default().extend(vs);
        }
    }

    /// Self time (ms) of every closed span, grouped by span name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// The per-layer metric set: for each name in [`PER_LAYER`], the p50
    /// of its span self times, else of its recorded values, else 0.
    pub fn per_layer(&self) -> Vec<Metric> {
        let spans = self.self_times_ms();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let samples = spans.get(name).map_or(self.values(name), Vec::as_slice);
                Metric::new(name, median(samples), unit)
            })
            .collect()
    }

    /// Calls per per-layer metric (span count, else value count).
    pub fn calls(&self, name: &str) -> usize {
        let spans = self.spans.iter().filter(|s| s.name == name).count();
        if spans > 0 {
            spans
        } else {
            self.values(name).len()
        }
    }

    /// Writes every span as one JSON line: name, start, end, parent, op.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_is_silent() {
        let mut t = Tracer::new(Instant::now(), true);
        let outer = t.open("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.close(outer);
        let st = t.self_times_ms();
        assert!(st["inner"][0] >= 20.0);
        assert!(st["outer"][0] < st["inner"][0]);
        assert_eq!(t.spans[1].parent, Some(0));

        t.set_enabled(false);
        t.time("inner", || ());
        t.value("ctmdp.iterations", 3.0);
        assert_eq!(t.calls("inner"), 1);
        assert!(t.values("ctmdp.iterations").is_empty());
    }

    #[test]
    fn per_layer_reports_every_metric_and_zero_for_unused_layers() {
        let mut t = Tracer::new(Instant::now(), true);
        t.value("ctmdp.iterations", 5.0);
        t.value("ctmdp.iterations", 7.0);
        t.value("ctmdp.iterations", 6.0);
        let m = t.per_layer();
        assert_eq!(m.len(), PER_LAYER.len());
        let get = |n: &str| m.iter().find(|x| x.name == n).expect("listed").value;
        assert_eq!(get("ctmdp.iterations"), 6.0);
        assert_eq!(get("serve.register_ms"), 0.0);
    }
}
