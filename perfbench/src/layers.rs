//! Calls into the library's layers shared by several workloads, each
//! wrapped in the span of the layer it enters, plus the per-call values
//! read from what the calls return.

use unicon::core::PreparedModel;
use unicon::ctmdp::par::{BatchResult, BatchStats, ReachEngine};
use unicon::ftwc::{generator, FtwcParams};

use crate::trace::Tracer;

/// The generator route: FTWC `n` through `generator::build_uimc`, the
/// transform (`PreparedModel::new`) and the fused compile
/// (`ReachEngine::new`).
pub fn build_generated(
    n: usize,
    tracer: &mut Tracer,
) -> Result<(PreparedModel, ReachEngine), String> {
    let model = tracer.time("ftwc.generate_ms", || {
        generator::build_uimc(&FtwcParams::new(n))
    });
    tracer.value("ftwc.imc_states", model.uniform.imc().num_states() as f64);
    let prepared = tracer
        .time("transform.ms", || {
            PreparedModel::new(&model.uniform, &model.premium_down)
        })
        .map_err(|e| format!("transform N={n}: {e}"))?;
    drop(model);
    record_transform(tracer, &prepared);
    let engine = compile(&prepared, tracer)?;
    Ok((prepared, engine))
}

/// `ReachEngine::new` in the `sparse.compile_ms` span.
pub fn compile(prepared: &PreparedModel, tracer: &mut Tracer) -> Result<ReachEngine, String> {
    let engine = tracer
        .time("sparse.compile_ms", || {
            ReachEngine::new(&prepared.ctmdp, &prepared.goal)
        })
        .map_err(|e| format!("compile: {e}"))?;
    tracer.value("sparse.resident_bytes", engine.memory_bytes() as f64);
    Ok(engine)
}

/// The transform's counts, from the `TransformStats` it returns.
pub fn record_transform(tracer: &mut Tracer, prepared: &PreparedModel) {
    tracer.value("transform.ctmdp_states", prepared.ctmdp.num_states() as f64);
    tracer.value(
        "transform.words",
        prepared.stats.interactive_transitions as f64,
    );
    tracer.value("transform.ctmdp_bytes", prepared.stats.memory_bytes as f64);
}

/// A batch run's numeric and ctmdp figures, from its `BatchStats`.
pub fn record_batch(tracer: &mut Tracer, stats: &BatchStats) {
    tracer.value("numeric.weights_ms", crate::stats::ms(stats.weights_time));
    let lookups = stats.cache_hits + stats.cache_misses;
    if lookups > 0 {
        tracer.value(
            "numeric.weight_hit_ratio",
            stats.cache_hits as f64 / lookups as f64,
        );
    }
    tracer.value("ctmdp.iterate_ms", crate::stats::ms(stats.iterate_time));
    tracer.value("ctmdp.iterations", stats.total_iterations as f64);
    tracer.value("ctmdp.ns_per_state_step", stats.kernel_ns_per_state);
}

/// Query `k` of a batch as `(value at the initial state, checksum)`.
pub fn answer(res: &BatchResult, k: usize, initial: u32) -> (f64, f64) {
    (
        res.results[k].from_state(initial),
        res.stats.queries[k].checksum,
    )
}

/// Parses a pinned table: whitespace-separated fields per line, `#`
/// comments skipped.
pub fn table(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
        .collect()
}

/// A hex `u64` field of a pinned table.
pub fn hex(field: &str) -> Result<u64, String> {
    u64::from_str_radix(field, 16).map_err(|e| format!("bad hex `{field}`: {e}"))
}
