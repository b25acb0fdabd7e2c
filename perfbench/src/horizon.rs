//! `horizon`: FTWC N=64 (151,060 states, the u32 column path) prepared
//! once; each op answers one `ReachBatch` of four worst-case bounds from
//! [50, 500] at two threads through `run_with_engine`, the shared-engine
//! path serve uses. Every answer must equal the pinned table bitwise.

use std::collections::BTreeMap;
use std::time::Instant;

use unicon::core::PreparedModel;
use unicon::ctmdp::par::{BatchResult, ReachEngine};
use unicon::ctmdp::reachability::Kernel;
use unicon::ftwc::{experiment, FtwcParams};
use unicon::numeric::WeightCache;

use crate::layers::{self, answer, hex};
use crate::rng::Rng;
use crate::stats::{ms, peak_rss_mb, OpLog, MIN_OPS, SETUP_REPEATS};
use crate::trace::Tracer;
use crate::{Config, Outcome, EPSILON};

pub const N: usize = 64;
const THREADS: usize = 2;
pub const T_MIN: u64 = 50;
pub const T_MAX: u64 = 500;

/// `t → (value bits, checksum bits)` for every integer bound in
/// [`T_MIN`, `T_MAX`], and the CTMDP fingerprint, pinned by `perfbench pin`.
const PINNED: &str = include_str!("../expected/horizon_n64.tsv");

pub struct Pinned {
    pub fingerprint: u64,
    pub by_t: BTreeMap<u64, (u64, u64)>,
}

pub fn pinned() -> Result<Pinned, String> {
    parse_pinned(PINNED)
}

/// Parses a `horizon_n64.tsv` table.
pub fn parse_pinned(text: &str) -> Result<Pinned, String> {
    let mut p = Pinned {
        fingerprint: 0,
        by_t: BTreeMap::new(),
    };
    for row in layers::table(text) {
        match row.as_slice() {
            ["fingerprint", fp] => p.fingerprint = hex(fp)?,
            [t, value, checksum, ..] => {
                let t = t.parse().map_err(|e| format!("bad bound `{t}`: {e}"))?;
                p.by_t.insert(t, (hex(value)?, hex(checksum)?));
            }
            _ => return Err(format!("bad pinned row {row:?}")),
        }
    }
    if p.by_t.len() as u64 != T_MAX - T_MIN + 1 {
        return Err("horizon_n64.tsv does not cover every bound; run `perfbench pin`".into());
    }
    Ok(p)
}

/// Op `i`'s four bounds: two pairs `(a, 550 − a)`, so every bound spans
/// [50, 500] while every op does the same total work.
pub fn bounds(seed: u64, stream: u64, i: u64) -> [u64; 4] {
    let mut r = Rng::for_item(seed, stream, i);
    let a = r.range(T_MIN, T_MAX);
    let b = r.range(T_MIN, T_MAX);
    [a, T_MIN + T_MAX - a, b, T_MIN + T_MAX - b]
}

fn run_batch(
    prepared: &PreparedModel,
    engine: &ReachEngine,
    ts: &[u64],
    threads: usize,
    kernel: Kernel,
) -> Result<BatchResult, String> {
    let mut batch = prepared
        .reach_batch()
        .with_epsilon(EPSILON)
        .with_threads(threads)
        .with_kernel(kernel);
    for &t in ts {
        batch = batch.query(t as f64);
    }
    batch
        .run_with_engine(engine, &mut WeightCache::new())
        .map_err(|e| e.to_string())
}

fn check(res: &BatchResult, ts: &[u64], pinned: &Pinned, initial: u32) -> Result<(), String> {
    for (k, t) in ts.iter().enumerate() {
        let (value, checksum) = answer(res, k, initial);
        if pinned.by_t.get(t) != Some(&(value.to_bits(), checksum.to_bits())) {
            return Err(format!("t={t}: {value:e} differs from the pinned answer"));
        }
    }
    Ok(())
}

fn set_up(tracer: &mut Tracer) -> Result<(PreparedModel, ReachEngine), String> {
    if tracer.enabled() {
        // The body of `experiment::prepare`, split so each layer gets a span.
        return layers::build_generated(N, tracer);
    }
    let (prepared, _) = experiment::prepare(&FtwcParams::new(N));
    let engine = layers::compile(&prepared, tracer)?;
    Ok((prepared, engine))
}

/// Traced runs only: one batch on both kernels at one and two threads,
/// which must agree bitwise over every state; returns the fused kernel's
/// iterate time at one thread over two threads.
fn parity(
    config: &Config,
    prepared: &PreparedModel,
    engine: &ReachEngine,
    pinned: &Pinned,
    errors: &mut Vec<String>,
) -> Result<(f64, String), String> {
    let ts = bounds(config.seed, 3, 0);
    let mut runs = Vec::new();
    for (kernel, threads) in [
        (Kernel::Fused, 1),
        (Kernel::Fused, 2),
        (Kernel::Reference, 1),
        (Kernel::Reference, 2),
    ] {
        runs.push((
            kernel,
            threads,
            run_batch(prepared, engine, &ts, threads, kernel)?,
        ));
    }
    let base = &runs[0].2;
    if let Err(e) = check(base, &ts, pinned, prepared.ctmdp.initial()) {
        errors.push(format!("parity batch: {e}"));
    }
    for (kernel, threads, res) in &runs[1..] {
        let same = res.results.iter().zip(&base.results).all(|(a, b)| {
            a.values.len() == b.values.len()
                && a.values
                    .iter()
                    .zip(&b.values)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });
        if !same {
            errors.push(format!(
                "kernel parity: {kernel:?} at {threads} threads differs from Fused at 1 thread"
            ));
        }
    }
    let gain = ms(runs[0].2.stats.iterate_time) / ms(runs[1].2.stats.iterate_time);
    let note = format!(
        "kernel parity at N={N}, t={ts:?}: reference and fused at threads 1 and 2 compared bitwise \
         over all {} states; fused iterate {:.1} ms at 1 thread, {:.1} ms at 2 threads (available \
         parallelism {})",
        prepared.ctmdp.num_states(),
        ms(runs[0].2.stats.iterate_time),
        ms(runs[1].2.stats.iterate_time),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    Ok((gain, note))
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let pinned = pinned()?;
    let mut tracer = Tracer::new(Instant::now(), config.traced);
    let mut errors = Vec::new();
    let start = Instant::now();
    let (prepared, engine) = set_up(&mut tracer)?;
    let mut setups_s = vec![start.elapsed().as_secs_f64()];
    if prepared.ctmdp.fingerprint() != pinned.fingerprint {
        errors.push("N=64 CTMDP fingerprint differs from the pinned one".into());
    }
    let initial = prepared.ctmdp.initial();

    let mut ops = OpLog::default();
    let start = Instant::now();
    let mut i = 0u64;
    while config.keep_going(start, ops.completed(), MIN_OPS) {
        let ts = bounds(config.seed, 2, i);
        let traced = config.trace_op(i);
        tracer.set_enabled(traced);
        tracer.set_op(i);
        let op_start = Instant::now();
        let span = tracer.open("ctmdp.query");
        let res = run_batch(&prepared, &engine, &ts, THREADS, Kernel::default());
        tracer.close(span);
        let latency = ms(op_start.elapsed());
        let ok = match res.and_then(|r| check(&r, &ts, &pinned, initial).map(|()| r)) {
            Ok(r) => {
                layers::record_batch(&mut tracer, &r.stats);
                true
            }
            Err(e) => {
                errors.push(format!("op {i}: {e}"));
                false
            }
        };
        // Every op does the same total work: one class.
        ops.record(latency, ok, traced, 0);
        i += 1;
    }
    ops.wall = start.elapsed();
    let peak = peak_rss_mb("self")?;

    let mut notes = vec![format!(
        "FTWC N={N}: {} states, {THREADS} threads, 4 bounds per batch",
        prepared.ctmdp.num_states()
    )];
    if config.traced {
        tracer.set_enabled(true);
        let (gain, note) = parity(config, &prepared, &engine, &pinned, &mut errors)?;
        tracer.value("ctmdp.parallel_gain", gain);
        notes.push(note);
    }
    // Further set-ups only time set-up; they follow the peak reading, so
    // a reused heap cannot blur `peak_rss_mb`.
    drop((prepared, engine));
    for _ in 1..SETUP_REPEATS {
        let start = Instant::now();
        set_up(&mut tracer)?;
        setups_s.push(start.elapsed().as_secs_f64());
    }
    Ok(Outcome {
        setups_s,
        ops,
        peak_rss_mb: peak,
        tracer,
        errors,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bounds_and_constant_total() {
        for i in 0..200 {
            let b = bounds(9, 2, i);
            assert_eq!(b, bounds(9, 2, i));
            assert!(b.iter().all(|t| (T_MIN..=T_MAX).contains(t)));
            assert_eq!(b.iter().sum::<u64>(), 2 * (T_MIN + T_MAX));
        }
        assert_ne!(
            (0..20).map(|i| bounds(9, 2, i)).collect::<Vec<_>>(),
            (0..20).map(|i| bounds(10, 2, i)).collect::<Vec<_>>()
        );
    }
}
