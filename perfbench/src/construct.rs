//! `construct`: time to the first answer for a fresh model, one thread.
//! Four ops in five build FTWC N ∈ [16, 40] with the generator, transform,
//! compile and answer one t=10 worst-case query; every fifth builds N=2
//! through the certified compositional route, certifies its ledger and
//! round-trips the certificate before the same query.

use std::collections::BTreeMap;
use std::time::Instant;

use unicon::core::{PreparedModel, Refiner};
use unicon::ftwc::{compositional, experiment, FtwcParams};
use unicon::imc::audit::{with_recording, Obligation};
use unicon::numeric::WeightCache;
use unicon::obs;
use unicon::verify::certify::{certify, check_records, parse_jsonl, records, to_jsonl};

use crate::layers::{self, answer, hex};
use crate::rng::Rng;
use crate::stats::{ms, peak_rss_mb, OpLog, SETUP_REPEATS};
use crate::trace::Tracer;
use crate::{Config, Outcome, EPSILON};

pub const N_MIN: usize = 16;
pub const N_MAX: usize = 40;
/// Cluster size of the compositional ops.
pub const COMPOSITIONAL_N: usize = 2;
/// The query time bound.
pub const T: f64 = 10.0;
/// A run completes at least this many ops, so that p90 has 10 samples
/// beyond it.
const MIN_OPS: usize = 100;

/// `key → (fingerprint, value bits, checksum bits)`, keyed by N for
/// generator builds and `c2` for the compositional build; pinned by
/// `perfbench pin`.
const PINNED: &str = include_str!("../expected/construct.tsv");

pub type Pinned = BTreeMap<String, (u64, u64, u64)>;

pub fn pinned() -> Result<Pinned, String> {
    parse_pinned(PINNED)
}

/// Parses a `construct.tsv` table.
pub fn parse_pinned(text: &str) -> Result<Pinned, String> {
    let mut p = Pinned::new();
    for row in layers::table(text) {
        match row.as_slice() {
            [key, fp, value, checksum] => {
                p.insert((*key).to_string(), (hex(fp)?, hex(value)?, hex(checksum)?));
            }
            _ => return Err(format!("bad pinned row {row:?}")),
        }
    }
    if p.len() != N_MAX - N_MIN + 2 {
        return Err("construct.tsv does not cover every model; run `perfbench pin`".into());
    }
    Ok(p)
}

/// One op of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Generated(usize),
    Compositional,
}

/// Op `i` under `seed`: every fifth op is compositional; the generator
/// ops take N from seeded shuffles of [16, 40], each N once per 25.
pub fn op(seed: u64, i: u64) -> Op {
    if i % 5 == 4 {
        return Op::Compositional;
    }
    let k = i / 5 * 4 + i % 5;
    let span = (N_MAX - N_MIN + 1) as u64;
    let mut r = Rng::for_item(seed, 4, k / span);
    let mut ns: Vec<usize> = (N_MIN..=N_MAX).collect();
    for j in (1..ns.len()).rev() {
        ns.swap(j, r.range(0, j as u64) as usize);
    }
    Op::Generated(ns[(k % span) as usize])
}

fn key(op: Op) -> String {
    match op {
        Op::Generated(n) => n.to_string(),
        Op::Compositional => format!("c{COMPOSITIONAL_N}"),
    }
}

/// `experiment::certified_prepare`, or in a traced op its body, split so
/// compose and minimize report their `BuildTimings` and refine rounds.
fn certified(tracer: &mut Tracer) -> Result<(PreparedModel, Vec<Obligation>), String> {
    let params = FtwcParams::new(COMPOSITIONAL_N);
    if !tracer.enabled() {
        return Ok(experiment::certified_prepare(&params));
    }
    let (prepared, ledger) = with_recording(|| {
        let span = tracer.open("imc.build");
        let ((model, timings), events) =
            obs::collect(|| compositional::build_shared_timer_with(&params, Refiner::default()));
        tracer.close(span);
        tracer.value("imc.compose_ms", ms(timings.compose));
        tracer.value("imc.minimize_ms", ms(timings.minimize));
        let rounds: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                obs::Event::RefineRound { dirty_states, .. } => Some(*dirty_states),
                _ => None,
            })
            .collect();
        tracer.value("imc.refine_rounds", rounds.len() as f64);
        tracer.value(
            "imc.refine_dirty_states",
            rounds.iter().sum::<usize>() as f64,
        );
        let closed = model.uniform.close();
        tracer.time("transform.ms", || {
            PreparedModel::new(&closed, &model.premium_down)
        })
    });
    let prepared = prepared.map_err(|e| format!("transform: {e}"))?;
    layers::record_transform(tracer, &prepared);
    Ok((prepared, ledger))
}

/// Runs one op end to end; `Err` names the failed check.
fn run_op(op: Op, pinned: &Pinned, tracer: &mut Tracer) -> Result<(), String> {
    let (prepared, engine) = match op {
        Op::Generated(n) => layers::build_generated(n, tracer)?,
        Op::Compositional => {
            let (prepared, ledger) = certified(tracer)?;
            tracer.value("verify.obligations", ledger.len() as f64);
            let outcome = tracer.time("verify.certify_ms", || certify(&ledger));
            if !outcome.is_certified() {
                return Err(format!(
                    "{} ledger steps failed to certify",
                    outcome.failed().len()
                ));
            }
            let report = tracer.time("verify.roundtrip_ms", || {
                parse_jsonl(&to_jsonl(&records(&ledger))).map(|recs| check_records(&recs))
            })?;
            if !report.is_clean() {
                return Err("certificate round trip is not clean".into());
            }
            let engine = layers::compile(&prepared, tracer)?;
            (prepared, engine)
        }
    };
    let span = tracer.open("ctmdp.query");
    let res = prepared
        .reach_batch()
        .with_epsilon(EPSILON)
        .with_threads(1)
        .query(T)
        .run_with_engine(&engine, &mut WeightCache::new());
    tracer.close(span);
    let res = res.map_err(|e| e.to_string())?;
    layers::record_batch(tracer, &res.stats);
    let (value, checksum) = answer(&res, 0, prepared.ctmdp.initial());
    let got = (
        prepared.ctmdp.fingerprint(),
        value.to_bits(),
        checksum.to_bits(),
    );
    match pinned.get(&key(op)) {
        Some(want) if *want == got => Ok(()),
        _ => Err(format!(
            "{op:?}: fingerprint or t={T} answer {value:e} differs from the pinned one"
        )),
    }
}

/// Runs `op` inside an `op` span tagged with its index.
fn traced_op(op: Op, i: u64, pinned: &Pinned, tracer: &mut Tracer) -> Result<(), String> {
    tracer.set_op(i);
    let span = tracer.open("op");
    let out = run_op(op, pinned, tracer);
    tracer.close(span);
    out
}

/// Set-up: one untimed warm-up op of each kind; returns its seconds.
fn warm_up(config: &Config, pinned: &Pinned, tracer: &mut Tracer, errors: &mut Vec<String>) -> f64 {
    tracer.set_enabled(config.traced);
    let start = Instant::now();
    for op in [Op::Generated(N_MIN), Op::Compositional] {
        if let Err(e) = traced_op(op, u64::MAX, pinned, tracer) {
            errors.push(format!("warm-up: {e}"));
        }
    }
    start.elapsed().as_secs_f64()
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let pinned = pinned()?;
    let mut tracer = Tracer::new(Instant::now(), config.traced);
    let mut errors = Vec::new();
    let mut setups_s = vec![warm_up(config, &pinned, &mut tracer, &mut errors)];

    let mut ops = OpLog::default();
    let start = Instant::now();
    let mut i = 0u64;
    while config.keep_going(start, ops.completed(), MIN_OPS) {
        let op = op(config.seed, i);
        let traced = config.trace_op(i);
        tracer.set_enabled(traced);
        let op_start = Instant::now();
        let out = traced_op(op, i, &pinned, &mut tracer);
        let latency = ms(op_start.elapsed());
        if let Err(e) = &out {
            errors.push(format!("op {i}: {e}"));
        }
        let class = match op {
            Op::Generated(n) => n as u64,
            Op::Compositional => 0,
        };
        ops.record(latency, out.is_ok(), traced, class);
        i += 1;
    }
    ops.wall = start.elapsed();
    let peak = peak_rss_mb("self")?;
    // Further set-ups only time set-up, after the peak reading.
    for _ in 1..SETUP_REPEATS {
        setups_s.push(warm_up(config, &pinned, &mut tracer, &mut errors));
    }
    Ok(Outcome {
        setups_s,
        ops,
        peak_rss_mb: peak,
        tracer,
        errors,
        notes: vec![format!(
            "1 thread; generator N in [{N_MIN}, {N_MAX}], compositional N={COMPOSITIONAL_N} every fifth op; t={T}"
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_one_in_five_compositional() {
        let a: Vec<Op> = (0..500).map(|i| op(5, i)).collect();
        assert_eq!(a, (0..500).map(|i| op(5, i)).collect::<Vec<_>>());
        assert_ne!(a, (0..500).map(|i| op(6, i)).collect::<Vec<_>>());
        assert_eq!(a.iter().filter(|o| **o == Op::Compositional).count(), 100);
        // The first 125 ops hold 100 generator ops: each N exactly four times.
        for n in N_MIN..=N_MAX {
            assert_eq!(
                a[..125].iter().filter(|o| **o == Op::Generated(n)).count(),
                4
            );
        }
    }
}
