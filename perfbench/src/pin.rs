//! `perfbench pin`: recomputes the answer tables the workloads check
//! against and writes them to `perfbench/expected/` (run from the
//! repository root). Rerun only when a change to the program is meant to
//! change result bits.

use std::fmt::Write as _;

use unicon::ctmdp::par::ReachEngine;
use unicon::ftwc::{experiment, FtwcParams};
use unicon::numeric::WeightCache;

use crate::construct::{self, COMPOSITIONAL_N, N_MAX, N_MIN};
use crate::horizon::{self, N, T_MAX, T_MIN};
use crate::layers::{self, answer};
use crate::trace::Tracer;
use crate::EPSILON;

const DIR: &str = "perfbench/expected";

fn write(name: &str, text: &str) -> Result<(), String> {
    let path = format!("{DIR}/{name}");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

fn construct_table() -> Result<String, String> {
    let mut out = format!(
        "# FTWC t={} worst case, epsilon {EPSILON:e}, 1 thread: key, CTMDP fingerprint,\n\
         # value bits, checksum bits. key N = generator build, c{COMPOSITIONAL_N} = compositional build.\n",
        construct::T
    );
    let mut off = Tracer::new(std::time::Instant::now(), false);
    let mut rows = Vec::new();
    for n in N_MIN..=N_MAX {
        let (prepared, engine) = layers::build_generated(n, &mut off)?;
        rows.push((n.to_string(), prepared, engine));
    }
    let (prepared, _) = experiment::certified_prepare(&FtwcParams::new(COMPOSITIONAL_N));
    let engine = layers::compile(&prepared, &mut off)?;
    rows.push((format!("c{COMPOSITIONAL_N}"), prepared, engine));
    for (key, prepared, engine) in rows {
        let res = prepared
            .reach_batch()
            .with_epsilon(EPSILON)
            .with_threads(1)
            .query(construct::T)
            .run_with_engine(&engine, &mut WeightCache::new())
            .map_err(|e| e.to_string())?;
        let (value, checksum) = answer(&res, 0, prepared.ctmdp.initial());
        let _ = writeln!(
            out,
            "{key} {:016x} {:016x} {:016x}",
            prepared.ctmdp.fingerprint(),
            value.to_bits(),
            checksum.to_bits()
        );
    }
    Ok(out)
}

fn horizon_table() -> Result<String, String> {
    let (prepared, _) = experiment::prepare(&FtwcParams::new(N));
    let engine = ReachEngine::new(&prepared.ctmdp, &prepared.goal).map_err(|e| e.to_string())?;
    let mut out = format!(
        "# FTWC N={N} worst case, epsilon {EPSILON:e}: t, value bits, checksum bits, iterations.\n\
         fingerprint {:016x}\n",
        prepared.ctmdp.fingerprint()
    );
    let ts: Vec<u64> = (T_MIN..=T_MAX).collect();
    for chunk in ts.chunks(8) {
        let mut batch = prepared.reach_batch().with_epsilon(EPSILON).with_threads(2);
        for &t in chunk {
            batch = batch.query(t as f64);
        }
        let res = batch
            .run_with_engine(&engine, &mut WeightCache::new())
            .map_err(|e| e.to_string())?;
        for (k, t) in chunk.iter().enumerate() {
            let (value, checksum) = answer(&res, k, prepared.ctmdp.initial());
            let _ = writeln!(
                out,
                "{t} {:016x} {:016x} {}",
                value.to_bits(),
                checksum.to_bits(),
                res.stats.queries[k].iterations
            );
        }
        eprintln!("pinned t <= {}", chunk[chunk.len() - 1]);
    }
    Ok(out)
}

pub fn run() -> Result<(), String> {
    let construct = construct_table()?;
    construct::parse_pinned(&construct)?;
    write("construct.tsv", &construct)?;
    let horizon = horizon_table()?;
    horizon::parse_pinned(&horizon)?;
    write("horizon_n64.tsv", &horizon)
}
