//! `serve_stream`: the `unicon serve` daemon under a closed loop of two
//! connections sending a seeded mix of plain queries, budgeted queries
//! and metrics scrapes.
//!
//! Every answer is checked against the in-process library answer for the
//! same `(N, t, objective, ε)`, computed before set-up: values and
//! checksums bitwise, partials by `lower ≤ value ≤ upper`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use unicon::ctmdp::par::ReachEngine;
use unicon::ctmdp::reachability::Objective;
use unicon::ftwc::{experiment, FtwcParams};
use unicon::numeric::WeightCache;

use crate::json::Value;
use crate::rng::Rng;
use crate::stats::{median, ms, peak_rss_mb, OpLog};
use crate::trace::Tracer;
use crate::{Config, Outcome, EPSILON, OUT_DIR};

/// Registered cluster sizes.
pub const MODELS: [usize; 3] = [8, 16, 24];
/// Time bounds a query draws from.
pub const TIMES: [f64; 5] = [10.0, 25.0, 50.0, 100.0, 200.0];
/// Closed-loop client connections.
const CONNECTIONS: usize = 2;
/// A run completes at least this many ops, so that p90 has 10 samples
/// beyond it.
const MIN_OPS: usize = 100;
/// Budgeted queries stop after this many steps — fewer than any
/// registered model needs for `t = 10` — so the answer is a partial.
const MAX_ITERS: (u64, u64) = (10, 40);

/// One block of the request stream: 100 plain queries (models N=16, 8,
/// 24 at weights 60/25/15, each spread evenly over [`TIMES`]), 12
/// budgeted queries and 6 scrapes — about 85/10/5 % — in seeded order.
const PLAIN_PER_MODEL: [(usize, usize); 3] = [(16, 60), (8, 25), (24, 15)];
const BUDGETED_PER_BLOCK: usize = 12;
const SCRAPES_PER_BLOCK: usize = 6;
const BLOCK: usize = 100 + BUDGETED_PER_BLOCK + SCRAPES_PER_BLOCK;

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Query {
        n: usize,
        t: f64,
        max: bool,
    },
    Budgeted {
        n: usize,
        t: f64,
        max: bool,
        max_iters: u64,
    },
    Metrics,
}

impl Request {
    /// Equal requests do the same work: the class is a hash of the
    /// request itself.
    pub fn class(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{self:?}").hash(&mut h);
        h.finish()
    }
}

fn weighted_model(r: &mut Rng) -> usize {
    let x = r.range(0, 99) as usize;
    let mut acc = 0;
    for (n, w) in PLAIN_PER_MODEL {
        acc += w;
        if x < acc {
            return n;
        }
    }
    unreachable!("weights sum to 100")
}

/// Block `b` of the request stream under `seed`, shuffled.
pub fn block(seed: u64, b: u64) -> Vec<Request> {
    let mut r = Rng::for_item(seed, 1, b);
    let mut out = Vec::with_capacity(BLOCK);
    for (n, count) in PLAIN_PER_MODEL {
        for k in 0..count {
            out.push(Request::Query {
                n,
                t: TIMES[k % TIMES.len()],
                max: r.next_u64() & 1 == 0,
            });
        }
    }
    for _ in 0..BUDGETED_PER_BLOCK {
        out.push(Request::Budgeted {
            n: weighted_model(&mut r),
            t: TIMES[r.range(0, TIMES.len() as u64 - 1) as usize],
            max: r.next_u64() & 1 == 0,
            max_iters: r.range(MAX_ITERS.0, MAX_ITERS.1),
        });
    }
    out.extend(std::iter::repeat_n(Request::Metrics, SCRAPES_PER_BLOCK));
    for i in (1..out.len()).rev() {
        out.swap(i, r.range(0, i as u64) as usize);
    }
    out
}

/// Request `i` of the stream under `seed`.
pub fn request(seed: u64, i: u64) -> Request {
    let b = block(seed, i / BLOCK as u64);
    b[(i % BLOCK as u64) as usize].clone()
}

fn objective_str(max: bool) -> &'static str {
    if max {
        "max"
    } else {
        "min"
    }
}

/// The protocol line for `req`; `models` maps N to its fingerprint.
pub fn render(req: &Request, models: &BTreeMap<usize, String>) -> String {
    match req {
        Request::Metrics => "{\"metrics\":{}}".to_string(),
        Request::Query { n, t, max } => format!(
            "{{\"query\":{{\"model\":\"{}\",\"t\":{t:?},\"objective\":\"{}\",\"epsilon\":{EPSILON:e}}}}}",
            models[n],
            objective_str(*max)
        ),
        Request::Budgeted { n, t, max, max_iters } => format!(
            "{{\"query\":{{\"model\":\"{}\",\"t\":{t:?},\"objective\":\"{}\",\"epsilon\":{EPSILON:e},\
             \"budget\":{{\"max_iters\":{max_iters}}}}}}}",
            models[n],
            objective_str(*max)
        ),
    }
}

/// The library's answer for one `(N, t, objective)`.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub value: f64,
    pub checksum: f64,
    pub iterations: usize,
}

type Key = (usize, u64, bool);

fn key(n: usize, t: f64, max: bool) -> Key {
    (n, t.to_bits(), max)
}

/// In-process answers for every request the stream can make, plus each
/// model's fingerprint (the daemon's registry key).
pub struct Library {
    pub fingerprints: BTreeMap<usize, String>,
    pub answers: BTreeMap<Key, Answer>,
    /// Median in-process query time per key (traced runs only).
    pub query_ms: BTreeMap<Key, f64>,
}

fn library(tracer: &mut Tracer) -> Result<Library, String> {
    let mut lib = Library {
        fingerprints: BTreeMap::new(),
        answers: BTreeMap::new(),
        query_ms: BTreeMap::new(),
    };
    for n in MODELS {
        let (prepared, _, fp) = experiment::prepare_registered(&FtwcParams::new(n));
        lib.fingerprints.insert(n, format!("{fp:016x}"));
        let engine =
            ReachEngine::new(&prepared.ctmdp, &prepared.goal).map_err(|e| e.to_string())?;
        let initial = prepared.ctmdp.initial();
        let mut cache = WeightCache::new();
        for t in TIMES {
            if tracer.enabled() {
                tracer.time("numeric.weights_ms", || {
                    WeightCache::new()
                        .get(engine.uniform_rate(), t, EPSILON)
                        .truncation
                });
            }
            for max in [true, false] {
                let objective = if max {
                    Objective::Maximize
                } else {
                    Objective::Minimize
                };
                let batch = prepared
                    .reach_batch()
                    .with_epsilon(EPSILON)
                    .with_threads(1)
                    .query_with(t, objective);
                let res = batch
                    .run_with_engine(&engine, &mut cache)
                    .map_err(|e| e.to_string())?;
                let q = &res.stats.queries[0];
                lib.answers.insert(
                    key(n, t, max),
                    Answer {
                        value: res.results[0].from_state(initial),
                        checksum: q.checksum,
                        iterations: q.iterations,
                    },
                );
                if tracer.enabled() {
                    // The serve path's in-process equivalent: shared
                    // engine, warm weight cache, one thread.
                    let mut times = Vec::new();
                    for _ in 0..3 {
                        let span = tracer.open("ctmdp.query");
                        let start = Instant::now();
                        let res = batch
                            .run_with_engine(&engine, &mut cache)
                            .map_err(|e| e.to_string())?;
                        times.push(ms(start.elapsed()));
                        tracer.close(span);
                        tracer.value("ctmdp.iterate_ms", ms(res.stats.iterate_time));
                        tracer.value("ctmdp.iterations", res.stats.total_iterations as f64);
                        tracer.value("ctmdp.ns_per_state_step", res.stats.kernel_ns_per_state);
                    }
                    lib.query_ms.insert(key(n, t, max), median(&times));
                }
            }
        }
    }
    Ok(lib)
}

/// One client connection to the daemon.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> std::io::Result<Self> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one line and reads the response: `(parsed, round trip ms)`.
    fn call(&mut self, line: &str) -> Result<(Value, f64), String> {
        let start = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| format!("receive: {e}"))?;
        let rtt = ms(start.elapsed());
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Ok((Value::parse(resp.trim())?, rtt))
    }
}

/// A spawned daemon; dropping it kills and reaps the process if it is
/// still running and removes the socket file.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(bin: &Path, socket: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(bin)
            .args([
                "--log-level",
                "quiet",
                "serve",
                "--threads",
                "1",
                "--drain-grace",
                "1",
            ])
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(Self { child, socket })
    }

    /// Connects once the daemon listens (it binds after start-up).
    fn connect(&mut self) -> Result<Conn, String> {
        let start = Instant::now();
        loop {
            match Conn::open(&self.socket) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("daemon exited early: {status}"));
                    }
                    if start.elapsed() > Duration::from_secs(30) {
                        return Err(format!("daemon never listened: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to shut down over `conn` and waits for it to exit.
    fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let (resp, _) = conn.call("{\"shutdown\":{}}")?;
        drop(conn);
        if resp.str("ok") != Some("shutdown") {
            return Err("shutdown was not acknowledged".into());
        }
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Checks one response against the library. `Err` names what was wrong.
pub fn check(req: &Request, resp: &Value, lib: &BTreeMap<Key, Answer>) -> Result<(), String> {
    if let Some(e) = resp.get("error") {
        return Err(format!("error response: {}", e.str("kind").unwrap_or("?")));
    }
    let ok = resp.str("ok").unwrap_or("");
    let (n, t, max, max_iters) = match *req {
        Request::Metrics => {
            return match (ok, resp.str("exposition")) {
                ("metrics", Some(text)) if !text.is_empty() => Ok(()),
                _ => Err("bad metrics response".into()),
            }
        }
        Request::Query { n, t, max } => (n, t, max, None),
        Request::Budgeted {
            n,
            t,
            max,
            max_iters,
        } => (n, t, max, Some(max_iters)),
    };
    let want = lib
        .get(&key(n, t, max))
        .ok_or("no library answer for request")?;
    match max_iters {
        Some(m) if (m as usize) < want.iterations => {
            let (lo, hi) = (resp.num("lower"), resp.num("upper"));
            match (ok, lo, hi, resp.num("completed_steps")) {
                ("partial", Some(lo), Some(hi), Some(done))
                    if lo <= want.value && want.value <= hi && done == m as f64 =>
                {
                    Ok(())
                }
                _ => Err(format!(
                    "partial for N={n} t={t} does not bracket {:e}",
                    want.value
                )),
            }
        }
        _ => {
            let value = resp.num("value").map(f64::to_bits);
            let checksum = resp
                .str("checksum")
                .and_then(|c| u64::from_str_radix(c, 16).ok());
            if ok == "query"
                && value == Some(want.value.to_bits())
                && checksum == Some(want.checksum.to_bits())
            {
                Ok(())
            } else {
                Err(format!(
                    "answer for N={n} t={t} max={max} differs from the library"
                ))
            }
        }
    }
}

/// Spawns the daemon and registers every model: one set-up.
fn set_up(
    bin: &Path,
    socket: PathBuf,
    lib: &Library,
    tracer: &mut Tracer,
    errors: &mut Vec<String>,
) -> Result<(Daemon, Conn, f64), String> {
    let start = Instant::now();
    let mut daemon = Daemon::spawn(bin, socket)?;
    let mut conn = daemon.connect()?;
    for n in MODELS {
        let span = tracer.open("serve.register_ms");
        let (resp, _) = conn.call(&format!("{{\"register\":{{\"ftwc\":{n}}}}}"))?;
        tracer.close(span);
        if resp.str("model") != Some(lib.fingerprints[&n].as_str()) {
            errors.push(format!(
                "register N={n}: fingerprint differs from the library"
            ));
        }
    }
    Ok((daemon, conn, start.elapsed().as_secs_f64()))
}

/// Per-connection results of the timed phase.
struct ClientLog {
    ops: OpLog,
    tracer: Tracer,
    /// Serve `wall_ms` of traced plain queries, per key.
    wall_ms: BTreeMap<Key, Vec<f64>>,
    errors: Vec<String>,
}

fn client(
    config: &Config,
    socket: &Path,
    lib: &Library,
    next: &AtomicU64,
    done: &AtomicUsize,
    start: Instant,
    epoch: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        ops: OpLog::default(),
        tracer: Tracer::new(epoch, false),
        wall_ms: BTreeMap::new(),
        errors: Vec::new(),
    };
    let mut conn = match Conn::open(socket) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    while config.keep_going(start, done.load(Ordering::SeqCst), MIN_OPS) {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let req = request(config.seed, i);
        let line = render(&req, &lib.fingerprints);
        let traced = config.trace_op(i);
        log.tracer.set_enabled(traced);
        log.tracer.set_op(i);
        let span = log.tracer.open(match req {
            Request::Query { .. } => "serve.query",
            Request::Budgeted { .. } => "serve.guarded",
            Request::Metrics => "serve.scrape_ms",
        });
        let outcome = conn.call(&line);
        log.tracer.close(span);
        let (resp, rtt) = match outcome {
            Ok(x) => x,
            Err(e) => {
                log.ops.record(0.0, false, traced, 0);
                log.errors.push(format!("request {i}: {e}"));
                break;
            }
        };
        let ok = match check(&req, &resp, &lib.answers) {
            Ok(()) => true,
            Err(e) => {
                if log.errors.len() < 5 {
                    log.errors.push(format!("request {i}: {e}"));
                }
                false
            }
        };
        log.ops.record(rtt, ok, traced, req.class());
        done.fetch_add(1, Ordering::SeqCst);
        if traced && ok {
            if let (
                Some(wall),
                Request::Query { n, t, max } | Request::Budgeted { n, t, max, .. },
            ) = (resp.num("wall_ms"), &req)
            {
                log.tracer.value("serve.overhead_ms", rtt - wall);
                if resp.str("ok") == Some("partial") {
                    log.tracer.value("ctmdp.guarded_ms", wall);
                } else if matches!(req, Request::Query { .. }) {
                    log.wall_ms.entry(key(*n, *t, *max)).or_default().push(wall);
                }
            }
        }
    }
    log.ops.wall = start.elapsed();
    log
}

/// The value of an exposition sample line `name value`, if present.
fn sample(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|l| {
        let (head, value) = l.rsplit_once(' ')?;
        (head == name).then(|| value.parse().ok()).flatten()
    })
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("unicon");
    let mut tracer = Tracer::new(epoch, config.traced);
    let lib = library(&mut tracer)?;
    let mut errors = Vec::new();
    let too_short = lib
        .answers
        .values()
        .filter(|a| a.iterations as u64 <= MAX_ITERS.1)
        .count();
    if too_short > 0 {
        errors.push(format!(
            "{too_short} queries need at most {} steps",
            MAX_ITERS.1
        ));
    }

    let socket = Path::new(OUT_DIR).join(format!("serve-{}.sock", std::process::id()));
    let (daemon, mut control, secs) = set_up(&bin, socket.clone(), &lib, &mut tracer, &mut errors)?;
    let mut setups_s = vec![secs];

    let next = AtomicU64::new(0);
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let logs = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let log = client(config, &daemon.socket, &lib, &next, &done, start, epoch);
                logs.lock()
                    .expect("no client panicked holding the lock")
                    .push(log);
            });
        }
    });
    let mut ops = OpLog::default();
    let mut wall_ms: BTreeMap<Key, Vec<f64>> = BTreeMap::new();
    for log in logs.into_inner().expect("clients joined") {
        ops.merge(log.ops);
        tracer.merge(log.tracer);
        errors.extend(log.errors);
        for (k, v) in log.wall_ms {
            wall_ms.entry(k).or_default().extend(v);
        }
    }

    if config.traced {
        let (resp, _) = control.call("{\"metrics\":{}}")?;
        let text = resp.str("exposition").unwrap_or("");
        let hits = sample(text, "unicon_weight_cache_hits_total").unwrap_or(0.0);
        let misses = sample(text, "unicon_weight_cache_misses_total").unwrap_or(0.0);
        if hits + misses > 0.0 {
            tracer.value("numeric.weight_hit_ratio", hits / (hits + misses));
        }
        match sample(text, "unicon_serve_queue_wait_ns_p50") {
            Some(ns) => tracer.value("serve.queue_wait_p50_ms", ns / 1e6),
            None => errors.push("final scrape has no unicon_serve_queue_wait_ns_p50".into()),
        }
        let ratios: Vec<f64> = wall_ms
            .iter()
            .filter_map(|(k, walls)| Some(median(walls) / lib.query_ms.get(k)?))
            .collect();
        tracer.value("obs.serve_over_library", median(&ratios));
    }
    let peak = peak_rss_mb(&daemon.pid())?;
    Daemon::shutdown(daemon, control)?;
    // Further set-ups only time set-up: spawn, register, shut down.
    for _ in 1..crate::stats::SETUP_REPEATS {
        let (daemon, conn, secs) = set_up(&bin, socket.clone(), &lib, &mut tracer, &mut errors)?;
        setups_s.push(secs);
        Daemon::shutdown(daemon, conn)?;
    }
    Ok(Outcome {
        setups_s,
        ops,
        peak_rss_mb: peak,
        tracer,
        errors,
        notes: vec![format!(
            "closed loop: {CONNECTIONS} connections, daemon --threads 1, models N={MODELS:?}"
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_and_the_mix_holds() {
        let a: Vec<Request> = (0..500).map(|i| request(42, i)).collect();
        let b: Vec<Request> = (0..500).map(|i| request(42, i)).collect();
        assert_eq!(a, b);
        let c: Vec<Request> = (0..500).map(|i| request(43, i)).collect();
        assert_ne!(a, c);
        let blk = block(42, 0);
        let count = |f: fn(&Request) -> bool| blk.iter().filter(|r| f(r)).count();
        assert_eq!(count(|r| matches!(r, Request::Metrics)), SCRAPES_PER_BLOCK);
        assert_eq!(
            count(|r| matches!(r, Request::Budgeted { .. })),
            BUDGETED_PER_BLOCK
        );
        assert_eq!(count(|r| matches!(r, Request::Query { n: 16, .. })), 60);
        assert_eq!(count(|r| matches!(r, Request::Query { n: 8, .. })), 25);
        assert_eq!(count(|r| matches!(r, Request::Query { n: 24, .. })), 15);
    }

    fn lib() -> BTreeMap<Key, Answer> {
        let mut m = BTreeMap::new();
        m.insert(
            key(8, 10.0, true),
            Answer {
                value: 0.25,
                checksum: 7.5,
                iterations: 45,
            },
        );
        m
    }

    #[test]
    fn refused_errored_or_wrong_responses_fail_the_op() {
        let q = Request::Query {
            n: 8,
            t: 10.0,
            max: true,
        };
        let good = Value::parse(&format!(
            "{{\"ok\":\"query\",\"value\":2.5e-1,\"checksum\":\"{:016x}\"}}",
            7.5f64.to_bits()
        ))
        .expect("json");
        assert!(check(&q, &good, &lib()).is_ok());
        let refused = Value::parse(
            r#"{"error":{"code":4,"kind":"overloaded","detail":"busy","retriable":true}}"#,
        )
        .expect("json");
        assert!(check(&q, &refused, &lib()).is_err());
        let errored =
            Value::parse(r#"{"error":{"code":1,"kind":"runtime","detail":"x","retriable":false}}"#)
                .expect("json");
        assert!(check(&Request::Metrics, &errored, &lib()).is_err());
        let wrong = Value::parse(&format!(
            "{{\"ok\":\"query\",\"value\":2.5000000000000006e-1,\"checksum\":\"{:016x}\"}}",
            7.5f64.to_bits()
        ))
        .expect("json");
        assert!(check(&q, &wrong, &lib()).is_err());

        let b = Request::Budgeted {
            n: 8,
            t: 10.0,
            max: true,
            max_iters: 20,
        };
        let partial = |lo: f64, hi: f64| {
            Value::parse(&format!(
                "{{\"ok\":\"partial\",\"completed_steps\":20,\"lower\":{lo:e},\"upper\":{hi:e}}}"
            ))
            .expect("json")
        };
        assert!(check(&b, &partial(0.1, 0.9), &lib()).is_ok());
        assert!(check(&b, &partial(0.3, 0.9), &lib()).is_err());
    }

    #[test]
    fn renders_protocol_lines() {
        let models: BTreeMap<usize, String> = [(8, "00000000000000ab".to_string())].into();
        let line = render(
            &Request::Budgeted {
                n: 8,
                t: 25.0,
                max: false,
                max_iters: 12,
            },
            &models,
        );
        let v = Value::parse(&line).expect("valid JSON");
        let q = v.get("query").expect("query verb");
        assert_eq!(q.str("model"), Some("00000000000000ab"));
        assert_eq!(q.num("t"), Some(25.0));
        assert_eq!(q.str("objective"), Some("min"));
        assert_eq!(q.get("budget").and_then(|b| b.num("max_iters")), Some(12.0));
    }
}
