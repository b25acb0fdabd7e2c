//! # unicon-obs — structured observability, bit-invisible by contract
//!
//! One coherent telemetry substrate for the whole tool chain: monotonic
//! **spans** with parent/child nesting, typed **events** (per-iteration
//! value-iteration residuals, Fox–Glynn truncation windows, bisimulation
//! refinement progress, guard-layer incidents), and pluggable **sinks**
//! (a JSONL trace stream, a Prometheus-style metrics [`Registry`], a
//! stderr console logger). Entirely `std`, zero external dependencies.
//!
//! ## The bit-invisibility contract
//!
//! Instrumentation must never change a result. The engines guarantee
//! bitwise-identical values at every thread count; telemetry rides along
//! only under these rules, enforced by construction here and by the
//! `ci.sh` trace-on/trace-off checksum gate:
//!
//! * emission sites only **read** engine state (residuals, checksums);
//!   no instrumented code path writes into the numeric pipeline;
//! * per-iteration records are timestamp-free; `Instant` is read at
//!   span boundaries ([`open_span`] / [`close_span`]) and, while metrics
//!   are live, around the fused kernel's class runs on sampled sweeps
//!   only (the first sweep of a query and every 64th step) — the clock
//!   values feed the per-class speed histograms, never a result;
//! * when no installed sink is interested in a [`Class`] (and no
//!   thread-local collector is active), [`live`] is a single relaxed
//!   atomic load plus a thread-local flag check, and [`emit`] never
//!   builds the event — the disabled handle costs near zero.
//!
//! ## Dispatch model
//!
//! All engine emission sites run on the *calling* thread (the sequential
//! loop, the parallel driver's assembly loop, the guard driver, the
//! refiner, the build pipeline) — worker threads never emit. That makes
//! the thread-local [`collect`] capture race-free even under a
//! multi-threaded test runner, while global sinks installed with
//! [`install`] see the same events (tee semantics).
//!
//! ```
//! use unicon_obs as obs;
//!
//! let ((), events) = obs::collect(|| {
//!     let span = obs::open_span("phase");
//!     obs::emit(obs::Class::Metric, || obs::Event::Counter {
//!         name: "things_done",
//!         value: 3,
//!     });
//!     obs::close_span(span).expect("balanced");
//! });
//! assert_eq!(events.len(), 3); // open, counter, close
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hist;
pub mod json;
mod metrics;
pub mod profile;
mod sink;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

pub use event::{Event, Level};
pub use hist::{Histogram, HISTOGRAM_BUCKETS};
pub use metrics::Registry;
pub use sink::{ConsoleSink, JsonlSink, Sink};

// ---------------------------------------------------------------------------
// Event classes and the global interest mask
// ---------------------------------------------------------------------------

/// Coarse event classes, used as an interest filter so a sink that only
/// wants logs (the console) never turns on per-iteration telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Human log lines ([`Event::Log`]).
    Log,
    /// Span open/close records.
    Span,
    /// Per-iteration convergence telemetry — the only class whose
    /// emission sites sit on the numeric hot path. Only trace consumers
    /// (the JSONL sink, [`collect`]) want it.
    Iter,
    /// Counters and aggregate progress records (refinement rounds,
    /// Fox–Glynn windows, cache statistics).
    Metric,
    /// Guard-layer incidents (checkpoints, degradations, budget stops).
    Guard,
}

impl Class {
    /// This class's bit in an interest mask.
    #[must_use]
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// The mask covering every class.
    #[must_use]
    pub fn all_mask() -> u32 {
        0b1_1111
    }
}

/// OR of the interests of all installed sinks; `0` when nothing is
/// installed, so the disabled fast path is one relaxed load.
static INTEREST: AtomicU32 = AtomicU32::new(0);
static SINKS: RwLock<Vec<Arc<dyn Sink>>> = RwLock::new(Vec::new());
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The active [`collect`] buffer, if any.
    static COLLECTOR: RefCell<Option<Vec<Event>>> = const { RefCell::new(None) };
    /// The open-span stack of this thread (parent tracking + timing).
    static SPAN_STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
    /// The request id events on this thread are attributed to, if any.
    static CURRENT_REQUEST: Cell<Option<u64>> = const { Cell::new(None) };
}

fn sinks() -> std::sync::RwLockReadGuard<'static, Vec<Arc<dyn Sink>>> {
    SINKS
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs a sink; events of the classes it is interested in start
/// flowing to it immediately.
pub fn install(sink: Arc<dyn Sink>) {
    let mut guard = SINKS
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard.push(sink);
    let mask = guard.iter().fold(0, |m, s| m | s.interest());
    INTEREST.store(mask, Ordering::Relaxed);
}

/// Removes every installed sink (used by tests; the CLI installs once
/// per process).
pub fn reset() {
    let mut guard = SINKS
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard.clear();
    INTEREST.store(0, Ordering::Relaxed);
}

/// Flushes every installed sink (the CLI calls this once before exit so
/// buffered JSONL traces hit the disk).
pub fn flush() {
    for s in sinks().iter() {
        s.flush();
    }
}

fn collecting() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Is any consumer interested in `class` right now? Engines guard the
/// *computation* of expensive payloads (residuals, checksums) on this;
/// [`emit`] re-checks it internally, so plain call sites don't need to.
#[must_use]
pub fn live(class: Class) -> bool {
    INTEREST.load(Ordering::Relaxed) & class.bit() != 0 || collecting()
}

/// Emits an event lazily: `f` runs only when a sink or collector wants
/// events of `class`.
pub fn emit(class: Class, f: impl FnOnce() -> Event) {
    let mask = INTEREST.load(Ordering::Relaxed);
    let wanted = mask & class.bit() != 0;
    if !wanted && !collecting() {
        return;
    }
    let ev = f();
    // A misfiled event reaches the wrong sinks (and turns on the wrong
    // hot-path work); catch it at the emit site in debug builds.
    debug_assert_eq!(ev.class(), class, "event emitted under the wrong class");
    COLLECTOR.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(ev.clone());
        }
    });
    if wanted {
        for s in sinks().iter() {
            if s.interest() & class.bit() != 0 {
                s.record(&ev);
            }
        }
    }
}

/// Runs `f` with a thread-local event collector and returns its result
/// together with every event emitted *on this thread* while it ran.
///
/// Events still reach installed global sinks (tee). Collectors nest:
/// an inner `collect` temporarily shadows the outer one, so the outer
/// buffer does not see the inner run's events. If `f` panics, the
/// previous collector is restored and the partial capture is dropped.
pub fn collect<T>(f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    struct Restore {
        prev: Option<Option<Vec<Event>>>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.prev.take() {
                COLLECTOR.with(|c| *c.borrow_mut() = prev);
            }
        }
    }
    let prev = COLLECTOR.with(|c| c.borrow_mut().replace(Vec::new()));
    let mut restore = Restore { prev: Some(prev) };
    let out = f();
    let events = COLLECTOR.with(|c| {
        let mut buf = c.borrow_mut();
        let captured = buf.take().unwrap_or_default();
        *buf = restore.prev.take().expect("restore guard is armed");
        captured
    });
    (out, events)
}

// ---------------------------------------------------------------------------
// Request scoping
// ---------------------------------------------------------------------------

/// The request id the current thread's events are attributed to, if a
/// [`request_scope`] is active. The JSONL sink stamps this onto every
/// trace line (`"request":N`), so a multi-request trace can be filtered
/// to one request end-to-end. Engine emission all happens on the
/// calling/assembler thread, so a serve session's scope covers every
/// span, iteration record and metric its query triggers.
#[must_use]
pub fn current_request() -> Option<u64> {
    CURRENT_REQUEST.with(Cell::get)
}

/// An active request attribution scope; dropping it restores the
/// previous scope (scopes nest, inner wins).
#[derive(Debug)]
pub struct RequestScope {
    prev: Option<u64>,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT_REQUEST.with(|c| c.set(self.prev));
    }
}

/// Attributes every event emitted on this thread to request `id` until
/// the returned guard drops. Purely an annotation: no event is created,
/// suppressed or reordered by scoping, so the bit-invisibility contract
/// is untouched.
pub fn request_scope(id: u64) -> RequestScope {
    let prev = CURRENT_REQUEST.with(|c| c.replace(Some(id)));
    RequestScope { prev }
}

/// Emits one histogram sample ([`Event::Observe`]) for `name`.
pub fn observe(name: &'static str, value: u64) {
    emit(Class::Metric, || Event::Observe { name, value });
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct OpenSpan {
    id: u64,
    name: &'static str,
    start: Instant,
}

/// Proof of an open span, consumed by [`close_span`]. A token obtained
/// while observability was dormant is inert: closing it is a no-op.
/// Tokens are `Copy` so an out-of-order close (a typed error) can be
/// retried once the child spans have closed.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with close_span (or use span() for RAII)"]
pub struct SpanToken {
    id: u64,
    name: &'static str,
}

/// A typed span-discipline violation. Spans form a per-thread stack;
/// closing anything but the innermost open span is an error, never a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanError {
    /// The token's span is not open on this thread (already closed, or
    /// opened on another thread).
    NotOpen {
        /// The stale token's span name.
        closing: &'static str,
    },
    /// The token's span is open but not innermost: a child is still
    /// running.
    OutOfOrder {
        /// The span the token refers to.
        closing: &'static str,
        /// The innermost open span that must close first.
        innermost: &'static str,
    },
}

impl std::fmt::Display for SpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanError::NotOpen { closing } => {
                write!(f, "span '{closing}' is not open on this thread")
            }
            SpanError::OutOfOrder { closing, innermost } => write!(
                f,
                "span '{closing}' cannot close before its child '{innermost}'"
            ),
        }
    }
}

impl std::error::Error for SpanError {}

/// Opens a span named `name` on this thread's span stack and emits a
/// [`Event::SpanOpen`] record (with the parent span's id, if any).
///
/// When no consumer wants span events, this reads no clock and returns
/// an inert token.
pub fn open_span(name: &'static str) -> SpanToken {
    if !live(Class::Span) {
        return SpanToken { id: 0, name };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().map(|o| o.id));
    SPAN_STACK.with(|s| {
        s.borrow_mut().push(OpenSpan {
            id,
            name,
            start: Instant::now(),
        })
    });
    emit(Class::Span, || Event::SpanOpen { name, id, parent });
    SpanToken { id, name }
}

/// Closes the span `token` refers to, emitting a [`Event::SpanClose`]
/// with its wall-clock duration.
///
/// # Errors
///
/// [`SpanError::OutOfOrder`] if a child span is still open,
/// [`SpanError::NotOpen`] if the token's span is not on this thread's
/// stack at all. Neither panics, and the stack is left unchanged on
/// error.
pub fn close_span(token: SpanToken) -> Result<(), SpanError> {
    if token.id == 0 {
        return Ok(());
    }
    let closed = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        match stack.last() {
            Some(top) if top.id == token.id => Ok(stack.pop().expect("non-empty stack")),
            Some(top) if stack.iter().any(|o| o.id == token.id) => Err(SpanError::OutOfOrder {
                closing: token.name,
                innermost: top.name,
            }),
            _ => Err(SpanError::NotOpen {
                closing: token.name,
            }),
        }
    })?;
    let nanos = u64::try_from(closed.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    emit(Class::Span, || Event::SpanClose {
        name: closed.name,
        id: closed.id,
        nanos,
    });
    Ok(())
}

/// An RAII span: opened on construction, closed on drop. Drop order
/// guarantees balanced nesting, so the close cannot fail.
#[derive(Debug)]
pub struct Span {
    token: Option<SpanToken>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            // Balanced by construction; a failure here means the user
            // mixed RAII and manual closes, which the manual API already
            // reported as a typed error.
            let _ = close_span(token);
        }
    }
}

/// Opens an RAII [`Span`]; it closes when the value drops.
pub fn span(name: &'static str) -> Span {
    Span {
        token: Some(open_span(name)),
    }
}

// ---------------------------------------------------------------------------
// Log helpers
// ---------------------------------------------------------------------------

/// Emits a log event; the message closure runs only when someone
/// listens.
pub fn log(level: Level, f: impl FnOnce() -> String) {
    emit(Class::Log, || Event::Log {
        level,
        message: f(),
    });
}

/// Logs at [`Level::Error`].
pub fn error(f: impl FnOnce() -> String) {
    log(Level::Error, f);
}

/// Logs at [`Level::Info`].
pub fn info(f: impl FnOnce() -> String) {
    log(Level::Info, f);
}

/// Logs at [`Level::Debug`].
pub fn debug(f: impl FnOnce() -> String) {
    log(Level::Debug, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dormant_emission_costs_nothing_and_builds_nothing() {
        assert!(!live(Class::Iter));
        let mut ran = false;
        emit(Class::Iter, || {
            ran = true;
            Event::ReachIteration {
                query: 0,
                step: 1,
                psi: 0.0,
                residual: 0.0,
                checksum: 0,
            }
        });
        assert!(!ran, "payload closure must not run while dormant");
        // dormant spans are inert and close cleanly
        let token = open_span("dormant");
        assert!(close_span(token).is_ok());
    }

    #[test]
    fn collect_captures_events_in_order() {
        let ((), events) = collect(|| {
            emit(Class::Metric, || Event::Counter {
                name: "a",
                value: 1,
            });
            emit(Class::Metric, || Event::Counter {
                name: "b",
                value: 2,
            });
        });
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::Counter { name: "a", .. }));
        assert!(matches!(events[1], Event::Counter { name: "b", .. }));
        // the collector is gone afterwards
        assert!(!live(Class::Metric));
    }

    #[test]
    fn span_nesting_records_parents() {
        let ((), events) = collect(|| {
            let outer = open_span("outer");
            let inner = open_span("inner");
            close_span(inner).expect("inner closes first");
            close_span(outer).expect("outer closes last");
        });
        let opens: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanOpen { name, id, parent } => Some((*name, *id, *parent)),
                _ => None,
            })
            .collect();
        assert_eq!(opens.len(), 2);
        assert_eq!(opens[0].0, "outer");
        assert_eq!(opens[0].2, None);
        assert_eq!(opens[1].0, "inner");
        assert_eq!(opens[1].2, Some(opens[0].1), "inner's parent is outer");
        let closes = events
            .iter()
            .filter(|e| matches!(e, Event::SpanClose { .. }))
            .count();
        assert_eq!(closes, 2);
    }

    #[test]
    fn unbalanced_close_is_a_typed_error_not_a_panic() {
        let ((), _) = collect(|| {
            let outer = open_span("outer");
            let inner = open_span("inner");
            let err = close_span(outer).expect_err("inner still open");
            assert_eq!(
                err,
                SpanError::OutOfOrder {
                    closing: "outer",
                    innermost: "inner",
                }
            );
            // recover in order — the stack was left intact, and tokens
            // are Copy, so the retry succeeds
            close_span(inner).expect("inner closes");
            close_span(outer).expect("outer closes after the child");
        });
    }

    #[test]
    fn double_close_is_not_open() {
        let ((), _) = collect(|| {
            let a = open_span("a");
            close_span(a).expect("first close works");
            let err = close_span(a).expect_err("second close fails");
            assert_eq!(err, SpanError::NotOpen { closing: "a" });
        });
    }

    #[test]
    fn raii_span_closes_on_drop() {
        let ((), events) = collect(|| {
            let _s = span("raii");
        });
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SpanClose { name: "raii", .. })));
    }

    #[test]
    fn request_scopes_nest_and_restore() {
        assert_eq!(current_request(), None);
        {
            let _outer = request_scope(7);
            assert_eq!(current_request(), Some(7));
            {
                let _inner = request_scope(8);
                assert_eq!(current_request(), Some(8), "inner scope wins");
            }
            assert_eq!(current_request(), Some(7), "outer scope restored");
        }
        assert_eq!(current_request(), None, "no scope after the last drop");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event emitted under the wrong class")]
    fn misfiled_emit_panics_in_debug_builds() {
        let _ = collect(|| {
            emit(Class::Iter, || Event::Counter {
                name: "misfiled",
                value: 1,
            });
        });
    }

    #[test]
    fn collect_restores_previous_collector_on_panic() {
        let ((), outer_events) = collect(|| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = collect(|| {
                    emit(Class::Metric, || Event::Counter {
                        name: "inner",
                        value: 1,
                    });
                    panic!("boom");
                });
            }));
            assert!(caught.is_err());
            emit(Class::Metric, || Event::Counter {
                name: "outer",
                value: 1,
            });
        });
        assert_eq!(outer_events.len(), 1, "inner capture was dropped");
        assert!(matches!(
            outer_events[0],
            Event::Counter { name: "outer", .. }
        ));
    }
}
