//! Pluggable event sinks: the JSONL trace stream and the stderr console
//! logger. The metrics [`crate::Registry`] is a third sink, defined in
//! its own module.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use crate::{Class, Event, Level};

/// An event consumer. Sinks must be thread-safe; the dispatcher calls
/// [`Sink::record`] from whichever thread emitted.
pub trait Sink: Send + Sync {
    /// Bitmask of [`Class`]es this sink wants ([`Class::bit`]). The
    /// dispatcher ORs all installed sinks' interests into one global
    /// mask, so a sink that leaves out [`Class::Iter`] never turns on
    /// per-step telemetry. Required: every sink states its classes.
    fn interest(&self) -> u32;

    /// Consumes one event.
    fn record(&self, event: &Event);

    /// Flushes buffered output (called once before process exit).
    fn flush(&self) {}
}

/// Streams every event as one JSON line (JSONL) to a buffered file.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncates) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Sink for JsonlSink {
    /// A trace wants everything, per-step iteration records included.
    fn interest(&self) -> u32 {
        Class::all_mask()
    }

    fn record(&self, event: &Event) {
        let mut line = event.to_json();
        // record() runs on the emitting thread, so the thread-local
        // request scope identifies the serve request this event belongs
        // to; stamping it lets a trace be filtered to one request.
        if let Some(rid) = crate::current_request() {
            line.truncate(line.len() - 1);
            line.push_str(",\"request\":");
            line.push_str(&rid.to_string());
            line.push('}');
        }
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Tracing must never abort an analysis: I/O errors are dropped
        // (the final flush in the CLI reports its own failure path).
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = out.flush();
    }
}

/// The human logger: prints [`Event::Log`] lines to stderr, filtered by
/// a runtime-adjustable verbosity threshold. Interested only in
/// [`Class::Log`], so installing it never enables engine telemetry.
#[derive(Debug)]
pub struct ConsoleSink {
    max_level: AtomicU8,
}

fn level_to_u8(l: Level) -> u8 {
    match l {
        Level::Error => 0,
        Level::Info => 1,
        Level::Debug => 2,
    }
}

impl ConsoleSink {
    /// A console showing messages up to `level` (`Level::Error` =
    /// quiet, `Level::Info` = default, `Level::Debug` = everything).
    #[must_use]
    pub fn new(level: Level) -> Self {
        Self {
            max_level: AtomicU8::new(level_to_u8(level)),
        }
    }

    /// Adjusts the verbosity threshold (the CLI parses `--log-level`
    /// after the sink is already installed).
    pub fn set_level(&self, level: Level) {
        self.max_level.store(level_to_u8(level), Ordering::Relaxed);
    }
}

impl Sink for ConsoleSink {
    fn interest(&self) -> u32 {
        Class::Log.bit()
    }

    fn record(&self, event: &Event) {
        let Event::Log { level, message } = event else {
            return;
        };
        if level_to_u8(*level) > self.max_level.load(Ordering::Relaxed) {
            return;
        }
        match level {
            Level::Error => eprintln!("error: {message}"),
            Level::Info => eprintln!("{message}"),
            Level::Debug => eprintln!("debug: {message}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("unicon-obs-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("create trace file");
        sink.record(&Event::Counter {
            name: "a",
            value: 1,
        });
        sink.record(&Event::Log {
            level: Level::Info,
            message: "two\nlines stay one record".into(),
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one JSONL line per event");
        for line in &lines {
            crate::json::Value::parse(line).expect("each line is a JSON document");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_stamps_the_active_request_scope() {
        let dir = std::env::temp_dir().join("unicon-obs-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("trace-rid-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("create trace file");
        sink.record(&Event::Counter {
            name: "unscoped",
            value: 1,
        });
        {
            let _scope = crate::request_scope(42);
            sink.record(&Event::Counter {
                name: "scoped",
                value: 1,
            });
        }
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::Value::parse(lines[0]).expect("valid json");
        assert!(first.get("request").is_none(), "no scope, no stamp");
        let second = crate::json::Value::parse(lines[1]).expect("valid json");
        assert_eq!(
            second.get("request").and_then(crate::json::Value::as_f64),
            Some(42.0)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn console_interest_is_logs_only() {
        let c = ConsoleSink::new(Level::Info);
        assert_eq!(c.interest(), Class::Log.bit());
        assert_eq!(c.interest() & Class::Iter.bit(), 0);
    }
}
