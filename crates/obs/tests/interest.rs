//! Which hot-path telemetry each sink turns on. Installing sinks changes
//! process-global state, so this binary holds a single test.

use std::sync::Arc;

use unicon_obs::{self as obs, Class, Level};

#[test]
fn only_trace_consumers_turn_on_per_step_telemetry() {
    obs::reset();
    assert!(!obs::live(Class::Metric) && !obs::live(Class::Iter));

    // The console wants logs only.
    obs::install(Arc::new(obs::ConsoleSink::new(Level::Info)));
    assert!(obs::live(Class::Log));
    assert!(!obs::live(Class::Metric) && !obs::live(Class::Iter));

    // A registry (what serve always installs) wants metrics, never the
    // per-step records.
    obs::install(Arc::new(obs::Registry::new()));
    assert!(obs::live(Class::Metric));
    assert!(!obs::live(Class::Iter));

    // A collector is a trace consumer: it turns Iter on for its thread.
    let (live_inside, _) = obs::collect(|| obs::live(Class::Iter));
    assert!(live_inside);
    assert!(!obs::live(Class::Iter));

    // A JSONL trace wants everything.
    let path = std::env::temp_dir().join(format!("unicon-interest-{}.jsonl", std::process::id()));
    obs::install(Arc::new(
        obs::JsonlSink::create(&path).expect("create trace file"),
    ));
    assert!(obs::live(Class::Iter));

    obs::reset();
    std::fs::remove_file(&path).ok();
}
