//! Golden-file tests: exporter output is asserted byte-for-byte.
//!
//! The scenario below is pure virtual time, so its exports must never
//! drift between runs or hosts. To regenerate the goldens after an
//! intentional format change, run with `BLESS=1`:
//! `BLESS=1 cargo test -p fireworks-obs --test golden_exports`.

use fireworks_obs::{cat, export, json, Obs, Phase};
use fireworks_sim::{Clock, Nanos};

const GOLDEN_JSONL: &str = include_str!("golden/invocation.jsonl");
const GOLDEN_CHROME: &str = include_str!("golden/invocation.chrome.json");
const GOLDEN_METRICS: &str = include_str!("golden/metrics.json");

/// A miniature invocation timeline touching every event kind: nested
/// spans with phases and attributes, an instant fault event, and all
/// three metric types.
fn scenario() -> Obs {
    let clock = Clock::new();
    let obs = Obs::new(clock.clone());
    let rec = obs.recorder();

    let invoke = rec.start("invoke", cat::INVOKE);
    rec.attr(invoke, "function", "fact");

    let restore = rec.start_phase("snapshot_restore", cat::RESTORE, Phase::Startup);
    rec.scope("page_verify", cat::RESTORE, || {
        clock.advance(Nanos::from_micros(320));
    });
    rec.instant("fault:snapshot_read", cat::FAULT);
    rec.scope("map_pages", cat::RESTORE, || {
        clock.advance(Nanos::from_micros(180));
    });
    rec.attr(restore, "pages", 11_264u64);
    rec.end(restore);

    rec.scope_phase("reap_prefetch", cat::PREFETCH, Phase::Exec, || {
        clock.advance(Nanos::from_micros(250));
    });
    rec.scope_phase("exec", cat::EXEC, Phase::Exec, || {
        clock.advance(Nanos::from_millis(2));
    });
    rec.end(invoke);

    let m = obs.metrics();
    m.inc("core.cache.hits", &[]);
    m.add("microvm.restore.pages_verified", &[], 11_264);
    m.inc("core.recovery.restore_retries", &[("function", "fact")]);
    m.gauge_set(
        "guestmem.clone.pss_bytes",
        &[("function", "fact")],
        9_437_184,
    );
    m.observe("core.invoke.latency_ns", &[], 2_750_000);
    obs
}

fn check(name: &str, golden_path: &str, golden: &str, actual: &str) {
    if std::env::var_os("BLESS").is_some() {
        let path = format!("{}/tests/{golden_path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    assert_eq!(
        actual, golden,
        "{name} drifted from tests/{golden_path}; if intentional, regenerate with BLESS=1"
    );
}

#[test]
fn jsonl_export_matches_golden_bytes() {
    let obs = scenario();
    let out = export::jsonl(obs.recorder());
    for line in out.lines() {
        json::validate(line).expect("every JSONL line is valid JSON");
    }
    check(
        "JSONL export",
        "golden/invocation.jsonl",
        GOLDEN_JSONL,
        &out,
    );
}

#[test]
fn chrome_trace_export_matches_golden_bytes() {
    let obs = scenario();
    let out = export::chrome_trace(&[("fireworks", obs.recorder())]);
    json::validate(&out).expect("chrome trace is valid JSON");
    check(
        "Chrome trace export",
        "golden/invocation.chrome.json",
        GOLDEN_CHROME,
        &out,
    );
}

#[test]
fn metrics_snapshot_json_matches_golden_bytes() {
    let obs = scenario();
    let out = obs.metrics().snapshot().to_json();
    json::validate(&out).expect("metrics JSON is valid");
    check("metrics JSON", "golden/metrics.json", GOLDEN_METRICS, &out);
}

#[test]
fn scenario_is_reproducible() {
    let a = scenario();
    let b = scenario();
    assert_eq!(export::jsonl(a.recorder()), export::jsonl(b.recorder()));
    assert_eq!(
        a.metrics().snapshot().to_json(),
        b.metrics().snapshot().to_json()
    );
}
