//! The wall-clock ledger (`BENCH_*.json` at the repo root, one per PR
//! that moves a hot path) stays machine-readable and speaks the
//! benchmark's vocabulary: every file parses, and wherever it says
//! `"workload": W` or `"metric": M`, or lists measurements under a
//! `"metrics"` object, `W` and the metric names are ones `BENCHMARK.json`
//! declares.

use fireworks_obs::json::{self, Value};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn parse(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `name`s of the objects listed under `key` of `BENCHMARK.json`.
fn declared(benchmark: &Value, key: &str) -> Vec<String> {
    let listed = benchmark.get(key).and_then(Value::as_array).expect(key);
    let name = |entry: &Value| {
        entry
            .get("name")
            .and_then(Value::as_str)
            .expect("name")
            .to_string()
    };
    listed.iter().map(name).collect()
}

/// Walks `value`, checking every `"workload"` and `"metric"` string and
/// every key of a `"metrics"` object against the declared names.
fn check(value: &Value, at: &str, workloads: &[String], metrics: &[String]) {
    match value {
        Value::Object(fields) => {
            for (key, field) in fields {
                let at = format!("{at}.{key}");
                if let ("workload", Some(name)) = (key.as_str(), field.as_str()) {
                    assert!(
                        workloads.iter().any(|w| w == name),
                        "{at}: unknown workload {name}"
                    );
                }
                if let ("metric", Some(name)) = (key.as_str(), field.as_str()) {
                    assert!(
                        metrics.iter().any(|m| m == name),
                        "{at}: unknown metric {name}"
                    );
                }
                if let ("metrics", Value::Object(named)) = (key.as_str(), field) {
                    for (name, _) in named {
                        assert!(
                            metrics.iter().any(|m| m == name),
                            "{at}: unknown metric {name}"
                        );
                    }
                }
                check(field, &at, workloads, metrics);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                check(item, &format!("{at}[{i}]"), workloads, metrics);
            }
        }
        _ => {}
    }
}

#[test]
fn bench_ledgers_parse_and_name_only_declared_workloads_and_metrics() {
    let benchmark = parse(&root().join("BENCHMARK.json"));
    let workloads = declared(&benchmark, "workloads");
    let mut metrics = declared(&benchmark, "end_to_end");
    metrics.extend(declared(&benchmark, "per_layer"));

    let mut ledgers = 0;
    for entry in std::fs::read_dir(root()).expect("repo root") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let ledger = parse(&path);
            assert!(ledger.is_object(), "{name}: a ledger is one JSON object");
            check(&ledger, name, &workloads, &metrics);
            ledgers += 1;
        }
    }
    assert!(ledgers > 0, "no BENCH_*.json at the repo root");
}
