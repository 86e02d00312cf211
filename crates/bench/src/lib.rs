//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure (see
//! DESIGN.md's experiment index); this library holds the common sweep and
//! formatting code. All latencies are virtual time, so every run prints
//! identical numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod scale;

use fireworks_baselines::{FirecrackerPlatform, GvisorPlatform, OpenWhiskPlatform, SnapshotPolicy};
use fireworks_core::api::{Invocation, InvokeRequest, Platform, StartMode};
use fireworks_core::env::PlatformEnv;
use fireworks_core::{fid, FireworksPlatform};
use fireworks_lang::Value;
use fireworks_runtime::RuntimeKind;
use fireworks_sim::stats::geomean;
use fireworks_sim::Nanos;
use fireworks_workloads::faasdom::Bench;

/// One bar of a latency figure: a platform/start-mode label with the
/// three-way breakdown.
#[derive(Debug, Clone)]
pub struct LatencyBar {
    /// Bar label, e.g. `"openwhisk (c)"`.
    pub label: String,
    /// Start-up time.
    pub startup: Nanos,
    /// Execution time.
    pub exec: Nanos,
    /// Everything else.
    pub other: Nanos,
}

impl LatencyBar {
    /// Builds a bar from an invocation.
    pub fn from_invocation(label: impl Into<String>, inv: &Invocation) -> Self {
        LatencyBar {
            label: label.into(),
            startup: inv.breakdown.startup,
            exec: inv.breakdown.exec,
            other: inv.breakdown.other,
        }
    }

    /// End-to-end latency.
    pub fn total(&self) -> Nanos {
        self.startup + self.exec + self.other
    }
}

/// Nearest-rank percentile (`p` in 0–100) of an ascending-sorted sample.
/// The sweeps print this one: `sim::stats::percentile` interpolates
/// between ranks, which would move their golden bytes.
pub fn nearest_rank(sorted: &[Nanos], p: f64) -> Nanos {
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx]
}

/// Prints a latency table with a ratio column against the last row
/// (Fireworks, by convention).
pub fn print_latency_table(title: &str, bars: &[LatencyBar]) {
    println!("{title}");
    println!(
        "  {:<24} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "platform", "startup", "exec", "others", "total", "vs fw"
    );
    let reference = bars.last().map(|b| b.total()).unwrap_or(Nanos::ZERO);
    for bar in bars {
        println!(
            "  {:<24} {:>12} {:>12} {:>12} {:>12} {:>9.1}x",
            bar.label,
            format!("{}", bar.startup),
            format!("{}", bar.exec),
            format!("{}", bar.other),
            format!("{}", bar.total()),
            bar.total().ratio(reference),
        );
    }
}

/// The standard platform sweep of Figs. 6 and 7: OpenWhisk, gVisor, and
/// Firecracker each cold and warm, then Fireworks. Every platform gets a
/// pristine host so results are independent.
pub fn faasdom_bars(bench: Bench, runtime: RuntimeKind) -> Vec<LatencyBar> {
    let spec = bench.paper_spec(runtime);
    let args = bench.paper_params();
    let function = fid(&spec.name);
    let req = |mode: StartMode| InvokeRequest::new(function, args.deep_clone()).with_mode(mode);
    let mut bars = Vec::new();

    {
        let mut p = OpenWhiskPlatform::new(PlatformEnv::default_env());
        p.install(&spec).expect("install openwhisk");
        let cold = p.invoke(&req(StartMode::Cold)).expect("cold");
        bars.push(LatencyBar::from_invocation("openwhisk (c)", &cold));
        let warm = p.invoke(&req(StartMode::Warm)).expect("warm");
        bars.push(LatencyBar::from_invocation("openwhisk (w)", &warm));
    }
    {
        let mut p = GvisorPlatform::new(PlatformEnv::default_env());
        p.install(&spec).expect("install gvisor");
        let cold = p.invoke(&req(StartMode::Cold)).expect("cold");
        bars.push(LatencyBar::from_invocation("gvisor (c)", &cold));
        let warm = p.invoke(&req(StartMode::Warm)).expect("warm");
        bars.push(LatencyBar::from_invocation("gvisor (w)", &warm));
    }
    {
        let mut p = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
        p.install(&spec).expect("install firecracker");
        let cold = p.invoke(&req(StartMode::Cold)).expect("cold");
        bars.push(LatencyBar::from_invocation("firecracker (c)", &cold));
        let warm = p.invoke(&req(StartMode::Warm)).expect("warm");
        bars.push(LatencyBar::from_invocation("firecracker (w)", &warm));
    }
    {
        let mut p = FireworksPlatform::new(PlatformEnv::default_env());
        p.install(&spec).expect("install fireworks");
        let inv = p.invoke(&req(StartMode::Auto)).expect("invoke");
        bars.push(LatencyBar::from_invocation("fireworks (both)", &inv));
    }
    bars
}

/// Folds per-benchmark bars into the geometric-mean panel of Fig. 6(e) /
/// Fig. 7(e): for each bar label, the geomean of its totals across
/// benchmarks (components are geomeaned separately for display).
pub fn geomean_bars(per_bench: &[Vec<LatencyBar>]) -> Vec<LatencyBar> {
    let n_labels = per_bench.first().map(Vec::len).unwrap_or(0);
    (0..n_labels)
        .map(|i| {
            let startup: Vec<Nanos> = per_bench.iter().map(|bars| bars[i].startup).collect();
            let exec: Vec<Nanos> = per_bench.iter().map(|bars| bars[i].exec).collect();
            let other: Vec<Nanos> = per_bench.iter().map(|bars| bars[i].other).collect();
            LatencyBar {
                label: per_bench[0][i].label.clone(),
                startup: geomean(&startup),
                exec: geomean(&exec),
                other: geomean(&other),
            }
        })
        .collect()
}

/// Runs the full Fig. 6 (Node) or Fig. 7 (Python) sweep and prints all
/// five panels.
pub fn print_faasdom_figure(figure: &str, runtime: RuntimeKind) {
    println!(
        "=== {figure}: FaaSdom latency, {} runtime ===",
        runtime.name()
    );
    println!("(c = cold start, w = warm start; Fireworks has no cold/warm split)\n");
    let mut per_bench = Vec::new();
    for (panel, bench) in ["(a)", "(b)", "(c)", "(d)"].iter().zip(Bench::ALL) {
        let bars = faasdom_bars(bench, runtime);
        print_latency_table(&format!("{figure}{panel} {}", bench.name()), &bars);
        println!();
        per_bench.push(bars);
    }
    let gm = geomean_bars(&per_bench);
    print_latency_table(&format!("{figure}(e) geometric mean"), &gm);
}

/// Builds the `{"n", "reps"}`-style argument maps used by several
/// binaries.
pub fn map_args(entries: &[(&str, i64)]) -> Value {
    Value::map(entries.iter().map(|(k, v)| (k.to_string(), Value::Int(*v))))
}

/// Formats a byte count as MiB with one decimal.
pub fn mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_bars_folds_componentwise() {
        let mk = |t: u64| LatencyBar {
            label: "x".into(),
            startup: Nanos::from_millis(t),
            exec: Nanos::from_millis(2 * t),
            other: Nanos::from_millis(t),
        };
        let folded = geomean_bars(&[vec![mk(1)], vec![mk(100)]]);
        assert_eq!(folded.len(), 1);
        // geomean(1, 100) = 10.
        assert_eq!(folded[0].startup.as_millis(), 10);
        assert_eq!(folded[0].exec.as_millis(), 20);
    }

    #[test]
    fn map_args_builds_int_maps() {
        let v = map_args(&[("n", 5), ("reps", 2)]);
        let Value::Map(m) = &v else { panic!("map") };
        assert_eq!(m.borrow()["n"], Value::Int(5));
        assert_eq!(m.borrow()["reps"], Value::Int(2));
    }

    #[test]
    fn latency_bar_total() {
        let bar = LatencyBar {
            label: "x".into(),
            startup: Nanos::from_millis(1),
            exec: Nanos::from_millis(2),
            other: Nanos::from_millis(3),
        };
        assert_eq!(bar.total(), Nanos::from_millis(6));
    }
}
