//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each row of [`experiments::ALL`] reproduces one table, figure or sweep
//! and the `experiments` binary runs them by name; [`claims::CLAIMS`] is
//! what the reproduction asserts about them; the rest of this library is
//! the sweep and formatting code they share. All latencies are virtual
//! time, so every run prints identical numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod claims;
pub mod experiments;
pub mod scale;

use fireworks_baselines::{FirecrackerPlatform, GvisorPlatform, OpenWhiskPlatform, SnapshotPolicy};
use fireworks_core::api::{FunctionSpec, Invocation, InvokeRequest, Platform, StartMode};
use fireworks_core::engine::{run_concurrent, EngineConfig};
use fireworks_core::env::{EnvConfig, PlatformEnv};
use fireworks_core::{fid, ConcurrentPlatform, FireworksPlatform, FunctionId};
use fireworks_lang::Value;
use fireworks_runtime::RuntimeKind;
use fireworks_sim::stats::geomean;
use fireworks_sim::Nanos;
use fireworks_workloads::arrivals::burst;
use fireworks_workloads::faasdom::Bench;

/// How much work the measured requests carry. The figure rows run
/// [`Scale::PAPER`]; `tests/paper_claims.rs` evaluates the same claims
/// through the same `measure` functions at [`Scale::LIGHT`], which a
/// debug build finishes in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `reps` of the measured `faas-fact` request.
    pub fact_reps: i64,
    /// RAM of the host the Fig. 10 density sweep fills.
    pub density_ram: u64,
}

impl Scale {
    /// What the figure rows run and the goldens pin.
    pub const PAPER: Scale = Scale {
        fact_reps: 1_200,
        density_ram: 16 << 30,
    };

    /// Still enough calls to cross the Node profile's tier-up thresholds
    /// mid-run, as a real cold start does.
    pub const LIGHT: Scale = Scale {
        fact_reps: 600,
        density_ram: 4 << 30,
    };

    /// [`Bench::paper_params`] with this scale's `reps`.
    pub fn params(self, bench: Bench) -> Value {
        let params = bench.paper_params();
        if let (Bench::Fact, Value::Map(map)) = (bench, &params) {
            map.borrow_mut()
                .insert("reps".to_string(), Value::Int(self.fact_reps));
        }
        params
    }
}

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
    /// Guest functions compiled while serving the request.
    pub compiles: u64,
}

impl LatencyBar {
    /// Builds a bar from an invocation.
    pub fn from_invocation(label: impl Into<String>, inv: &Invocation) -> Self {
        LatencyBar {
            label: label.into(),
            startup: inv.breakdown.startup,
            exec: inv.breakdown.exec,
            other: inv.breakdown.other,
            compiles: inv.stats.compiles,
        }
    }

    /// End-to-end latency.
    pub fn total(&self) -> Nanos {
        self.startup + self.exec + self.other
    }
}

/// Nearest-rank percentile (`p` in 0–100) of an ascending-sorted sample:
/// always one of the samples, never an interpolation between two.
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
/// pristine host built from `env` so results are independent.
pub fn faasdom_bars(
    env: &EnvConfig,
    scale: Scale,
    bench: Bench,
    runtime: RuntimeKind,
) -> Vec<LatencyBar> {
    let host = || PlatformEnv::new(env.clone());
    let spec = bench.paper_spec(runtime);
    let args = scale.params(bench);
    let function = fid(&spec.name);
    let req = |mode: StartMode| InvokeRequest::new(function, args.deep_clone()).with_mode(mode);
    let mut bars = Vec::new();

    {
        let mut p = OpenWhiskPlatform::new(host());
        p.install(&spec).expect("install openwhisk");
        let cold = p.invoke(&req(StartMode::Cold)).expect("cold");
        bars.push(LatencyBar::from_invocation("openwhisk (c)", &cold));
        let warm = p.invoke(&req(StartMode::Warm)).expect("warm");
        bars.push(LatencyBar::from_invocation("openwhisk (w)", &warm));
    }
    {
        let mut p = GvisorPlatform::new(host());
        p.install(&spec).expect("install gvisor");
        let cold = p.invoke(&req(StartMode::Cold)).expect("cold");
        bars.push(LatencyBar::from_invocation("gvisor (c)", &cold));
        let warm = p.invoke(&req(StartMode::Warm)).expect("warm");
        bars.push(LatencyBar::from_invocation("gvisor (w)", &warm));
    }
    {
        let mut p = FirecrackerPlatform::new(host(), SnapshotPolicy::None);
        p.install(&spec).expect("install firecracker");
        let cold = p.invoke(&req(StartMode::Cold)).expect("cold");
        bars.push(LatencyBar::from_invocation("firecracker (c)", &cold));
        let warm = p.invoke(&req(StartMode::Warm)).expect("warm");
        bars.push(LatencyBar::from_invocation("firecracker (w)", &warm));
    }
    {
        let mut p = FireworksPlatform::new(host());
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
                compiles: 0,
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
        let bars = faasdom_bars(&EnvConfig::default(), Scale::PAPER, bench, runtime);
        print_latency_table(&format!("{figure}{panel} {}", bench.name()), &bars);
        println!();
        per_bench.push(bars);
    }
    let gm = geomean_bars(&per_bench);
    print_latency_table(&format!("{figure}(e) geometric mean"), &gm);
}

/// The §5.4 density experiment on one host: grows a resident population
/// of `faas-fact` (Node.js) clones serving `args` through the concurrent
/// engine in retain mode, `wave` at a time, until `env`'s host starts
/// swapping or `max_waves` were admitted. Each wave genuinely coexists; every
/// completed clone is handed to `age` (it keeps serving) and then stays
/// resident while later waves restore against the live population.
/// Returns the host's used bytes after each clone joined — the length is
/// the population, and the last sample is past the swap threshold iff
/// swapping ended the run.
pub fn density_until_swap<P: ConcurrentPlatform>(
    env: &PlatformEnv,
    make: impl FnOnce(PlatformEnv) -> P,
    args: &Value,
    wave: usize,
    max_waves: usize,
    age: impl Fn(&mut P::InFlight),
) -> Vec<u64> {
    let mut platform = make(env.clone());
    let spec = Bench::Fact.paper_spec(RuntimeKind::NodeLike);
    platform.install(&spec).expect("install");
    let mut resident: Vec<P::InFlight> = Vec::new();
    let mut series = Vec::new();
    for _ in 0..max_waves {
        if env.host_mem.is_swapping() {
            break;
        }
        let requests = burst(fid(&spec.name), args, wave, env.clock.now());
        let report = run_concurrent(
            &mut platform,
            &env.clock,
            &env.obs,
            &EngineConfig::new(wave).retain_completed(),
            &requests,
        );
        for c in &report.completions {
            assert!(c.result.is_ok(), "density waves are fault-free");
        }
        for mut token in report.retained {
            age(&mut token);
            resident.push(token);
            series.push(env.host_mem.used_bytes());
            if env.host_mem.is_swapping() {
                break;
            }
        }
    }
    series
}

/// `count` copies (`svc-0`, `svc-1`, …) of the compute-light service the
/// cluster-scale sweeps install: it installs fast, yet its snapshot
/// carries the full post-JIT runtime image, so cache pressure is real and
/// hand-offs move real bytes.
pub(crate) fn service_specs(count: usize) -> Vec<FunctionSpec> {
    const SRC: &str = "
    fn main(params) {
        let n = params[\"n\"];
        let t = 0;
        for (let i = 0; i < n; i = i + 1) { t = t + i; }
        return t;
    }";
    let args = Value::map([("n".to_string(), Value::Int(2_000))]);
    (0..count)
        .map(|i| {
            FunctionSpec::new(
                format!("svc-{i}"),
                SRC,
                RuntimeKind::NodeLike,
                args.deep_clone(),
            )
        })
        .collect()
}

/// The request mix over `specs` — every function, called with its default
/// parameters — interned as the arrival generators take it.
pub(crate) fn request_mix(specs: &[FunctionSpec]) -> Vec<(FunctionId, Value)> {
    specs
        .iter()
        .map(|s| (fid(&s.name), s.default_params.deep_clone()))
        .collect()
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
            compiles: 0,
        };
        let folded = geomean_bars(&[vec![mk(1)], vec![mk(100)]]);
        assert_eq!(folded.len(), 1);
        // geomean(1, 100) = 10.
        assert_eq!(folded[0].startup.as_millis(), 10);
        assert_eq!(folded[0].exec.as_millis(), 20);
    }

    #[test]
    fn latency_bar_total() {
        let bar = LatencyBar {
            label: "x".into(),
            startup: Nanos::from_millis(1),
            exec: Nanos::from_millis(2),
            other: Nanos::from_millis(3),
            compiles: 0,
        };
        assert_eq!(bar.total(), Nanos::from_millis(6));
    }
}
