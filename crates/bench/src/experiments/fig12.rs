//! Fig. 12: factor analysis of memory — per-microVM PSS with 10
//! concurrent microVMs running the same benchmark, for plain Firecracker,
//! +OS snapshot, and +post-JIT (= Fireworks).
//!
//! The 10-VM population is built by the concurrent invocation engine: a
//! burst of 10 simultaneous requests admitted in retain mode, so all ten
//! sandboxes genuinely coexist (and share copy-on-write pages) when PSS
//! is sampled from their in-flight tokens.

use fireworks_baselines::{FirecrackerPlatform, SnapshotPolicy};
use fireworks_core::engine::{run_concurrent, EngineConfig};
use fireworks_core::env::EnvConfig;
use fireworks_core::fid;
use fireworks_core::{ConcurrentPlatform, FireworksPlatform, InFlightToken, PlatformEnv};
use fireworks_lang::Value;
use fireworks_runtime::RuntimeKind;
use fireworks_workloads::arrivals::burst;
use fireworks_workloads::faasdom::Bench;

const VMS: usize = 10;

fn mib(b: u64) -> f64 {
    b as f64 / (1 << 20) as f64
}

/// Boots `VMS` concurrent sandboxes via one engine burst and returns the
/// mean PSS across the retained (still-live) population.
fn mean_pss<P, F>(
    env: &EnvConfig,
    make: F,
    spec: &fireworks_core::api::FunctionSpec,
    args: &Value,
) -> u64
where
    P: ConcurrentPlatform,
    F: FnOnce(PlatformEnv) -> P,
{
    let env = PlatformEnv::new(env.clone());
    let mut platform = make(env.clone());
    platform.install(spec).expect("install");
    let wave = burst(fid(&spec.name), args, VMS, env.clock.now());
    let report = run_concurrent(
        &mut platform,
        &env.clock,
        &env.obs,
        &EngineConfig::new(VMS).retain_completed(),
        &wave,
    );
    assert_eq!(report.peak_inflight, VMS, "all {VMS} microVMs must coexist");
    for c in &report.completions {
        assert!(c.result.is_ok(), "factor analysis is fault-free");
    }
    report
        .retained
        .iter()
        .map(InFlightToken::pss_bytes)
        .sum::<u64>()
        / VMS as u64
}

/// Mean PSS per microVM, in bytes, of one benchmark variant under the
/// three configurations.
pub struct Row {
    pub name: String,
    pub base: u64,
    pub os: u64,
    pub jit: u64,
}

impl Row {
    /// Reduction of +OS snapshot vs baseline, percent.
    pub fn os_pct(&self) -> f64 {
        (1.0 - self.os as f64 / self.base as f64) * 100.0
    }

    /// Additional reduction of +post-JIT vs +OS snapshot, percent.
    pub fn jit_pct(&self) -> f64 {
        (1.0 - self.jit as f64 / self.os as f64) * 100.0
    }
}

pub fn measure(env: &EnvConfig, runtime: RuntimeKind, bench: Bench) -> Row {
    let spec = bench.spec(runtime);
    let args = bench.request_params();
    let fc = |policy| move |host| FirecrackerPlatform::new(host, policy);
    Row {
        // Baseline: 10 cold-booted Firecracker VMs, fully private.
        base: mean_pss(env, fc(SnapshotPolicy::None), &spec, &args),
        // +OS snapshot: 10 VMs restored from the pre-execution image.
        os: mean_pss(env, fc(SnapshotPolicy::OsSnapshot), &spec, &args),
        // +post-JIT: 10 Fireworks clones.
        jit: mean_pss(env, FireworksPlatform::new, &spec, &args),
        name: spec.name,
    }
}

fn print(rows: &[Row]) {
    println!("=== Fig.12: Memory impact of Fireworks optimizations ===");
    println!("(PSS per microVM with {VMS} concurrent microVMs, light request)\n");
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>7} {:>7}",
        "benchmark", "baseline MiB", "+OS snap MiB", "+post-JIT MiB", "os %", "jit %"
    );
    for r in rows {
        println!(
            "{:<30} {:>14.1} {:>14.1} {:>14.1} {:>6.0}% {:>6.0}%",
            r.name,
            mib(r.base),
            mib(r.os),
            mib(r.jit),
            r.os_pct(),
            r.jit_pct(),
        );
    }
    println!();
    println!("(os % = reduction of +OS snapshot vs baseline;");
    println!(" jit % = additional reduction of +post-JIT vs +OS snapshot)");
    println!("paper: OS snapshot improves memory utilization by up to 73%;");
    println!("       post-JIT reduces Node.js memory up to a further 74% (V8's lazy");
    println!("       execution-state allocation lands in the shared snapshot), but");
    println!("       shows no significant improvement for Python (Numba/MCJIT");
    println!("       duplicates JITted code per module).");
}

pub fn run(_args: &[String]) -> Result<u64, String> {
    print(&super::variants(|runtime, bench| {
        measure(&EnvConfig::default(), runtime, bench)
    }));
    Ok(0)
}
