//! Ablations of Fireworks design choices discussed in the paper's §6:
//!
//! 1. **De-optimization**: invoke with argument types that differ from the
//!    JIT-warmed types (the paper's worst case) and compare against
//!    type-stable invocations and the no-JIT baseline.
//! 2. **Snapshot-cache disk budget**: bound the snapshot store and measure
//!    the latency cliff when an evicted function must be re-installed.
//! 3. **Security refresh**: periodically regenerate snapshots (the ASLR
//!    mitigation) and measure the maintenance cost.

use fireworks_baselines::{FirecrackerPlatform, SnapshotPolicy};
use fireworks_core::api::{FunctionSpec, InvokeRequest, Platform, StartMode};
use fireworks_core::audit::SecurityPolicy;
use fireworks_core::env::EnvConfig;
use fireworks_core::fid;
use fireworks_core::{FireworksPlatform, PlatformConfig, PlatformEnv};
use fireworks_lang::Value;
use fireworks_runtime::RuntimeKind;
use fireworks_sim::Nanos;
use fireworks_workloads::faasdom::Bench;

/// A function whose hot loop is type-specialised on ints during install
/// warm-up; string elements force guard failures and deopt at invoke.
const POLY_SRC: &str = r#"
    fn combine(a, b) { return a + b; }
    fn main(params) {
        let items = params["items"];
        let acc = items[0];
        for (let i = 1; i < len(items); i = i + 1) {
            acc = combine(acc, items[i]);
        }
        return acc;
    }
"#;

fn int_items(n: i64) -> Value {
    Value::map([(
        "items".to_string(),
        Value::array((0..n).map(Value::Int).collect()),
    )])
}

fn str_items(n: i64) -> Value {
    Value::map([(
        "items".to_string(),
        Value::array((0..n).map(|i| Value::str(format!("{i}-"))).collect()),
    )])
}

/// The §6 worst case next to its references: the same function invoked
/// with the int items it was JIT-warmed on (`stable`), with string items
/// (`hostile`), and a Firecracker cold start serving the string items.
pub struct Deopt {
    pub stable_exec: Nanos,
    pub stable_deopts: u64,
    pub hostile_exec: Nanos,
    pub hostile_deopts: u64,
    pub hostile_total: Nanos,
    /// The hostile invocation returned the concatenation of its items.
    pub hostile_correct: bool,
    pub baseline_total: Nanos,
}

pub fn measure_deopt(env: &EnvConfig) -> Deopt {
    let spec = FunctionSpec::new("poly", POLY_SRC, RuntimeKind::NodeLike, int_items(2_000));
    let mut fw = FireworksPlatform::new(PlatformEnv::new(env.clone()));
    fw.install(&spec).expect("install");

    let stable = fw
        .invoke(&InvokeRequest::new(fid("poly"), int_items(2_000)))
        .expect("stable");
    let hostile = fw
        .invoke(&InvokeRequest::new(fid("poly"), str_items(2_000)))
        .expect("hostile");

    let mut base = FirecrackerPlatform::new(PlatformEnv::new(env.clone()), SnapshotPolicy::None);
    base.install(&spec).expect("install");
    let baseline = base
        .invoke(&InvokeRequest::new(fid("poly"), str_items(2_000)).with_mode(StartMode::Cold))
        .expect("cold");

    let joined: String = (0..2_000).map(|i| format!("{i}-")).collect();
    Deopt {
        stable_exec: stable.breakdown.exec,
        stable_deopts: stable.stats.deopts,
        hostile_exec: hostile.breakdown.exec,
        hostile_deopts: hostile.stats.deopts,
        hostile_total: hostile.total(),
        hostile_correct: hostile.value.eq_value(&Value::str(joined)),
        baseline_total: baseline.total(),
    }
}

fn deopt_ablation() {
    println!("--- Ablation 1: de-optimization worst case (paper §6) ---\n");
    let d = measure_deopt(&EnvConfig::default());
    println!(
        "  type-stable invoke  : exec {:>10}  deopts {}",
        format!("{}", d.stable_exec),
        d.stable_deopts
    );
    println!(
        "  type-change invoke  : exec {:>10}  deopts {}  (guards fail, code deopts)",
        format!("{}", d.hostile_exec),
        d.hostile_deopts
    );
    println!(
        "  firecracker cold    : total {:>10}  (for scale)",
        format!("{}", d.baseline_total)
    );
    println!(
        "  end-to-end, hostile : fireworks {} vs cold baseline {} → still {:.1}x faster",
        d.hostile_total,
        d.baseline_total,
        d.baseline_total.ratio(d.hostile_total)
    );
    println!();
}

fn cache_ablation() {
    println!("--- Ablation 2: snapshot-cache disk budget (paper §6) ---\n");
    println!(
        "  {:<16} {:>10} {:>14} {:>16}",
        "budget", "evictions", "hit startup", "miss startup"
    );
    let spec_a = Bench::Fact.spec(RuntimeKind::NodeLike);
    let mut spec_b = Bench::Fact.spec(RuntimeKind::NodeLike);
    spec_b.name = "fact-second".to_string();
    let args = Bench::Fact.request_params();

    for budget in [u64::MAX, 400 << 20, 150 << 20] {
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder().cache_budget(budget).build(),
        );
        p.install(&spec_a).expect("install a");
        p.install(&spec_b).expect("install b");
        // Invoking A after installing B: a hit under a big budget, a miss
        // (rebuild) when B's install evicted A.
        let inv = p
            .invoke(&InvokeRequest::new(fid(&spec_a.name), args.deep_clone()))
            .expect("invoke");
        let rebuild = inv.total_for(p.env().obs.recorder(), "snapshot_rebuild");
        let label = if budget == u64::MAX {
            "unbounded".to_string()
        } else {
            format!("{} MiB", budget >> 20)
        };
        println!(
            "  {:<16} {:>10} {:>14} {:>16}",
            label,
            p.cache_evictions(),
            format!("{}", inv.breakdown.startup - rebuild),
            if rebuild > Nanos::ZERO {
                format!("{rebuild}")
            } else {
                "-".to_string()
            },
        );
    }
    println!("\n  An evicted snapshot costs a full re-install (seconds) on the next");
    println!("  invocation — the paper's argument for an LRU policy that keeps");
    println!("  frequently accessed functions' snapshots.\n");
}

fn refresh_ablation() {
    println!("--- Ablation 3: periodic snapshot refresh for ASLR (paper §6) ---\n");
    println!(
        "  {:<22} {:>10} {:>14} {:>16}",
        "refresh period", "refreshes", "invoke latency", "maintenance time"
    );
    let spec = Bench::NetLatency.spec(RuntimeKind::NodeLike);
    for period in [0u64, 8, 2] {
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder()
                .security(SecurityPolicy {
                    refresh_after_invocations: period,
                })
                .build(),
        );
        p.install(&spec).expect("install");
        let mut total = Nanos::ZERO;
        for _ in 0..16 {
            let inv = p
                .invoke(&InvokeRequest::new(fid(&spec.name), Value::map([])))
                .expect("invoke");
            total += inv.total();
        }
        let audit = p.audit(fid(&spec.name)).expect("audited");
        println!(
            "  {:<22} {:>10} {:>14} {:>16}",
            if period == 0 {
                "never".to_string()
            } else {
                format!("every {period} invokes")
            },
            audit.refreshes,
            format!("{}", total / 16),
            format!("{}", audit.refresh_time),
        );
    }
    println!("\n  Refreshes run off the invocation path: per-invocation latency is");
    println!("  unchanged, and the host pays the install pipeline per refresh.");
}

fn reap_ablation() {
    use fireworks_core::PagingPolicy;
    println!("--- Ablation 4: cold-storage paging + REAP prefetching (paper §7) ---\n");
    println!(
        "  {:<26} {:>14} {:>14}",
        "paging policy", "1st invocation", "2nd invocation"
    );
    let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
    let args = Bench::Fact.request_params();
    for (label, policy) in [
        ("warm page cache", PagingPolicy::WarmPageCache),
        ("cold storage", PagingPolicy::ColdStorage { reap: false }),
        (
            "cold storage + REAP",
            PagingPolicy::ColdStorage { reap: true },
        ),
    ] {
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder().paging(policy).build(),
        );
        p.install(&spec).expect("install");
        let req = InvokeRequest::new(fid(&spec.name), args.deep_clone());
        let first = p.invoke(&req).expect("1st");
        let second = p.invoke(&req).expect("2nd");
        println!(
            "  {:<26} {:>14} {:>14}",
            label,
            format!("{}", first.total()),
            format!("{}", second.total()),
        );
    }
    println!("\n  REAP's record-then-prefetch turns per-page random major faults into");
    println!("  one sequential read of the working set, recovering most of the");
    println!("  warm-page-cache latency for snapshots served from cold storage.");
}

pub fn run(_args: &[String]) -> Result<u64, String> {
    println!("=== Ablations of Fireworks design choices (paper §6) ===\n");
    deopt_ablation();
    cache_ablation();
    refresh_ablation();
    println!();
    reap_ablation();
    Ok(0)
}
