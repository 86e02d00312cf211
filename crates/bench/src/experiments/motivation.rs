//! The paper's §2.2 motivation, measured: warm pools are ineffective for
//! unpopular functions.
//!
//! Shahrad et al. (the paper's citation 48) report that only 18.6% of functions are
//! called more than once a minute — so for the other 81.4%, a keep-alive
//! warm pool either misses (cold start) or wastes memory holding idle
//! sandboxes. Fireworks sidesteps the trade-off: every start restores the
//! shared snapshot, so there is nothing to keep alive.
//!
//! This binary replays a Zipf-popularity invocation trace against
//! OpenWhisk (60 s keep-alive, the provider practice) and Fireworks on
//! identical timelines, reporting hit rates, start-up latency by
//! popularity class, and idle warm-pool memory.

use fireworks_baselines::OpenWhiskPlatform;
use fireworks_core::api::{InvokeRequest, Platform};
use fireworks_core::fid;
use fireworks_core::{FireworksPlatform, PlatformConfig, PlatformEnv};
use fireworks_runtime::RuntimeKind;
use fireworks_sim::Nanos;
use fireworks_workloads::faasdom::Bench;
use fireworks_workloads::trace::{generate, TraceConfig};

const FUNCTIONS: usize = 24;
const EVENTS: usize = 400;
const TRACE_MINUTES: u64 = 30;

fn trace_config() -> TraceConfig {
    TraceConfig {
        functions: FUNCTIONS,
        horizon: Nanos::from_secs(TRACE_MINUTES * 60),
        total_events: EVENTS,
        alpha: 1.0,
        seed: 7,
    }
}

struct ClassStats {
    invocations: u64,
    startup: Nanos,
}

fn class_of(func: usize) -> usize {
    // Popularity classes: head (top 4), middle, tail.
    match func {
        0..=3 => 0,
        4..=11 => 1,
        _ => 2,
    }
}

const CLASS_NAMES: [&str; 3] = ["head (top 4)", "middle (5-12)", "tail (13-24)"];

pub fn run(_args: &[String]) -> Result<u64, String> {
    println!("=== §2.2 motivation: warm pools vs snapshot starts on a Zipf trace ===");
    println!(
        "{FUNCTIONS} functions, {EVENTS} invocations over {TRACE_MINUTES} virtual minutes, 60 s keep-alive\n"
    );
    let trace = generate(&trace_config());
    let bench = Bench::NetLatency;

    // --- OpenWhisk with a 60 s keep-alive.
    let ow_env = PlatformEnv::default_env();
    let mut ow = OpenWhiskPlatform::with_config(
        ow_env.clone(),
        PlatformConfig::builder()
            .keep_alive(Some(Nanos::from_secs(60)))
            .build(),
    );
    let mut ow_specs = Vec::new();
    for i in 0..FUNCTIONS {
        let mut spec = bench.spec(RuntimeKind::NodeLike);
        spec.name = format!("fn-{i}");
        ow.install(&spec).expect("install");
        ow_specs.push(spec);
    }
    let mut ow_stats: Vec<ClassStats> = (0..3)
        .map(|_| ClassStats {
            invocations: 0,
            startup: Nanos::ZERO,
        })
        .collect();
    let mut idle_samples: Vec<u64> = Vec::new();
    for event in &trace {
        if ow_env.clock.now() < event.at {
            ow_env.clock.advance(event.at - ow_env.clock.now());
        }
        let inv = ow
            .invoke(&InvokeRequest::new(
                fid(&ow_specs[event.function].name),
                bench.request_params(),
            ))
            .expect("invoke");
        let c = class_of(event.function);
        ow_stats[c].invocations += 1;
        ow_stats[c].startup += inv.breakdown.startup;
        idle_samples.push(ow.idle_warm_bytes());
    }
    let (cold, warm) = ow.start_counts();
    let avg_idle = idle_samples.iter().sum::<u64>() / idle_samples.len() as u64;

    // --- Fireworks on the identical trace.
    let fw_env = PlatformEnv::default_env();
    let mut fw = FireworksPlatform::new(fw_env.clone());
    let mut fw_specs = Vec::new();
    for i in 0..FUNCTIONS {
        let mut spec = bench.spec(RuntimeKind::NodeLike);
        spec.name = format!("fn-{i}");
        fw.install(&spec).expect("install");
        fw_specs.push(spec);
    }
    let mut fw_stats: Vec<ClassStats> = (0..3)
        .map(|_| ClassStats {
            invocations: 0,
            startup: Nanos::ZERO,
        })
        .collect();
    for event in &trace {
        if fw_env.clock.now() < event.at {
            fw_env.clock.advance(event.at - fw_env.clock.now());
        }
        let inv = fw
            .invoke(&InvokeRequest::new(
                fid(&fw_specs[event.function].name),
                bench.request_params(),
            ))
            .expect("invoke");
        let c = class_of(event.function);
        fw_stats[c].invocations += 1;
        fw_stats[c].startup += inv.breakdown.startup;
    }

    println!(
        "{:<16} {:>6} {:>18} {:>18} {:>9}",
        "popularity", "events", "ow avg startup", "fw avg startup", "speedup"
    );
    for c in 0..3 {
        let ow_avg = ow_stats[c].startup / ow_stats[c].invocations.max(1);
        let fw_avg = fw_stats[c].startup / fw_stats[c].invocations.max(1);
        println!(
            "{:<16} {:>6} {:>18} {:>18} {:>8.1}x",
            CLASS_NAMES[c],
            ow_stats[c].invocations,
            format!("{ow_avg}"),
            format!("{fw_avg}"),
            ow_avg.ratio(fw_avg),
        );
    }
    println!();
    println!(
        "openwhisk: {cold} cold / {warm} warm starts ({:.0}% warm hit rate)",
        warm as f64 / (cold + warm) as f64 * 100.0
    );
    println!(
        "openwhisk: {:.0} MiB average idle warm-pool memory held",
        avg_idle as f64 / (1 << 20) as f64
    );
    println!("fireworks: every start is a snapshot restore; zero idle sandboxes");
    println!();
    println!("Warm pools only help the popular head; the unpopular tail pays cold");
    println!("starts anyway *and* the host pays idle memory — the paper's argument");
    println!("for snapshot-based starts (§2.2).");
    Ok(0)
}
