//! Load sweep: tail latency under increasing request rate, measured with
//! real concurrent invocations.
//!
//! Start-up latency is not only a per-request cost — on a consolidated
//! host with limited invoker slots it occupies capacity, so slow starts
//! inflate queueing delay and the p99 long before the host saturates.
//! Identical open-loop Poisson schedules (from `workloads::arrivals`)
//! are driven through the concurrent invocation engine for OpenWhisk and
//! Fireworks: every request is a genuine invocation — cold starts happen
//! when a function's warm pool is empty (including simultaneous arrivals
//! racing for the same pool), snapshot restores contend for the cache,
//! and in-flight sandboxes hold guest memory until their completion
//! event.
//!
//! A second phase reruns the paper's density claim (§5.4) under the same
//! engine: at equal host RAM, Fireworks sustains more concurrent clones
//! than Firecracker+OS-snapshot because its post-JIT snapshot keeps the
//! JIT code and warmed heap in shared copy-on-write pages, while the OS
//! snapshot's clones re-JIT privately.
//!
//! Usage: `experiments load_sweep [seed]` (default 42). Output is a pure
//! function of the seed: two same-seed runs are byte-identical.

use super::seed_arg;
use crate::{density_until_swap, nearest_rank};
use fireworks_baselines::{FirecrackerPlatform, OpenWhiskPlatform, SnapshotPolicy};
use fireworks_core::engine::{run_concurrent, EngineCompletion, EngineConfig};
use fireworks_core::env::EnvConfig;
use fireworks_core::fid;
use fireworks_core::{ConcurrentPlatform, FireworksPlatform, PlatformEnv};
use fireworks_lang::Value;
use fireworks_runtime::RuntimeKind;
use fireworks_sim::{CostModel, Nanos};
use fireworks_workloads::arrivals::poisson_schedule;
use fireworks_workloads::faasdom::Bench;

/// Invoker slots for the latency sweep.
const SLOTS: usize = 8;
/// Requests per swept rate.
const REQUESTS: usize = 240;
/// Functions in the request mix.
const FUNCTIONS: usize = 4;
/// Swept mean inter-arrival times (ms), light to heavy load.
const RATES_MS: [u64; 5] = [200, 100, 50, 25, 12];

/// Host RAM for the density phase; swap onset at 60% (vm.swappiness=60).
const DENSITY_RAM: u64 = 6 << 30;
/// Clones admitted per engine wave in the density phase.
const DENSITY_WAVE: usize = 8;
/// Safety cap on density waves.
const DENSITY_MAX_WAVES: usize = 200;

fn mix() -> Vec<(String, Value)> {
    let bench = Bench::Fact;
    (0..FUNCTIONS)
        .map(|i| (format!("fact-{i}"), bench.request_params()))
        .collect()
}

/// Installs the mix and drives one rate point's schedule through the
/// engine; returns `(sorted sojourns, peak_inflight, peak_queue_depth,
/// events_processed)`.
fn run_rate<P, F>(make: F, seed: u64, mean: Nanos) -> (Vec<Nanos>, usize, usize, u64)
where
    P: ConcurrentPlatform,
    F: FnOnce(PlatformEnv) -> P,
{
    let env = PlatformEnv::default_env();
    let mut platform = make(env.clone());
    let spec_src = Bench::Fact.spec(RuntimeKind::NodeLike);
    let mix = mix();
    for (name, _) in &mix {
        let mut spec = spec_src.clone();
        spec.name = name.clone();
        platform.install(&spec).expect("install");
    }
    let interned: Vec<(fireworks_core::FunctionId, Value)> =
        mix.iter().map(|(n, a)| (fid(n), a.deep_clone())).collect();
    let schedule = poisson_schedule(seed, REQUESTS, mean, &interned);
    let report = run_concurrent(
        &mut platform,
        &env.clock,
        &env.obs,
        &EngineConfig::new(SLOTS),
        &schedule,
    );
    for c in &report.completions {
        assert!(c.result.is_ok(), "fault-free sweep");
    }
    let mut sojourns: Vec<Nanos> = report
        .completions
        .iter()
        .map(EngineCompletion::sojourn)
        .collect();
    sojourns.sort_unstable();
    (
        sojourns,
        report.peak_inflight,
        report.peak_queue_depth,
        report.events_processed,
    )
}

fn density_env() -> PlatformEnv {
    PlatformEnv::new(EnvConfig {
        ram_bytes: DENSITY_RAM,
        swappiness: 60,
        costs: CostModel::default(),
        ..EnvConfig::default()
    })
}

/// Clones sustained before swap onset on the density host: the
/// population [`density_until_swap`] reached, less the clone that tipped
/// the host over.
fn density<P: ConcurrentPlatform>(make: impl FnOnce(PlatformEnv) -> P) -> usize {
    let env = density_env();
    let args = Bench::Fact.paper_params();
    let series = density_until_swap(&env, make, &args, DENSITY_WAVE, DENSITY_MAX_WAVES, |_| {});
    let tipped = series
        .last()
        .is_some_and(|&used| used > env.host_mem.swap_threshold_bytes());
    series.len() - usize::from(tipped)
}

pub const USAGE: &str = "load_sweep [seed]";

pub fn run(args: &[String]) -> Result<u64, String> {
    let seed = seed_arg(args, USAGE);

    println!("=== Load sweep: sojourn time vs offered load ({SLOTS} invoker slots) ===");
    println!(
        "{REQUESTS} concurrent invocations per rate across {FUNCTIONS} functions, seed {seed}\n"
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "load", "ow p50", "ow p99", "fw p50", "fw p99", "p99 ratio", "ow queue", "fw queue"
    );

    let mut events = 0u64;
    for mean_ms in RATES_MS {
        let mean = Nanos::from_millis(mean_ms);
        // Same seed → identical arrival schedules for both platforms.
        let (ow_done, _ow_peak, ow_queue, ow_events) =
            run_rate(OpenWhiskPlatform::new, seed.wrapping_add(mean_ms), mean);
        let (fw_done, fw_peak, fw_queue, fw_events) =
            run_rate(FireworksPlatform::new, seed.wrapping_add(mean_ms), mean);
        assert!(fw_peak >= 1);
        events += ow_events + fw_events;
        println!(
            "{:>9}ms {:>12} {:>12} {:>12} {:>12} {:>11.1}x {:>9} {:>9}",
            mean_ms,
            format!("{}", nearest_rank(&ow_done, 50.0)),
            format!("{}", nearest_rank(&ow_done, 99.0)),
            format!("{}", nearest_rank(&fw_done, 50.0)),
            format!("{}", nearest_rank(&fw_done, 99.0)),
            nearest_rank(&ow_done, 99.0).ratio(nearest_rank(&fw_done, 99.0)),
            ow_queue,
            fw_queue,
        );
    }
    println!();
    println!("simulator events processed: {events}");
    println!("(load = mean inter-arrival time; queue = peak admission-queue depth)");
    println!("Cold starts poison the tail even at low load — and under pressure the");
    println!("slots they occupy push the whole queue out. Snapshot starts keep the");
    println!("p99 within a small factor of the p50.\n");

    println!(
        "=== Density: concurrent clones at equal host RAM ({} GiB, swap onset 60%) ===",
        DENSITY_RAM >> 30
    );
    let fw_count = density(FireworksPlatform::new);
    let fc_count = density(|env| FirecrackerPlatform::new(env, SnapshotPolicy::OsSnapshot));
    println!("fireworks            : {fw_count} concurrent clones before swapping");
    println!("firecracker+snapshot : {fc_count} concurrent clones before swapping");
    assert!(
        fw_count > fc_count,
        "paper-shape violated: fireworks {fw_count} vs firecracker+snapshot {fc_count}"
    );
    println!(
        "consolidation        : {:.0}% more sandboxes (post-JIT snapshot keeps JIT code",
        (fw_count as f64 / fc_count as f64) * 100.0 - 100.0
    );
    println!("and warmed heap in shared CoW pages; OS-snapshot clones re-JIT privately)");
    Ok(events)
}
