//! Chaos sweep: Fireworks under an injected-fault storm.
//!
//! Sweeps uniform fault rates across every fault site (snapshot read
//! errors, page corruption, VM crashes, store outages, packet loss) and
//! reports, per rate, how the platform's recovery machinery holds up:
//! success rate, recovery actions taken (retries, quarantines, snapshot
//! rebuilds), circuit-breaker trips, and the latency cost of recovering.
//!
//! Invocations are driven through the concurrent invocation engine in
//! waves, so faults land on a genuinely concurrent population and the
//! engine gauges (`engine.inflight`, `engine.queue_depth`,
//! `engine.live_pss_bytes` and their peaks) appear in each rate point's
//! metrics snapshot.
//!
//! Output is a JSON document on stdout (one object per swept rate), so
//! runs under different seeds diff cleanly — the injected schedule is a
//! pure function of `(seed, rate)`. Each rate point also carries the
//! host's full metrics-registry snapshot (counters, gauges, histograms
//! from every layer) so recovery behaviour is auditable per rate.
//!
//! Usage: `experiments chaos_sweep [seed]` (default seed 42).

use super::seed_arg;
use fireworks_core::api::{Platform, PlatformError};
use fireworks_core::engine::{CompletionPolicy, Engine};
use fireworks_core::fid;
use fireworks_core::{FireworksPlatform, PlatformEnv};
use fireworks_obs::LogHistogram;
use fireworks_runtime::RuntimeKind;
use fireworks_sim::fault::FaultPlan;
use fireworks_sim::Nanos;
use fireworks_workloads::arrivals::burst;
use fireworks_workloads::faasdom::Bench;

/// Invocations per swept fault rate.
const INVOCATIONS: usize = 40;

/// Concurrent invocations admitted per engine wave.
const WAVE: usize = 8;

/// Invoker slots per wave — smaller than the wave so the admission
/// queue is exercised and `engine.queue_depth` is non-trivial.
const SLOTS: usize = 4;

/// The swept per-check fault probabilities.
const RATES: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

struct RatePoint {
    rate: f64,
    invocations: usize,
    successes: usize,
    vm_failures: usize,
    circuit_rejections: usize,
    other_failures: usize,
    injected_faults: usize,
    fault_checks: u64,
    recoveries: u64,
    quarantines: u64,
    rebuilds: u64,
    peak_inflight: usize,
    peak_queue_depth: usize,
    peak_live_pss_bytes: u64,
    mean_latency: Nanos,
    mean_recovery_latency: Nanos,
    p50_recovery_latency: Nanos,
    p99_recovery_latency: Nanos,
    schedule_fingerprint: u64,
    metrics_json: String,
    events_processed: u64,
}

fn run_rate(seed: u64, rate: f64) -> RatePoint {
    let env = PlatformEnv::with_fault_plan(FaultPlan::uniform(seed, rate));
    let mut platform = FireworksPlatform::new(env.clone());
    let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
    let args = Bench::Fact.request_params();
    platform.install(&spec).expect("install is fault-free here");

    let mut successes = 0;
    let mut vm_failures = 0;
    let mut circuit_rejections = 0;
    let mut other_failures = 0;
    let mut total_latency = Nanos::ZERO;
    let mut recovery_latency = Nanos::ZERO;
    // Recovery latencies stream into a mergeable log-bucketed sketch
    // (quantiles within 2⁻⁵ relative error) instead of collect-and-sort.
    let mut recovery_latencies = LogHistogram::new();
    let mut peak_inflight = 0;
    let mut peak_queue_depth = 0;
    let mut peak_live_pss_bytes = 0;
    let mut engine = Engine::new(
        platform,
        &env.clock,
        &env.obs,
        SLOTS,
        CompletionPolicy::Release,
    );
    let mut remaining = INVOCATIONS;
    while remaining > 0 {
        let batch = remaining.min(WAVE);
        remaining -= batch;
        let wave = burst(fid(&spec.name), &args, batch, env.clock.now());
        let report = engine.run(&wave);
        peak_inflight = peak_inflight.max(report.peak_inflight);
        peak_queue_depth = peak_queue_depth.max(report.peak_host_queue_depth);
        peak_live_pss_bytes = peak_live_pss_bytes.max(engine.peak_live_pss_bytes());
        let mut breaker_tripped = false;
        for c in report.completions {
            match c.result {
                Ok(inv) => {
                    successes += 1;
                    total_latency += inv.total();
                    let rec = env.obs.recorder();
                    let recovered = inv.total_for(rec, "recovery_backoff")
                        + inv.total_for(rec, "snapshot_rebuild");
                    recovery_latency += recovered;
                    recovery_latencies.observe(recovered.as_nanos());
                }
                Err(PlatformError::Vm(_)) => vm_failures += 1,
                Err(PlatformError::CircuitOpen { .. }) => {
                    circuit_rejections += 1;
                    breaker_tripped = true;
                }
                Err(_) => other_failures += 1,
            }
        }
        if breaker_tripped {
            // Give the breaker a chance to half-open again so the
            // sweep measures recovery, not a stuck-open circuit.
            env.clock.advance(Nanos::from_secs(11));
        }
    }

    let events_processed = engine.events_processed();
    let health = engine
        .platform_mut()
        .health(fid(&spec.name))
        .expect("installed");
    let injector = env.injector.borrow();
    RatePoint {
        rate,
        invocations: INVOCATIONS,
        successes,
        vm_failures,
        circuit_rejections,
        other_failures,
        injected_faults: injector.injected().len(),
        fault_checks: injector.checks(),
        recoveries: health.recoveries,
        quarantines: health.quarantines,
        rebuilds: health.rebuilds,
        peak_inflight,
        peak_queue_depth,
        peak_live_pss_bytes,
        mean_latency: if successes > 0 {
            Nanos::from_nanos(total_latency.as_nanos() / successes as u64)
        } else {
            Nanos::ZERO
        },
        mean_recovery_latency: if successes > 0 {
            Nanos::from_nanos(recovery_latency.as_nanos() / successes as u64)
        } else {
            Nanos::ZERO
        },
        p50_recovery_latency: Nanos::from_nanos(recovery_latencies.quantile(50.0)),
        p99_recovery_latency: Nanos::from_nanos(recovery_latencies.quantile(99.0)),
        schedule_fingerprint: injector.schedule_fingerprint(),
        metrics_json: env.obs.metrics().snapshot().to_json(),
        events_processed,
    }
}

pub const USAGE: &str = "chaos_sweep [seed]";

pub fn run(args: &[String]) -> Result<u64, String> {
    let seed = seed_arg(args, USAGE);

    let points: Vec<RatePoint> = RATES.iter().map(|&rate| run_rate(seed, rate)).collect();

    // Hand-rolled JSON (the workspace carries no serde).
    println!("{{");
    println!("  \"bench\": \"chaos_sweep\",");
    println!("  \"seed\": {seed},");
    println!("  \"invocations_per_rate\": {INVOCATIONS},");
    println!("  \"engine\": {{ \"wave\": {WAVE}, \"slots\": {SLOTS} }},");
    println!("  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        println!("    {{");
        println!("      \"rate\": {},", p.rate);
        println!("      \"invocations\": {},", p.invocations);
        println!("      \"successes\": {},", p.successes);
        println!("      \"vm_failures\": {},", p.vm_failures);
        println!("      \"circuit_rejections\": {},", p.circuit_rejections);
        println!("      \"other_failures\": {},", p.other_failures);
        println!("      \"injected_faults\": {},", p.injected_faults);
        println!("      \"fault_checks\": {},", p.fault_checks);
        println!("      \"recoveries\": {},", p.recoveries);
        println!("      \"quarantines\": {},", p.quarantines);
        println!("      \"rebuilds\": {},", p.rebuilds);
        println!("      \"peak_inflight\": {},", p.peak_inflight);
        println!("      \"peak_queue_depth\": {},", p.peak_queue_depth);
        println!("      \"peak_live_pss_bytes\": {},", p.peak_live_pss_bytes);
        println!(
            "      \"mean_latency_us\": {:.1},",
            p.mean_latency.as_nanos() as f64 / 1_000.0
        );
        println!(
            "      \"mean_recovery_latency_us\": {:.1},",
            p.mean_recovery_latency.as_nanos() as f64 / 1_000.0
        );
        println!(
            "      \"p50_recovery_latency_us\": {:.1},",
            p.p50_recovery_latency.as_nanos() as f64 / 1_000.0
        );
        println!(
            "      \"p99_recovery_latency_us\": {:.1},",
            p.p99_recovery_latency.as_nanos() as f64 / 1_000.0
        );
        println!(
            "      \"schedule_fingerprint\": \"{:016x}\",",
            p.schedule_fingerprint
        );
        println!("      \"metrics\": {}", p.metrics_json);
        println!("    }}{comma}");
    }
    println!("  ]");
    println!("}}");
    Ok(points.iter().map(|p| p.events_processed).sum())
}
