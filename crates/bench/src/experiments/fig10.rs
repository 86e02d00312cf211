//! Fig. 10: memory usage vs. number of concurrent microVMs, Fireworks vs
//! Firecracker, until the host starts swapping (`vm.swappiness = 60`).
//!
//! The paper runs a 128 GiB host to 565 (Fireworks) vs 337 (Firecracker)
//! microVMs — 167% more sandboxes. We run a scaled-down host (see
//! DESIGN.md), which preserves the ratio: both per-VM footprints scale
//! identically. Populations are built by the concurrent invocation
//! engine in retain mode: each wave of invocations genuinely coexists,
//! and every completed clone stays resident (and keeps serving, via
//! `age_ops`) while later waves restore against the live population.

use crate::density_until_swap;
use fireworks_baselines::{FirecrackerPlatform, SnapshotPolicy};
use fireworks_core::env::EnvConfig;
use fireworks_core::{FireworksPlatform, PlatformEnv};
use fireworks_sim::CostModel;

const HOST_RAM: u64 = 16 << 30;

/// Extra guest ops each microVM retires as it keeps serving the benchmark
/// until swap onset (the paper runs every VM continuously). At the Node
/// profile's GC-churn rate this dirties ~2 MiB per million ops.
const SERVICE_AGE_OPS: u64 = 50_000_000;

/// Concurrent invocations admitted per engine wave.
const WAVE: usize = 8;

fn env() -> PlatformEnv {
    PlatformEnv::new(EnvConfig {
        ram_bytes: HOST_RAM,
        swappiness: 60,
        costs: CostModel::default(),
        ..EnvConfig::default()
    })
}

pub fn run(_args: &[String]) -> Result<u64, String> {
    println!("=== Fig.10: Memory usage vs concurrent microVMs (faas-fact, Node.js) ===");
    println!(
        "host: {} GiB RAM, vm.swappiness=60 → swap onset at {:.1} GiB\n",
        HOST_RAM >> 30,
        (HOST_RAM as f64 * 0.6) / (1 << 30) as f64
    );

    println!(
        "{:<8} {:>16} {:>16}",
        "microVMs", "fireworks (GiB)", "firecracker (GiB)"
    );

    // The host-memory series, one sample per aged clone.
    let fw_series = density_until_swap(&env(), FireworksPlatform::new, WAVE, usize::MAX, |c| {
        c.age_ops(SERVICE_AGE_OPS)
    });
    let fc_series = density_until_swap(
        &env(),
        |e| FirecrackerPlatform::new(e, SnapshotPolicy::None),
        WAVE,
        usize::MAX,
        |vm| vm.age_ops(SERVICE_AGE_OPS),
    );
    let fw_max = fw_series.len();
    let fc_max = fc_series.len();

    let gib = |b: u64| b as f64 / (1 << 30) as f64;
    let step = (fw_max / 12).max(1);
    let mut i = step;
    while i <= fw_max {
        let fw_used = fw_series[i - 1];
        let fc_used = fc_series.get(i - 1).copied();
        match fc_used {
            Some(b) => println!("{:<8} {:>16.2} {:>16.2}", i, gib(fw_used), gib(b)),
            None => println!("{:<8} {:>16.2} {:>16}", i, gib(fw_used), "swapping"),
        }
        i += step;
    }

    println!();
    println!("fireworks   : {fw_max} microVMs before swapping");
    println!("firecracker : {fc_max} microVMs before swapping");
    println!(
        "consolidation: {:.0}% more sandboxes   (paper: 565 vs 337 = 167%... i.e. ~1.67x)",
        (fw_max as f64 / fc_max as f64) * 100.0 - 100.0
    );
    println!(
        "per-VM memory at the limit: fireworks {:.0} MiB vs firecracker {:.0} MiB",
        gib(*fw_series.last().expect("nonempty")) * 1024.0 / fw_max as f64,
        gib(*fc_series.last().expect("nonempty")) * 1024.0 / fc_max as f64,
    );
    Ok(0)
}
