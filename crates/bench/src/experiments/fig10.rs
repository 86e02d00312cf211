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

use crate::{density_until_swap, Scale};
use fireworks_baselines::{FirecrackerPlatform, SnapshotPolicy};
use fireworks_core::env::EnvConfig;
use fireworks_core::{FireworksPlatform, PlatformEnv};
use fireworks_workloads::faasdom::Bench;

/// Extra guest ops each microVM retires as it keeps serving the benchmark
/// until swap onset (the paper runs every VM continuously). At the Node
/// profile's GC-churn rate this dirties ~2 MiB per million ops.
const SERVICE_AGE_OPS: u64 = 50_000_000;

/// Concurrent invocations admitted per engine wave.
const WAVE: usize = 8;

/// Host memory in use after each aged microVM joined, per platform, up to
/// and including the one that tipped the host into swapping.
pub struct Data {
    pub host_ram: u64,
    pub fireworks: Vec<u64>,
    pub firecracker: Vec<u64>,
}

impl Data {
    /// Fireworks microVMs per Firecracker microVM at swap onset.
    pub fn consolidation(&self) -> f64 {
        self.fireworks.len() as f64 / self.firecracker.len() as f64
    }

    /// Host MiB per microVM of a full `series`.
    pub fn per_vm_mib(series: &[u64]) -> f64 {
        gib(*series.last().expect("nonempty")) * 1024.0 / series.len() as f64
    }
}

fn gib(b: u64) -> f64 {
    b as f64 / (1 << 30) as f64
}

/// Fills a `scale.density_ram` host (`vm.swappiness = 60`, costs and fault
/// plan of `env`) once per platform.
pub fn measure(env: &EnvConfig, scale: Scale) -> Data {
    let host = || {
        PlatformEnv::new(EnvConfig {
            ram_bytes: scale.density_ram,
            ..env.clone()
        })
    };
    let args = scale.params(Bench::Fact);
    Data {
        host_ram: scale.density_ram,
        fireworks: density_until_swap(
            &host(),
            FireworksPlatform::new,
            &args,
            WAVE,
            usize::MAX,
            |c| c.age_ops(SERVICE_AGE_OPS),
        ),
        firecracker: density_until_swap(
            &host(),
            |e| FirecrackerPlatform::new(e, SnapshotPolicy::None),
            &args,
            WAVE,
            usize::MAX,
            |vm| vm.age_ops(SERVICE_AGE_OPS),
        ),
    }
}

fn print(data: &Data) {
    println!("=== Fig.10: Memory usage vs concurrent microVMs (faas-fact, Node.js) ===");
    println!(
        "host: {} GiB RAM, vm.swappiness=60 → swap onset at {:.1} GiB\n",
        data.host_ram >> 30,
        (data.host_ram as f64 * 0.6) / (1 << 30) as f64
    );

    println!(
        "{:<8} {:>16} {:>16}",
        "microVMs", "fireworks (GiB)", "firecracker (GiB)"
    );

    let (fw_series, fc_series) = (&data.fireworks, &data.firecracker);
    let fw_max = fw_series.len();
    let fc_max = fc_series.len();

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
        data.consolidation() * 100.0 - 100.0
    );
    println!(
        "per-VM memory at the limit: fireworks {:.0} MiB vs firecracker {:.0} MiB",
        Data::per_vm_mib(fw_series),
        Data::per_vm_mib(fc_series),
    );
}

pub fn run(_args: &[String]) -> Result<u64, String> {
    print(&measure(&EnvConfig::default(), Scale::PAPER));
    Ok(0)
}
