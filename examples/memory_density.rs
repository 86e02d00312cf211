//! Memory density: how many concurrent sandboxes fit on one host before
//! swapping starts — a miniature of the paper's Fig. 10.
//!
//! Fireworks clones share the snapshot copy-on-write, so each additional
//! clone only costs its private write set; plain Firecracker VMs have
//! fully private memory.
//!
//! ```sh
//! cargo run --release --example memory_density
//! ```

use fireworks::prelude::*;
use fireworks::workloads::faasdom::Bench;

const HOST_RAM: u64 = 8 << 30;

fn env() -> PlatformEnv {
    PlatformEnv::new(EnvConfig {
        ram_bytes: HOST_RAM,
        costs: CostModel::default(),
        ..EnvConfig::default()
    })
}

fn main() {
    let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
    let args = Bench::Fact.request_params();

    // Fireworks: restore clones from one shared snapshot.
    let fw_env = env();
    let mut fw = FireworksPlatform::new(fw_env.clone());
    fw.install(&spec).expect("install");
    let mut clones = Vec::new();
    while !fw_env.host_mem.is_swapping() {
        let (_, mut clone) = fw.invoke_resident(fid(&spec.name), &args).expect("clone");
        // Model continued service until swap onset, like the paper's
        // methodology (see fig10's SERVICE_AGE_OPS).
        clone.age_ops(50_000_000);
        clones.push(clone);
        if clones.len() % 16 == 0 {
            println!(
                "fireworks: {:>4} clones, host {:>6.2} GiB used, PSS/clone {:>6.1} MiB",
                clones.len(),
                fw_env.host_mem.used_bytes() as f64 / (1 << 30) as f64,
                clones.last().map(|c| c.pss_bytes()).unwrap_or(0) as f64 / (1 << 20) as f64,
            );
        }
    }
    let fireworks_count = clones.len();
    drop(clones);
    drop(fw);

    // Firecracker: every VM cold-boots with private memory.
    let fc_env = env();
    let mut fc = FirecrackerPlatform::new(fc_env.clone(), SnapshotPolicy::None);
    fc.install(&spec).expect("install");
    let mut vms = Vec::new();
    while !fc_env.host_mem.is_swapping() {
        let (_, mut vm) = fc.invoke_resident(fid(&spec.name), &args).expect("vm");
        vm.age_ops(50_000_000);
        vms.push(vm);
        if vms.len() % 16 == 0 {
            println!(
                "firecracker: {:>3} VMs, host {:>6.2} GiB used",
                vms.len(),
                fc_env.host_mem.used_bytes() as f64 / (1 << 30) as f64,
            );
        }
    }
    let firecracker_count = vms.len();
    drop(vms);

    println!();
    println!(
        "host RAM {} GiB, swap onset at 60% (vm.swappiness)",
        HOST_RAM >> 30
    );
    println!("fireworks   : {fireworks_count} microVMs before swapping");
    println!("firecracker : {firecracker_count} microVMs before swapping");
    println!(
        "consolidation: {:.0}% more sandboxes (paper: 167% more at 128 GiB scale)",
        (fireworks_count as f64 / firecracker_count as f64 - 1.0) * 100.0
    );
}
