//! The one guest (`fireworks::runtime::Guest`) inside both sandboxes: a
//! microVM and a container account their memory through the same type, so
//! what holds for one holds for the other.

use std::rc::Rc;

use fireworks::guestmem::HostMemory;
use fireworks::lang::{compile, JitConfig};
use fireworks::microvm::{MicroVmConfig, VmManager};
use fireworks::runtime::{Guest, RuntimeProfile};
use fireworks::sandbox::{ContainerKind, ContainerManager};
use fireworks::sim::{Clock, CostModel};

const SRC: &str =
    "fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }";

/// Syncing is idempotent: with nothing grown since the last sync, a second
/// one allocates nothing, copies nothing and costs no virtual time — for a
/// booted VM, a restored VM and a fresh container alike.
#[test]
fn a_second_sync_touches_nothing_in_any_sandbox() {
    let clock = Clock::new();
    let host = HostMemory::new(clock.clone(), 8 << 30);
    let costs = Rc::new(CostModel::default());
    let mut vms = VmManager::new(clock.clone(), costs.clone(), host.clone());
    let mut containers = ContainerManager::new(clock.clone(), costs, host.clone());

    let program = Rc::new(compile(SRC).expect("compiles"));
    let mut booted = vms.create(MicroVmConfig::default());
    vms.boot(&mut booted).expect("boots");
    vms.launch(
        &mut booted,
        RuntimeProfile::node(),
        program.clone(),
        JitConfig::default(),
    );
    let snapshot = vms.snapshot(&mut booted);
    let mut restored = vms.restore(&snapshot).expect("restores");
    let mut container = containers.create(
        ContainerKind::Plain,
        RuntimeProfile::node(),
        program,
        JitConfig::default(),
    );

    let sandboxes: [(&str, &mut Guest); 3] = [
        ("booted VM", &mut booted),
        ("restored VM", &mut restored),
        ("fresh container", &mut container),
    ];
    for (name, guest) in sandboxes {
        guest.sync_runtime_memory();
        let (stats, now, rss) = (host.stats(), clock.now(), guest.rss_bytes());
        guest.sync_runtime_memory();
        assert_eq!(host.stats().zero_fills, stats.zero_fills, "{name}");
        assert_eq!(host.stats().cow_faults, stats.cow_faults, "{name}");
        assert_eq!(clock.now(), now, "{name}");
        assert_eq!(guest.rss_bytes(), rss, "{name}");
    }
}
