//! Calibrated infrastructure cost table.
//!
//! Every fixed latency charged by the infrastructure crates (microVM boot
//! stages, container creation, NAT setup, snapshot I/O, message-bus hops,
//! per-I/O sandbox path costs) comes from one [`CostModel`] value, so an
//! experiment can be re-run under a different calibration by swapping a
//! single struct.
//!
//! The defaults are calibrated against latencies reported or implied by the
//! Fireworks paper (EuroSys '22, §5) and by the systems it builds on
//! (Firecracker NSDI '20, REAP ASPLOS '21): e.g. a full microVM cold boot
//! plus guest-OS init lands near 1.1 s, a post-JIT snapshot of a ~170 MiB
//! working set writes in ~0.4 s, and a snapshot restore costs ~10 ms before
//! the first CoW fault. Absolute values are *not* the reproduction target —
//! the cross-platform ratios are.

use crate::time::Nanos;

/// Costs of the Firecracker-style microVM lifecycle.
#[derive(Debug, Clone)]
pub struct MicroVmCosts {
    /// Spawning the VMM process and configuring it over its API socket.
    pub vmm_setup: Nanos,
    /// Guest kernel boot (decompress, init, mount rootfs).
    pub kernel_boot: Nanos,
    /// Guest userspace init (agent start, clock sync, device probe).
    pub guest_init: Nanos,
    /// Fixed cost of serializing VM device state into a snapshot.
    pub snapshot_create_base: Nanos,
    /// Cost per 4 KiB guest page written to the snapshot file.
    pub snapshot_write_per_page: Nanos,
    /// Fixed cost of restoring a snapshot (device state, memory mapping
    /// setup). Guest pages are mapped lazily and charged per CoW fault.
    pub snapshot_restore_base: Nanos,
    /// Cost per resident page for establishing the shared mapping.
    pub snapshot_map_per_page: Nanos,
    /// Resuming a paused (in-memory) microVM — the Firecracker warm start.
    pub resume_paused: Nanos,
    /// Pausing a running microVM.
    pub pause: Nanos,
    /// One guest query against the microVM metadata service (MMDS).
    pub mmds_lookup: Nanos,
}

impl Default for MicroVmCosts {
    fn default() -> Self {
        MicroVmCosts {
            vmm_setup: Nanos::from_millis(110),
            kernel_boot: Nanos::from_millis(740),
            guest_init: Nanos::from_millis(260),
            snapshot_create_base: Nanos::from_millis(24),
            snapshot_write_per_page: Nanos::from_micros(9),
            snapshot_restore_base: Nanos::from_millis(8),
            snapshot_map_per_page: Nanos::from_nanos(55),
            resume_paused: Nanos::from_millis(28),
            pause: Nanos::from_millis(6),
            mmds_lookup: Nanos::from_micros(180),
        }
    }
}

/// Costs of the OpenWhisk-style container platform path.
#[derive(Debug, Clone)]
pub struct ContainerCosts {
    /// Controller work per request: authentication, entitlement checks.
    pub controller_auth: Nanos,
    /// Scheduling and message-bus hop from controller to an invoker.
    pub controller_dispatch: Nanos,
    /// Creating a fresh container (image setup, cgroups, overlayfs mounts).
    pub container_create: Nanos,
    /// Starting the created container's init process.
    pub container_start: Nanos,
    /// Re-activating a kept-warm container (unpause + route).
    pub warm_attach: Nanos,
    /// The `/init` + `/run` proxy round-trip inside an action container.
    pub action_proxy: Nanos,
}

impl Default for ContainerCosts {
    fn default() -> Self {
        ContainerCosts {
            controller_auth: Nanos::from_millis(230),
            controller_dispatch: Nanos::from_millis(20),
            container_create: Nanos::from_millis(430),
            container_start: Nanos::from_millis(160),
            warm_attach: Nanos::from_millis(14),
            action_proxy: Nanos::from_millis(8),
        }
    }
}

/// Costs of the gVisor-style secure container path.
#[derive(Debug, Clone)]
pub struct GvisorCosts {
    /// Booting the Sentry (user-space kernel) for a new sandbox.
    pub sentry_boot: Nanos,
    /// Starting the Gofer file proxy.
    pub gofer_start: Nanos,
    /// Extra per-syscall interception cost (seccomp trap + Sentry handling).
    pub syscall_intercept: Nanos,
    /// Extra per-file-I/O cost for the Sentry → Gofer → host round trip.
    pub gofer_io: Nanos,
    /// Re-activating a kept-warm gVisor sandbox.
    pub warm_attach: Nanos,
    /// Fixed cost of writing a process checkpoint.
    pub checkpoint_base: Nanos,
    /// Cost per 4 KiB page written to the checkpoint image.
    pub checkpoint_write_per_page: Nanos,
    /// Fixed cost of restoring a checkpoint (Sentry state rebuild —
    /// heavier than a microVM restore).
    pub restore_base: Nanos,
    /// Cost per resident page for establishing the restored mapping.
    pub restore_map_per_page: Nanos,
}

impl Default for GvisorCosts {
    fn default() -> Self {
        GvisorCosts {
            sentry_boot: Nanos::from_millis(640),
            gofer_start: Nanos::from_millis(120),
            syscall_intercept: Nanos::from_micros(2),
            gofer_io: Nanos::from_micros(95),
            warm_attach: Nanos::from_millis(46),
            checkpoint_base: Nanos::from_millis(30),
            checkpoint_write_per_page: Nanos::from_micros(9),
            restore_base: Nanos::from_millis(45),
            restore_map_per_page: Nanos::from_nanos(60),
        }
    }
}

/// Network plumbing costs.
#[derive(Debug, Clone)]
pub struct NetCosts {
    /// Creating a network namespace.
    pub netns_create: Nanos,
    /// Creating a tap device inside a namespace.
    pub tap_create: Nanos,
    /// Installing one NAT (DNAT+SNAT) rule pair.
    pub nat_rule_install: Nanos,
    /// Per-packet NAT translation cost.
    pub nat_translate: Nanos,
    /// Base one-way latency for a packet on the host bridge.
    pub packet_base: Nanos,
    /// Additional cost per KiB of payload.
    pub packet_per_kib: Nanos,
}

impl Default for NetCosts {
    fn default() -> Self {
        NetCosts {
            netns_create: Nanos::from_micros(900),
            tap_create: Nanos::from_micros(600),
            nat_rule_install: Nanos::from_micros(350),
            nat_translate: Nanos::from_micros(3),
            packet_base: Nanos::from_micros(55),
            packet_per_kib: Nanos::from_micros(2),
        }
    }
}

/// Message-bus (Kafka-style) costs for parameter passing.
#[derive(Debug, Clone)]
pub struct BusCosts {
    /// Producing one record (append + ack).
    pub produce: Nanos,
    /// Consuming one record (fetch round trip).
    pub consume: Nanos,
    /// Additional cost per KiB of record payload.
    pub per_kib: Nanos,
    /// Creating a topic.
    pub topic_create: Nanos,
}

impl Default for BusCosts {
    fn default() -> Self {
        BusCosts {
            produce: Nanos::from_micros(650),
            consume: Nanos::from_micros(800),
            per_kib: Nanos::from_micros(4),
            topic_create: Nanos::from_millis(2),
        }
    }
}

/// Per-operation disk I/O costs for each sandbox data path.
///
/// The FaaSdom disk benchmark's ordering (§5.2.1(2)) is determined by these:
/// containers on overlayfs beat microVMs on virtio, and gVisor's
/// Sentry+Gofer path is slowest.
#[derive(Debug, Clone)]
pub struct DiskCosts {
    /// Host-native file I/O (the floor).
    pub host_direct: Nanos,
    /// Container I/O through overlayfs + chroot.
    pub overlayfs: Nanos,
    /// MicroVM I/O through the virtio-blk emulation path.
    pub virtio_blk: Nanos,
    /// gVisor I/O through Sentry + Gofer.
    pub gvisor: Nanos,
    /// Additional cost per KiB transferred (same for all paths; the path
    /// constant dominates at FaaSdom's 10 KiB request size).
    pub per_kib: Nanos,
}

impl Default for DiskCosts {
    fn default() -> Self {
        DiskCosts {
            host_direct: Nanos::from_micros(14),
            overlayfs: Nanos::from_micros(22),
            virtio_blk: Nanos::from_micros(68),
            gvisor: Nanos::from_micros(240),
            per_kib: Nanos::from_micros(3),
        }
    }
}

/// Host memory-system costs.
#[derive(Debug, Clone)]
pub struct MemCosts {
    /// Copying one 4 KiB page on a CoW fault.
    pub cow_fault: Nanos,
    /// Mapping a zero page on first touch.
    pub zero_fill: Nanos,
    /// One random major fault on a snapshot-file page that is not in the
    /// page cache (seek + 4 KiB read + fault handling).
    pub major_fault: Nanos,
    /// Per-page cost of one bulk sequential read of a recorded working
    /// set (amortised).
    pub sequential_read_per_page: Nanos,
    /// Fixed cost of issuing that prefetch (open, iovec setup).
    pub prefetch_base: Nanos,
}

impl Default for MemCosts {
    fn default() -> Self {
        MemCosts {
            cow_fault: Nanos::from_nanos(1_100),
            zero_fill: Nanos::from_nanos(600),
            major_fault: Nanos::from_micros(11),
            sequential_read_per_page: Nanos::from_nanos(900),
            prefetch_base: Nanos::from_micros(250),
        }
    }
}

/// The complete infrastructure cost table.
///
/// # Examples
///
/// ```
/// use fireworks_sim::CostModel;
///
/// let costs = CostModel::default();
/// // Full microVM cold boot (VMM + kernel + guest init) is on the order
/// // of a second, as in the paper's Firecracker cold-start results.
/// let boot = costs.microvm.vmm_setup
///     + costs.microvm.kernel_boot
///     + costs.microvm.guest_init;
/// assert!(boot.as_millis() > 800 && boot.as_millis() < 2_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// MicroVM lifecycle costs.
    pub microvm: MicroVmCosts,
    /// Container platform costs.
    pub container: ContainerCosts,
    /// gVisor sandbox costs.
    pub gvisor: GvisorCosts,
    /// Network plumbing costs.
    pub net: NetCosts,
    /// Message bus costs.
    pub bus: BusCosts,
    /// Disk I/O path costs.
    pub disk: DiskCosts,
    /// Host memory costs.
    pub mem: MemCosts,
}

impl CostModel {
    /// Total virtual time for a full microVM cold boot (no snapshot).
    pub fn microvm_cold_boot(&self) -> Nanos {
        self.microvm.vmm_setup + self.microvm.kernel_boot + self.microvm.guest_init
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_respect_paper_orderings() {
        let c = CostModel::default();
        // Disk path: overlayfs < virtio < gvisor (§5.2.1(2)).
        assert!(c.disk.host_direct < c.disk.overlayfs);
        assert!(c.disk.overlayfs < c.disk.virtio_blk);
        assert!(c.disk.virtio_blk < c.disk.gvisor);
        // Snapshot restore is far cheaper than a cold boot.
        assert!(c.microvm.snapshot_restore_base.as_nanos() * 20 < c.microvm_cold_boot().as_nanos());
        // Warm attach paths are far cheaper than creation paths.
        assert!(c.container.warm_attach < c.container.container_create);
        assert!(c.gvisor.warm_attach < c.gvisor.sentry_boot);
    }

    #[test]
    fn snapshot_write_time_matches_section_5_1() {
        // §5.1: writing a post-JIT snapshot takes 0.36–0.47 s. A typical
        // function working set is ~170 MiB (Shahrad et al.), i.e. ~43.5 k
        // pages.
        let c = CostModel::default();
        let pages = 170 * 1024 / 4;
        let t = c.microvm.snapshot_create_base + c.microvm.snapshot_write_per_page * (pages as u64);
        let secs = t.as_secs_f64();
        assert!((0.30..0.55).contains(&secs), "snapshot write {secs}s");
    }
}
