//! Per-sandbox I/O data paths and their costs.

use std::rc::Rc;

use fireworks_sim::{Clock, CostModel, Nanos};

/// Which data path a sandbox's file I/O takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoPathKind {
    /// Host-native I/O (no sandbox) — the floor.
    HostDirect,
    /// Container: overlayfs + chroot, close to host speed (§5.2.1(2)).
    OverlayFs,
    /// MicroVM: virtio-blk emulation in the VMM.
    VirtioBlk,
    /// gVisor: seccomp trap into Sentry, file service via Gofer.
    GvisorGofer,
}

/// Charges I/O and syscall costs for one sandbox's data path.
#[derive(Debug, Clone)]
pub struct IoPath {
    kind: IoPathKind,
    costs: Rc<CostModel>,
}

impl IoPath {
    /// Creates a charger for `kind` under the given cost table.
    pub fn new(kind: IoPathKind, costs: Rc<CostModel>) -> Self {
        IoPath { kind, costs }
    }

    /// The path kind.
    pub fn kind(&self) -> IoPathKind {
        self.kind
    }

    /// Cost of one disk I/O of `kib` KiB on this path.
    fn disk_io_cost(&self, kib: u64) -> Nanos {
        let d = &self.costs.disk;
        let base = match self.kind {
            IoPathKind::HostDirect => d.host_direct,
            IoPathKind::OverlayFs => d.overlayfs,
            IoPathKind::VirtioBlk => d.virtio_blk,
            IoPathKind::GvisorGofer => d.gvisor,
        };
        let mut t = base + d.per_kib * kib;
        if self.kind == IoPathKind::GvisorGofer {
            // Every file I/O also pays the Sentry → Gofer round trip.
            t += self.costs.gvisor.gofer_io;
        }
        t
    }

    /// Charges one disk I/O and returns the cost.
    pub fn charge_disk_io(&self, clock: &Clock, kib: u64) -> Nanos {
        let t = self.disk_io_cost(kib);
        clock.advance(t);
        t
    }

    /// Charges `n` disk I/Os of `kib` each.
    pub fn charge_disk_ios(&self, clock: &Clock, n: u64, kib: u64) -> Nanos {
        let t = self.disk_io_cost(kib).saturating_mul(n);
        clock.advance(t);
        t
    }

    /// Extra cost a generic syscall pays on this path (only gVisor
    /// intercepts every syscall).
    fn syscall_cost(&self) -> Nanos {
        match self.kind {
            IoPathKind::GvisorGofer => self.costs.gvisor.syscall_intercept,
            _ => Nanos::ZERO,
        }
    }

    /// Charges `n` generic syscalls.
    pub fn charge_syscalls(&self, clock: &Clock, n: u64) -> Nanos {
        let t = self.syscall_cost().saturating_mul(n);
        clock.advance(t);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(kind: IoPathKind) -> IoPath {
        IoPath::new(kind, Rc::new(CostModel::default()))
    }

    #[test]
    fn disk_path_ordering_matches_paper() {
        // §5.2.1(2): containers (overlayfs) beat microVMs (virtio), and
        // gVisor is slowest.
        let host = path(IoPathKind::HostDirect).disk_io_cost(10);
        let overlay = path(IoPathKind::OverlayFs).disk_io_cost(10);
        let virtio = path(IoPathKind::VirtioBlk).disk_io_cost(10);
        let gvisor = path(IoPathKind::GvisorGofer).disk_io_cost(10);
        assert!(host < overlay);
        assert!(overlay < virtio);
        assert!(virtio < gvisor);
        // gVisor I/O is several times the microVM cost.
        assert!(gvisor.as_nanos() > 3 * virtio.as_nanos());
    }

    #[test]
    fn only_gvisor_pays_syscall_interception() {
        assert_eq!(path(IoPathKind::OverlayFs).syscall_cost(), Nanos::ZERO);
        assert_eq!(path(IoPathKind::VirtioBlk).syscall_cost(), Nanos::ZERO);
        assert!(path(IoPathKind::GvisorGofer).syscall_cost() > Nanos::ZERO);
    }

    #[test]
    fn charges_advance_the_clock() {
        let clock = Clock::new();
        let p = IoPath::new(IoPathKind::VirtioBlk, Rc::new(CostModel::default()));
        let t = p.charge_disk_ios(&clock, 100, 10);
        assert_eq!(clock.now(), t);
        assert_eq!(t, p.disk_io_cost(10) * 100);
    }
}
