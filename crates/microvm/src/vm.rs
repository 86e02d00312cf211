//! One microVM: a guest + VMM state and metadata.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use fireworks_guestmem::SnapshotFile;
use fireworks_runtime::{Guest, GuestImage, Layout, RuntimeSnapshot};
use fireworks_sim::Nanos;

/// Guest memory reserved for the kernel and guest userspace after boot.
pub const OS_IMAGE_BYTES: u64 = 72 << 20;

/// MicroVM resource configuration. The default matches the paper's §5.1
/// setup: 512 MiB of guest memory.
#[derive(Debug, Clone, Copy)]
pub struct MicroVmConfig {
    /// Guest memory size in bytes.
    pub mem_bytes: u64,
}

impl Default for MicroVmConfig {
    fn default() -> Self {
        MicroVmConfig {
            mem_bytes: Layout::GUEST_MEM_BYTES,
        }
    }
}

/// Lifecycle state of a microVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// VMM configured, guest not booted.
    Created,
    /// Guest OS booted (or snapshot restored) and executing.
    Running,
    /// Paused in memory (the Firecracker warm-start pool state).
    Paused,
}

/// A microVM instance: a [`Guest`] (guest memory, runtime and their
/// accounting — reached through `Deref`) behind a VMM.
#[derive(Debug)]
pub struct MicroVm {
    pub(crate) id: u64,
    pub(crate) config: MicroVmConfig,
    pub(crate) state: VmState,
    pub(crate) guest: Guest,
    pub(crate) mmds: BTreeMap<String, String>,
    /// Total virtual time this VM spent in boot stages (for breakdowns).
    pub(crate) boot_time: Nanos,
}

impl Deref for MicroVm {
    type Target = Guest;

    fn deref(&self) -> &Guest {
        &self.guest
    }
}

impl DerefMut for MicroVm {
    fn deref_mut(&mut self) -> &mut Guest {
        &mut self.guest
    }
}

impl MicroVm {
    /// The VM's host-assigned id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> VmState {
        self.state
    }

    /// The VM's resource configuration.
    pub fn config(&self) -> MicroVmConfig {
        self.config
    }

    /// Virtual time spent booting this VM (zero for restored VMs).
    pub fn boot_time(&self) -> Nanos {
        self.boot_time
    }

    /// Sets an MMDS key (host side, e.g. the instance id before resume).
    pub fn mmds_set(&mut self, key: &str, value: &str) {
        self.mmds.insert(key.to_string(), value.to_string());
    }

    /// Reads an MMDS key (guest side). The manager charges the lookup.
    pub fn mmds_get_raw(&self, key: &str) -> Option<&str> {
        self.mmds.get(key).map(String::as_str)
    }
}

/// A complete microVM snapshot: a [`GuestImage`] (memory file, runtime
/// state and region extents — reached through `Deref`) plus the VM
/// configuration (Firecracker's `snapshot.mem` + `snapshot.json`).
#[derive(Debug)]
pub struct VmFullSnapshot {
    pub(crate) image: GuestImage,
    pub(crate) config: MicroVmConfig,
}

impl Deref for VmFullSnapshot {
    type Target = GuestImage;

    fn deref(&self) -> &GuestImage {
        &self.image
    }
}

impl VmFullSnapshot {
    /// The snapshot's host-agnostic metadata — everything except guest
    /// memory. A peer host that has reassembled the memory file from
    /// content-addressed chunks combines it with this template via
    /// [`VmFullSnapshot::from_template`] to obtain a restorable snapshot
    /// without ever running the source function.
    pub fn template(&self) -> SnapshotTemplate {
        SnapshotTemplate {
            runtime: self.image.runtime().cloned(),
            layout: self.image.layout(),
            config: self.config,
        }
    }

    /// Recombines a reassembled memory file with a snapshot's metadata
    /// template (the delta-fetch receive side).
    pub fn from_template(mem: SnapshotFile, template: &SnapshotTemplate) -> Self {
        VmFullSnapshot {
            image: GuestImage::new(mem, template.runtime.clone(), template.layout),
            config: template.config,
        }
    }
}

/// The host-agnostic parts of a [`VmFullSnapshot`]: runtime state handle,
/// region extents and VM configuration — but no guest memory. Cheap to
/// clone and safe to share across simulated hosts (frame ids are
/// host-local; none appear here), which makes it the piece a cluster mesh
/// publishes alongside a content-addressed manifest.
#[derive(Debug, Clone)]
pub struct SnapshotTemplate {
    runtime: Option<Rc<RuntimeSnapshot>>,
    layout: Layout,
    config: MicroVmConfig,
}
