//! Container sandboxes: plain (OpenWhisk/Docker) and secure (gVisor),
//! with gVisor-style process checkpoints (the paper's Table 1 credits
//! gVisor with snapshot-based starts, as Catalyzer does).

use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use fireworks_guestmem::HostMemory;
use fireworks_lang::{JitConfig, LangError};
use fireworks_runtime::{Guest, GuestImage, GuestRuntime, Layout, RuntimeProfile};
use fireworks_sim::{Clock, CostModel, Nanos};

use crate::iopath::{IoPath, IoPathKind};
use crate::IsolationLevel;

/// Flavour of container sandbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerKind {
    /// Plain Linux container (OpenWhisk action container).
    Plain,
    /// gVisor sandbox: container behind Sentry + Gofer.
    Gvisor,
}

impl ContainerKind {
    /// The isolation level this kind provides.
    pub fn isolation(self) -> IsolationLevel {
        match self {
            ContainerKind::Plain => IsolationLevel::Container,
            ContainerKind::Gvisor => IsolationLevel::SecureContainer,
        }
    }

    /// The I/O path this kind's file operations take.
    pub fn io_path_kind(self) -> IoPathKind {
        match self {
            ContainerKind::Plain => IoPathKind::OverlayFs,
            ContainerKind::Gvisor => IoPathKind::GvisorGofer,
        }
    }
}

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Created and running.
    Running,
    /// Kept warm in memory, detached.
    Paused,
}

/// One container sandbox: a [`Guest`] (process memory, runtime and their
/// accounting — reached through `Deref`) behind a namespace or a Sentry.
#[derive(Debug)]
pub struct Container {
    id: u64,
    kind: ContainerKind,
    state: ContainerState,
    guest: Guest,
    io: IoPath,
    create_time: Nanos,
}

impl Deref for Container {
    type Target = Guest;

    fn deref(&self) -> &Guest {
        &self.guest
    }
}

impl DerefMut for Container {
    fn deref_mut(&mut self) -> &mut Guest {
        &mut self.guest
    }
}

impl Container {
    /// The container's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The container's kind.
    pub fn kind(&self) -> ContainerKind {
        self.kind
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// Virtual time spent creating/starting this container (and its
    /// runtime).
    pub fn create_time(&self) -> Nanos {
        self.create_time
    }

    /// The I/O path charger for this sandbox.
    pub fn io(&self) -> &IoPath {
        &self.io
    }
}

/// A gVisor-style process checkpoint of a container: a [`GuestImage`]
/// (the Sentry's memory image, shared copy-on-write by restores, plus the
/// runtime state — reached through `Deref`) and the container's kind.
#[derive(Debug)]
pub struct ContainerCheckpoint {
    kind: ContainerKind,
    image: GuestImage,
}

impl Deref for ContainerCheckpoint {
    type Target = GuestImage;

    fn deref(&self) -> &GuestImage {
        &self.image
    }
}

/// Creates and manages container sandboxes, charging platform costs.
#[derive(Debug)]
pub struct ContainerManager {
    clock: Clock,
    costs: Rc<CostModel>,
    host_mem: HostMemory,
    next_id: u64,
}

impl ContainerManager {
    /// Creates a manager allocating container memory from `host_mem`.
    pub fn new(clock: Clock, costs: Rc<CostModel>, host_mem: HostMemory) -> Self {
        ContainerManager {
            clock,
            costs,
            host_mem,
            next_id: 1,
        }
    }

    /// The virtual clock operations charge against.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Creates and starts a container of `kind`, launching `profile` with
    /// `source` inside it. This is the cold-start path.
    pub fn create(
        &mut self,
        kind: ContainerKind,
        profile: RuntimeProfile,
        source: &str,
        jit: JitConfig,
    ) -> Result<Container, LangError> {
        let start = self.clock.now();
        match kind {
            ContainerKind::Plain => {
                self.clock.advance(self.costs.container.container_create);
                self.clock.advance(self.costs.container.container_start);
            }
            ContainerKind::Gvisor => {
                self.clock.advance(self.costs.container.container_create);
                self.clock.advance(self.costs.gvisor.sentry_boot);
                self.clock.advance(self.costs.gvisor.gofer_start);
            }
        }
        let runtime = GuestRuntime::launch(&self.clock, profile, source, jit)?;
        // No OS region: a container shares the host's kernel.
        let mut guest = Guest::new(&self.host_mem, Layout::GUEST_MEM_BYTES, 0);
        guest.launch(runtime);
        Ok(self.running(kind, guest, self.clock.now() - start))
    }

    /// A running container of `kind` around `guest`, under the next id.
    fn running(&mut self, kind: ContainerKind, guest: Guest, create_time: Nanos) -> Container {
        let id = self.next_id;
        self.next_id += 1;
        Container {
            id,
            kind,
            state: ContainerState::Running,
            guest,
            io: IoPath::new(kind.io_path_kind(), self.costs.clone()),
            create_time,
        }
    }

    /// Pauses a container, keeping it warm in memory.
    pub fn pause(&mut self, c: &mut Container) {
        assert_eq!(c.state, ContainerState::Running);
        c.state = ContainerState::Paused;
    }

    /// Re-attaches a kept-warm container — the warm-start path.
    pub fn warm_attach(&mut self, c: &mut Container) {
        assert_eq!(
            c.state,
            ContainerState::Paused,
            "warm attach needs a paused container"
        );
        let cost = match c.kind {
            ContainerKind::Plain => self.costs.container.warm_attach,
            ContainerKind::Gvisor => self.costs.gvisor.warm_attach,
        };
        self.clock.advance(cost);
        c.state = ContainerState::Running;
    }

    /// Writes a gVisor-style process checkpoint of a container, charging
    /// per resident page.
    pub fn checkpoint(&mut self, c: &mut Container) -> ContainerCheckpoint {
        c.sync_runtime_memory();
        self.clock.advance(self.costs.gvisor.checkpoint_base);
        self.clock
            .advance(self.costs.gvisor.checkpoint_write_per_page * c.resident_pages() as u64);
        ContainerCheckpoint {
            kind: c.kind,
            image: c.capture(),
        }
    }

    /// Restores a checkpoint into a fresh container, mapping the image
    /// copy-on-write shared (Table 1's gVisor "High (snapshot)" memory
    /// column).
    pub fn restore(&mut self, checkpoint: &ContainerCheckpoint) -> Container {
        self.clock.advance(self.costs.gvisor.restore_base);
        self.clock
            .advance(self.costs.gvisor.restore_map_per_page * checkpoint.pages() as u64);
        // The restored Sentry does not know which of its pages the image
        // already holds: its first sync rewrites every region from the
        // base and so CoW-copies the image it was mapped from.
        let mut guest = checkpoint.restore(&self.host_mem);
        guest.forget_extents();
        self.running(checkpoint.kind, guest, Nanos::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_lang::{NoopHost, Value};

    const SRC: &str =
        "fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }";

    fn manager() -> ContainerManager {
        let clock = Clock::new();
        let host = HostMemory::new(clock.clone(), 8 << 30, 60);
        ContainerManager::new(clock, Rc::new(CostModel::default()), host)
    }

    #[test]
    fn plain_cold_start_is_faster_than_gvisor() {
        let mut mgr = manager();
        let plain = mgr
            .create(
                ContainerKind::Plain,
                RuntimeProfile::node(),
                SRC,
                JitConfig::default(),
            )
            .expect("plain");
        let gvisor = mgr
            .create(
                ContainerKind::Gvisor,
                RuntimeProfile::node(),
                SRC,
                JitConfig::default(),
            )
            .expect("gvisor");
        assert!(
            plain.create_time() < gvisor.create_time(),
            "plain {} vs gvisor {}",
            plain.create_time(),
            gvisor.create_time()
        );
    }

    #[test]
    fn warm_attach_is_far_cheaper_than_create() {
        let mut mgr = manager();
        let mut c = mgr
            .create(
                ContainerKind::Plain,
                RuntimeProfile::node(),
                SRC,
                JitConfig::default(),
            )
            .expect("creates");
        mgr.pause(&mut c);
        let before = mgr.clock().now();
        mgr.warm_attach(&mut c);
        let warm = mgr.clock().now() - before;
        assert!(warm.as_nanos() * 5 < c.create_time().as_nanos());
        assert_eq!(c.state(), ContainerState::Running);
    }

    #[test]
    fn runtime_executes_inside_container() {
        let mut mgr = manager();
        let mut c = mgr
            .create(
                ContainerKind::Plain,
                RuntimeProfile::node(),
                SRC,
                JitConfig::default(),
            )
            .expect("creates");
        let clock = mgr.clock().clone();
        let r = c
            .runtime_mut()
            .expect("runtime")
            .invoke(&clock, "main", vec![Value::Int(100)], &mut NoopHost)
            .expect("runs");
        assert_eq!(r.value, Value::Int(4950));
    }

    #[test]
    fn kinds_map_to_isolation_and_io_paths() {
        assert_eq!(ContainerKind::Plain.isolation(), IsolationLevel::Container);
        assert_eq!(
            ContainerKind::Gvisor.isolation(),
            IsolationLevel::SecureContainer
        );
        assert_eq!(ContainerKind::Plain.io_path_kind(), IoPathKind::OverlayFs);
        assert_eq!(
            ContainerKind::Gvisor.io_path_kind(),
            IoPathKind::GvisorGofer
        );
    }

    #[test]
    fn checkpoint_restore_is_fast_and_shares_memory() {
        let mut mgr = manager();
        let mut c = mgr
            .create(
                ContainerKind::Gvisor,
                RuntimeProfile::node(),
                SRC,
                JitConfig::default(),
            )
            .expect("creates");
        let cold_time = c.create_time();
        let ckpt = mgr.checkpoint(&mut c);
        assert!(ckpt.pages() > 10_000);

        let before = mgr.clock().now();
        let a = mgr.restore(&ckpt);
        let restore_time = mgr.clock().now() - before;
        assert!(
            restore_time.as_nanos() * 5 < cold_time.as_nanos(),
            "restore {restore_time} vs cold {cold_time}"
        );
        // Two restores share the image copy-on-write.
        let b = mgr.restore(&ckpt);
        assert!(a.pss_bytes() <= a.rss_bytes() / 2 + 4096);
        assert_eq!(a.rss_bytes(), b.rss_bytes());
        assert_ne!(a.id(), b.id());
    }

    /// Pins today's gVisor restore model: the restored container's extents
    /// start empty, so its first sync rewrites — and CoW-copies — the whole
    /// image it was mapped from, and every later one is free. Changing
    /// that is a modelling decision (it moves the gVisor goldens), not a
    /// refactor: this test is where it shows first.
    #[test]
    fn restored_container_cow_copies_its_image_on_first_sync() {
        let mut mgr = manager();
        let mut c = mgr
            .create(
                ContainerKind::Gvisor,
                RuntimeProfile::node(),
                SRC,
                JitConfig::default(),
            )
            .expect("creates");
        let ckpt = mgr.checkpoint(&mut c);
        drop(c);
        let image_bytes = (ckpt.pages() * fireworks_guestmem::PAGE_SIZE) as u64;
        assert_eq!(ckpt.pages(), 14_593);

        let mut restored = mgr.restore(&ckpt);
        let host = mgr.host_mem.clone();
        assert_eq!(host.stats().cow_faults, 0);
        assert_eq!(restored.rss_bytes(), image_bytes);
        assert_eq!(
            restored.pss_bytes(),
            image_bytes,
            "sole mapper of the image"
        );

        let before = mgr.clock().now();
        restored.sync_runtime_memory();
        assert_eq!(host.stats().cow_faults, ckpt.pages() as u64);
        assert!(mgr.clock().now() > before, "the copies cost virtual time");
        assert_eq!(restored.rss_bytes(), image_bytes);
        assert_eq!(restored.pss_bytes(), image_bytes, "all private now");
        // The image's own frames stay pinned beside the copies.
        assert_eq!(host.stats().live_frames, 2 * ckpt.pages());

        let (faults, now) = (host.stats().cow_faults, mgr.clock().now());
        restored.sync_runtime_memory();
        assert_eq!(host.stats().cow_faults, faults);
        assert_eq!(mgr.clock().now(), now);
    }

    #[test]
    fn restored_container_executes_the_loaded_function() {
        let mut mgr = manager();
        let mut c = mgr
            .create(
                ContainerKind::Gvisor,
                RuntimeProfile::node(),
                SRC,
                JitConfig::default(),
            )
            .expect("creates");
        let ckpt = mgr.checkpoint(&mut c);
        drop(c);
        let mut restored = mgr.restore(&ckpt);
        let clock = mgr.clock().clone();
        let r = restored
            .runtime_mut()
            .expect("runtime restored")
            .invoke(&clock, "main", vec![Value::Int(10)], &mut NoopHost)
            .expect("runs");
        assert_eq!(r.value, Value::Int(45));
    }

    #[test]
    fn container_memory_is_accounted() {
        let mut mgr = manager();
        let c = mgr
            .create(
                ContainerKind::Plain,
                RuntimeProfile::node(),
                SRC,
                JitConfig::default(),
            )
            .expect("creates");
        // Runtime base image is materialised.
        assert!(c.rss_bytes() > 40 << 20);
    }
}
