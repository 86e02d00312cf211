//! The microVM manager: lifecycle operations with their costs.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use fireworks_guestmem::HostMemory;
use fireworks_lang::{compile, JitConfig, LangError, Program};
use fireworks_obs::{cat, Counter, Obs, Phase, SpanId};
use fireworks_runtime::{Guest, GuestRuntime, RuntimeProfile};
use fireworks_sim::fault::{FaultSite, SharedInjector};
use fireworks_sim::{Clock, CostModel, Nanos};

use crate::error::VmError;
use crate::vm::{MicroVm, MicroVmConfig, VmFullSnapshot, VmState, OS_IMAGE_BYTES};

/// Creates, boots, snapshots, and restores microVMs on one host.
///
/// # Examples
///
/// ```
/// use fireworks_microvm::{VmManager, MicroVmConfig};
/// use fireworks_guestmem::HostMemory;
/// use fireworks_sim::{Clock, CostModel};
/// use std::rc::Rc;
///
/// let clock = Clock::new();
/// let host = HostMemory::new(clock.clone(), 8 << 30);
/// let mut mgr = VmManager::new(clock, Rc::new(CostModel::default()), host);
/// let mut vm = mgr.create(MicroVmConfig::default());
/// mgr.boot(&mut vm).expect("no faults armed");
/// assert!(vm.boot_time().as_millis() > 500, "cold boots are expensive");
/// ```
#[derive(Debug)]
pub struct VmManager {
    clock: Clock,
    costs: Rc<CostModel>,
    host_mem: HostMemory,
    next_id: u64,
    injector: Option<SharedInjector>,
    obs: Option<Obs>,
    /// `microvm.restore.attempts`, resolved at the first restore.
    restore_attempts: OnceCell<Counter>,
    /// `microvm.restore.pages_verified`, resolved at the first verified
    /// restore.
    pages_verified: OnceCell<Counter>,
}

impl VmManager {
    /// Creates a manager allocating guest memory from `host_mem`.
    pub fn new(clock: Clock, costs: Rc<CostModel>, host_mem: HostMemory) -> Self {
        VmManager {
            clock,
            costs,
            host_mem,
            next_id: 1,
            injector: None,
            obs: None,
            restore_attempts: OnceCell::new(),
            pages_verified: OnceCell::new(),
        }
    }

    /// Attaches a fault injector; boot and restore consult it at their
    /// fault sites. Without one, both operations are infallible.
    pub fn set_fault_injector(&mut self, injector: SharedInjector) {
        self.injector = Some(injector);
    }

    /// Attaches an observability plane; lifecycle operations then record
    /// spans (boot stages, pause/resume, snapshot capture/restore) and
    /// counters. Without one, operations record nothing.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
        self.restore_attempts = OnceCell::new();
        self.pages_verified = OnceCell::new();
    }

    fn span_start(&self, name: &'static str, category: &'static str) -> Option<SpanId> {
        self.obs
            .as_ref()
            .map(|o| o.recorder().start(name, category))
    }

    fn span_end(&self, id: Option<SpanId>) {
        if let (Some(obs), Some(id)) = (&self.obs, id) {
            obs.recorder().end(id);
        }
    }

    fn count(&self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        if let Some(obs) = &self.obs {
            obs.metrics().add(name, labels, delta);
        }
    }

    /// Adds `delta` to the unlabelled counter `name` through the handle
    /// in `handle`, resolving it on this first write: the per-restore
    /// counters look nothing up after the first restore.
    fn count_through(&self, handle: &OnceCell<Counter>, name: &'static str, delta: u64) {
        if let Some(obs) = &self.obs {
            handle
                .get_or_init(|| obs.metrics().counter(name, &[]))
                .add(delta);
        }
    }

    /// Asks the attached injector (if any) whether `site` fails now.
    fn should_fail(&self, site: FaultSite) -> bool {
        self.injector
            .as_ref()
            .map(|inj| inj.borrow_mut().should_fail(site))
            .unwrap_or(false)
    }

    /// The virtual clock all operations charge against.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The cost table in use.
    pub fn costs(&self) -> &Rc<CostModel> {
        &self.costs
    }

    /// The host memory VMs allocate from.
    pub fn host_mem(&self) -> &HostMemory {
        &self.host_mem
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Spawns and configures a VMM process (no guest boot yet).
    pub fn create(&mut self, config: MicroVmConfig) -> MicroVm {
        let start = self.clock.now();
        let span = self.span_start("vmm_setup", cat::BOOT);
        self.clock.advance(self.costs.microvm.vmm_setup);
        self.span_end(span);
        MicroVm {
            id: self.next_id(),
            config,
            state: VmState::Created,
            guest: Guest::new(&self.host_mem, config.mem_bytes, OS_IMAGE_BYTES),
            mmds: BTreeMap::new(),
            boot_time: self.clock.now() - start,
        }
    }

    /// Boots the guest kernel and userspace, materialising the OS image.
    ///
    /// With a fault injector attached, the VMM can crash mid-boot
    /// ([`FaultSite::VmCrash`]): the boot time is still charged (the
    /// wasted work is real), the VM stays in [`VmState::Created`], and
    /// the caller may retry.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not in [`VmState::Created`].
    pub fn boot(&mut self, vm: &mut MicroVm) -> Result<(), VmError> {
        assert_eq!(vm.state, VmState::Created, "boot from Created only");
        let start = self.clock.now();
        let boot_span = self.span_start("vm_boot", cat::BOOT);
        let kernel = self.span_start("kernel_boot", cat::BOOT);
        self.clock.advance(self.costs.microvm.kernel_boot);
        self.span_end(kernel);
        if self.should_fail(FaultSite::VmCrash) {
            vm.boot_time += self.clock.now() - start;
            self.count("microvm.manager.boot_crashes", &[], 1);
            self.span_end(boot_span);
            return Err(VmError::BootCrash);
        }
        let init = self.span_start("guest_init", cat::BOOT);
        self.clock.advance(self.costs.microvm.guest_init);
        self.span_end(init);
        vm.sync_runtime_memory(); // Materialises the OS region.
        vm.state = VmState::Running;
        vm.boot_time += self.clock.now() - start;
        self.count("microvm.manager.boots", &[], 1);
        self.span_end(boot_span);
        Ok(())
    }

    /// Launches a language runtime inside the VM and loads `program`
    /// (compiled once, at install, and shared by every launch).
    ///
    /// `jit` is the guest JIT shape ([`JitConfig`]): tier-up
    /// policy override, code-cache budget, and inline-cache limits. Use
    /// [`JitConfig::default`] for the runtime profile's stock behaviour.
    pub fn launch(
        &mut self,
        vm: &mut MicroVm,
        profile: RuntimeProfile,
        program: Rc<Program>,
        jit: JitConfig,
    ) {
        assert_eq!(vm.state, VmState::Running, "runtime needs a booted guest");
        let start = self.clock.now();
        let span = self.span_start("runtime_launch", cat::BOOT);
        let runtime = GuestRuntime::launch(&self.clock, profile, program, jit);
        self.span_end(span);
        vm.launch(runtime);
        vm.boot_time += self.clock.now() - start;
    }

    /// Compiles `source`, then [`VmManager::launch`]es it: for callers
    /// that hold text. Fails, charging nothing, if it does not compile.
    pub fn launch_runtime(
        &mut self,
        vm: &mut MicroVm,
        profile: RuntimeProfile,
        source: &str,
        jit: JitConfig,
    ) -> Result<(), LangError> {
        self.launch(vm, profile, Rc::new(compile(source)?), jit);
        Ok(())
    }

    /// Pauses a running VM in memory (warm pool).
    pub fn pause(&mut self, vm: &mut MicroVm) {
        assert_eq!(vm.state, VmState::Running, "pause a running VM");
        let span = self.span_start("vm_pause", cat::BOOT);
        self.clock.advance(self.costs.microvm.pause);
        self.span_end(span);
        vm.state = VmState::Paused;
    }

    /// Resumes a paused VM — the Firecracker warm start.
    pub fn resume(&mut self, vm: &mut MicroVm) {
        assert_eq!(vm.state, VmState::Paused, "resume a paused VM");
        let span = self.span_start("vm_resume", cat::BOOT);
        self.clock.advance(self.costs.microvm.resume_paused);
        self.span_end(span);
        vm.state = VmState::Running;
    }

    /// Reads an MMDS key from inside the guest, charging the lookup.
    pub fn mmds_get(&self, vm: &MicroVm, key: &str) -> Option<String> {
        self.clock.advance(self.costs.microvm.mmds_lookup);
        vm.mmds_get_raw(key).map(str::to_string)
    }

    /// Creates a full-VM snapshot (memory file + device/runtime state),
    /// charging per resident page written — this is the paper's §5.1
    /// install-time cost.
    pub fn snapshot(&mut self, vm: &mut MicroVm) -> VmFullSnapshot {
        vm.sync_runtime_memory();
        let span = self.span_start("snapshot_capture", cat::SNAPSHOT);
        self.clock.advance(self.costs.microvm.snapshot_create_base);
        let pages = vm.resident_pages() as u64;
        self.clock
            .advance(self.costs.microvm.snapshot_write_per_page * pages);
        let snap = VmFullSnapshot {
            image: vm.capture(),
            config: vm.config,
        };
        if let (Some(obs), Some(id)) = (&self.obs, span) {
            obs.recorder().attr(id, "pages", pages);
            obs.recorder().attr(id, "bytes", snap.file_bytes());
        }
        self.count("microvm.snapshot.captures", &[], 1);
        self.count("microvm.snapshot.pages_written", &[], pages);
        self.span_end(span);
        snap
    }

    /// Restores a snapshot into a fresh microVM. This is the Fireworks
    /// start path: a small fixed cost plus lazy mapping, instead of the
    /// boot pipeline. The clone joins the memory file's mapping group
    /// ([`SnapshotFile::restore`]) — every page mapped shared, none
    /// touched, on the host as in the paper — and the virtual clock is
    /// still charged `snapshot_map_per_page` for each, as `mmap` setting
    /// up the page tables would cost. What the clone is — runtime state,
    /// region extents — is [`fireworks_runtime::GuestImage::restore`]'s.
    ///
    /// With a fault injector attached, three things can go wrong, in
    /// order: the snapshot file read can fail transiently
    /// ([`FaultSite::SnapshotRead`]); a stored page can be corrupt —
    /// [`FaultSite::SnapshotCorruption`] physically damages a
    /// deterministic page, and the per-page checksums recorded at capture
    /// time then catch it (along with any pre-existing damage) before any
    /// page is mapped; and the VMM can crash after mapping
    /// ([`FaultSite::VmCrash`]). Costs accrued before the failure stay
    /// charged. The memory file is verified in full the first time and
    /// after any damage; a clean verdict is remembered in between
    /// ([`SnapshotFile::verify`]), the virtual `page_verify` cost is not.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken on another host's frame table
    /// than this manager's `host_mem`.
    ///
    /// [`SnapshotFile::restore`]: fireworks_guestmem::SnapshotFile::restore
    /// [`SnapshotFile::verify`]: fireworks_guestmem::SnapshotFile::verify
    pub fn restore(&mut self, snapshot: &VmFullSnapshot) -> Result<MicroVm, VmError> {
        let mem = snapshot.mem();
        // The restore is start-up latency wherever it runs; the
        // read/verify/map children inherit the phase.
        let restore_span = self.obs.as_ref().map(|o| {
            o.recorder()
                .start_phase("snapshot_restore", cat::RESTORE, Phase::Startup)
        });
        if let (Some(obs), Some(id)) = (&self.obs, restore_span) {
            obs.recorder().attr(id, "pages", mem.pages());
        }
        self.count_through(&self.restore_attempts, "microvm.restore.attempts", 1);
        let read = self.span_start("restore_read", cat::RESTORE);
        self.clock.advance(self.costs.microvm.snapshot_restore_base);
        if self.should_fail(FaultSite::SnapshotRead) {
            self.count("microvm.restore.failures", &[("kind", "read")], 1);
            self.span_end(restore_span); // Closes the open read child too.
            return Err(VmError::SnapshotRead);
        }
        self.span_end(read);
        let verify = self.span_start("page_verify", cat::RESTORE);
        if mem.pages() > 0 && self.should_fail(FaultSite::SnapshotCorruption) {
            // Damage a deterministic (occurrence-dependent) page so the
            // checksum machinery does real detection work below.
            let occurrence = self
                .injector
                .as_ref()
                .map(|inj| inj.borrow().injected_at(FaultSite::SnapshotCorruption))
                .unwrap_or(1);
            let index = occurrence.wrapping_mul(7919) % mem.pages();
            mem.corrupt_page(index);
        }
        if let Err(err) = mem.verify() {
            self.count("microvm.restore.failures", &[("kind", "corrupt")], 1);
            self.span_end(restore_span);
            return Err(err.into());
        }
        self.count_through(
            &self.pages_verified,
            "microvm.restore.pages_verified",
            mem.pages() as u64,
        );
        self.span_end(verify);
        let map = self.span_start("map_pages", cat::RESTORE);
        self.clock
            .advance(self.costs.microvm.snapshot_map_per_page * mem.pages() as u64);
        if self.should_fail(FaultSite::VmCrash) {
            self.count("microvm.restore.failures", &[("kind", "crash")], 1);
            self.span_end(restore_span);
            return Err(VmError::RestoreCrash);
        }
        let guest = snapshot.restore(&self.host_mem);
        self.span_end(map);
        self.span_end(restore_span);
        Ok(MicroVm {
            id: self.next_id(),
            config: snapshot.config,
            state: VmState::Running,
            guest,
            mmds: BTreeMap::new(),
            boot_time: Nanos::ZERO,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_lang::{JitPolicy, NoopHost, Value};
    use fireworks_runtime::guest::RunOutcome;
    use fireworks_sim::fault::{self, FaultInjector, FaultPlan};

    const SRC: &str = "
        fn work(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
        fn main(n) { return work(n); }";

    const INSTALL_SRC: &str = "
        @jit fn work(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
        fn installer(n) {
            work(n);
            work(n);
            fireworks_snapshot();
            return work(n);
        }";

    fn manager() -> VmManager {
        let clock = Clock::new();
        let host = HostMemory::new(clock.clone(), 16 << 30);
        VmManager::new(clock, Rc::new(CostModel::default()), host)
    }

    fn booted_vm(mgr: &mut VmManager, src: &str, jit: JitConfig) -> MicroVm {
        let mut vm = mgr.create(MicroVmConfig::default());
        mgr.boot(&mut vm).expect("boots");
        mgr.launch_runtime(&mut vm, RuntimeProfile::node(), src, jit)
            .expect("launches");
        vm
    }

    #[test]
    fn cold_boot_charges_full_pipeline() {
        let mut mgr = manager();
        let vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        // VMM + kernel + init + runtime launch + app load ≈ 2 s.
        assert!(
            vm.boot_time().as_millis() > 1_500,
            "boot {} too fast",
            vm.boot_time()
        );
        assert_eq!(vm.state(), VmState::Running);
    }

    #[test]
    fn boot_materialises_os_image() {
        let mut mgr = manager();
        let mut vm = mgr.create(MicroVmConfig::default());
        assert_eq!(vm.rss_bytes(), 0);
        mgr.boot(&mut vm).expect("boots");
        assert!(vm.rss_bytes() >= crate::vm::OS_IMAGE_BYTES);
    }

    #[test]
    fn pause_resume_is_cheap() {
        let mut mgr = manager();
        let mut vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        mgr.pause(&mut vm);
        let before = mgr.clock().now();
        mgr.resume(&mut vm);
        let warm = mgr.clock().now() - before;
        assert!(warm < Nanos::from_millis(50));
        assert!(warm.as_nanos() * 10 < vm.boot_time().as_nanos());
    }

    #[test]
    fn snapshot_cost_scales_with_resident_pages() {
        let mut mgr = manager();
        let mut vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        let before = mgr.clock().now();
        let snap = mgr.snapshot(&mut vm);
        let took = mgr.clock().now() - before;
        // §5.1: several hundred ms for a ~140 MiB image.
        assert!(
            (0.1..1.0).contains(&took.as_secs_f64()),
            "snapshot took {took}"
        );
        assert!(snap.pages() > 20_000);
    }

    #[test]
    fn restore_is_orders_of_magnitude_faster_than_boot() {
        let mut mgr = manager();
        let mut vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        let boot = vm.boot_time();
        let snap = mgr.snapshot(&mut vm);
        let before = mgr.clock().now();
        let restored = mgr.restore(&snap).expect("restores");
        let restore_time = mgr.clock().now() - before;
        assert!(
            restore_time.as_nanos() * 50 < boot.as_nanos(),
            "restore {restore_time} vs boot {boot}"
        );
        assert_eq!(restored.state(), VmState::Running);
        assert_eq!(restored.boot_time(), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "not captured on")]
    fn restoring_a_snapshot_from_another_host_panics() {
        let mut mgr = manager();
        let mut vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        let snap = mgr.snapshot(&mut vm);
        let _ = manager().restore(&snap);
    }

    #[test]
    fn restored_vm_shares_memory_until_invocation() {
        let mut mgr = manager();
        let mut vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        let snap = mgr.snapshot(&mut vm);
        drop(vm);
        let a = mgr.restore(&snap).expect("restores");
        let b = mgr.restore(&snap).expect("restores");
        // Fully shared: PSS is half of RSS for two clones.
        assert_eq!(a.rss_bytes(), b.rss_bytes());
        assert!(a.pss_bytes() <= a.rss_bytes() / 2 + 4096);

        // After one clone runs an invocation, its PSS grows.
        let mut a = a;
        let rt = a.runtime_mut().expect("runtime");
        rt.invoke(mgr.clock(), "main", vec![Value::Int(100)], &mut NoopHost)
            .expect("runs");
        a.sync_runtime_memory();
        a.dirty_invocation();
        assert!(a.pss_bytes() > b.pss_bytes());
    }

    #[test]
    fn post_jit_snapshot_round_trip_resumes_with_jit() {
        let mut mgr = manager();
        let mut vm = mgr.create(MicroVmConfig::default());
        mgr.boot(&mut vm).expect("boots");
        mgr.launch_runtime(
            &mut vm,
            RuntimeProfile::python(),
            INSTALL_SRC,
            JitConfig::default().with_policy(Some(JitPolicy::AnnotatedEager)),
        )
        .expect("launches");

        // Install phase: run to the snapshot point.
        let rt = vm.runtime_mut().expect("runtime");
        rt.start("installer", vec![Value::Int(5_000)])
            .expect("starts");
        let clock = mgr.clock().clone();
        let RunOutcome::SnapshotPoint = rt.run(&clock, &mut NoopHost).expect("runs") else {
            panic!("expected snapshot point");
        };
        let snap = mgr.snapshot(&mut vm);
        assert!(snap.is_post_jit(), "snapshot must carry JIT code");

        // Invoke phase: restore and resume.
        let mut clone = mgr.restore(&snap).expect("restores");
        let rt = clone.runtime_mut().expect("runtime restored");
        assert!(rt.is_suspended(), "clone resumes mid-program");
        let RunOutcome::Done(r) = rt.run(&clock, &mut NoopHost).expect("resumes") else {
            panic!("expected completion");
        };
        assert_eq!(r.value, Value::Int(12_497_500));
        assert_eq!(r.stats.compiles, 0, "no compile cost after restore");
    }

    #[test]
    fn mmds_is_per_instance_not_in_snapshot() {
        let mut mgr = manager();
        let mut vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        vm.mmds_set("instance-id", "original");
        let snap = mgr.snapshot(&mut vm);
        let mut a = mgr.restore(&snap).expect("restores");
        let mut b = mgr.restore(&snap).expect("restores");
        assert_eq!(
            mgr.mmds_get(&a, "instance-id"),
            None,
            "MMDS not snapshotted"
        );
        a.mmds_set("instance-id", "vm-a");
        b.mmds_set("instance-id", "vm-b");
        assert_eq!(mgr.mmds_get(&a, "instance-id").as_deref(), Some("vm-a"));
        assert_eq!(mgr.mmds_get(&b, "instance-id").as_deref(), Some("vm-b"));
    }

    #[test]
    fn vm_ids_are_unique() {
        let mut mgr = manager();
        let a = mgr.create(MicroVmConfig::default());
        let b = mgr.create(MicroVmConfig::default());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn working_set_covers_code_heap_and_exec_state() {
        let mut mgr = manager();
        let vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        let ranges = vm.working_set_ranges();
        assert!(!ranges.is_empty());
        let total_pages: usize = ranges.iter().map(|(_, n)| n).sum();
        // The working set is a substantial fraction of — but well below —
        // the full image.
        assert!(total_pages > 2_000, "ws {total_pages} pages");
        assert!(total_pages < vm.rss_bytes() as usize / 4096);
        // Ranges must not overlap (REAP would double-count).
        let mut sorted = ranges.clone();
        sorted.sort_by_key(|(first, _)| *first);
        for w in sorted.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {w:?}");
        }
    }

    #[test]
    fn aging_dirties_churn_progressively_up_to_the_arena_cap() {
        let mut mgr = manager();
        let mut vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        let snap = mgr.snapshot(&mut vm);
        let mut clone = mgr.restore(&snap).expect("restores");
        let base = clone.pss_bytes();
        clone.age_ops(10_000_000);
        let aged_10m = clone.pss_bytes();
        assert!(aged_10m > base, "aging must privatise churn pages");
        clone.age_ops(40_000_000);
        let aged_50m = clone.pss_bytes();
        assert!(aged_50m > aged_10m);
        // The arena caps churn: further aging saturates.
        clone.age_ops(u64::MAX / 2);
        let saturated = clone.pss_bytes();
        clone.age_ops(1_000_000);
        assert_eq!(clone.pss_bytes(), saturated, "arena cap reached");
    }

    #[test]
    fn jit_growth_after_restore_dirties_only_new_pages() {
        let mut mgr = manager();
        // Snapshot without JIT (plain OS+runtime snapshot).
        let mut vm = booted_vm(
            &mut mgr,
            SRC,
            JitConfig::default().with_policy(Some(JitPolicy::Off)),
        );
        let snap = mgr.snapshot(&mut vm);
        let mut clone = mgr.restore(&snap).expect("restores");
        let rss_before = clone.rss_bytes();

        // Run hot code with JIT enabled after restore? The restored
        // runtime keeps its policy; instead verify heap growth dirties.
        let rt = clone.runtime_mut().expect("rt");
        rt.invoke(mgr.clock(), "main", vec![Value::Int(50_000)], &mut NoopHost)
            .expect("runs");
        clone.sync_runtime_memory();
        // Heap may grow a little; RSS must never shrink and extents only
        // extend.
        assert!(clone.rss_bytes() >= rss_before);
    }

    #[test]
    fn boot_crash_leaves_vm_retryable() {
        let mut mgr = manager();
        let plan = FaultPlan::new(7).nth(FaultSite::VmCrash, 1);
        mgr.set_fault_injector(fault::shared(FaultInjector::new(plan)));
        let mut vm = mgr.create(MicroVmConfig::default());
        assert_eq!(mgr.boot(&mut vm), Err(VmError::BootCrash));
        assert_eq!(vm.state(), VmState::Created);
        assert!(
            vm.boot_time() > Nanos::ZERO,
            "failed boot still burned time"
        );
        mgr.boot(&mut vm).expect("second attempt is clean");
        assert_eq!(vm.state(), VmState::Running);
    }

    #[test]
    fn restore_read_fault_is_transient() {
        let mut mgr = manager();
        let mut vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        let snap = mgr.snapshot(&mut vm);
        let plan = FaultPlan::new(3).nth(FaultSite::SnapshotRead, 1);
        mgr.set_fault_injector(fault::shared(FaultInjector::new(plan)));
        let err = mgr.restore(&snap).expect_err("read fails once");
        assert_eq!(err, VmError::SnapshotRead);
        assert!(err.is_transient());
        mgr.restore(&snap).expect("retry succeeds");
    }

    #[test]
    fn injected_corruption_is_caught_by_checksums_and_persists() {
        let mut mgr = manager();
        let mut vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        let snap = mgr.snapshot(&mut vm);
        let plan = FaultPlan::new(11).nth(FaultSite::SnapshotCorruption, 1);
        mgr.set_fault_injector(fault::shared(FaultInjector::new(plan)));
        let err = mgr.restore(&snap).expect_err("corruption detected");
        assert!(matches!(err, VmError::Corrupt(_)), "got {err:?}");
        assert!(!err.is_transient());
        // The damage is physical: with the fault rule exhausted, the
        // snapshot is still bad on the next attempt.
        let err2 = mgr.restore(&snap).expect_err("still corrupt");
        assert!(matches!(err2, VmError::Corrupt(_)));
    }

    #[test]
    fn pristine_snapshot_restores_even_with_injector_at_rate_zero() {
        let mut mgr = manager();
        let mut vm = booted_vm(&mut mgr, SRC, JitConfig::default());
        let snap = mgr.snapshot(&mut vm);
        mgr.set_fault_injector(fault::shared(FaultInjector::new(FaultPlan::uniform(
            42, 0.0,
        ))));
        mgr.restore(&snap).expect("rate-0 injector never fires");
    }
}
