//! A runtime laid out in a guest address space: the one owner of *what a
//! guest image consists of*.
//!
//! The memory-density results (paper §5.4, §5.5.2) depend on *which pages
//! of guest memory change after restore*, REAP-style prefetch on which are
//! read. Both follow from one table of regions, each with a fixed home in
//! guest-physical memory ([`Layout`]):
//!
//! | region       | contents                                 | after restore     |
//! |--------------|------------------------------------------|-------------------|
//! | OS           | guest kernel + userspace (microVMs only) | shared            |
//! | runtime base | interpreter binary, stdlib, initial heap | shared            |
//! | app code     | loaded bytecode / code objects           | shared            |
//! | JIT code     | quickened machine code (× duplication)   | shared            |
//! | heap         | live guest values                        | partially dirtied |
//! | exec state   | per-invocation scratch                   | fully dirtied     |
//! | first run    | lazily allocated framework state         | shared if inherited |
//! | GC churn     | arena rewritten as ops retire            | dirtied with age  |
//!
//! [`Guest`] is an address space with a runtime laid out in it by that
//! table — what a microVM and a container both are underneath — and
//! [`GuestImage`] its stored form (memory file + runtime state + extents).
//! Every accounting write to a runtime region happens in this module.

use std::rc::Rc;

use fireworks_guestmem::{AddressSpace, HostMemory, SharingStats, SnapshotFile, PAGE_SIZE};

use crate::guest::{GuestRuntime, RuntimeSnapshot};
use crate::profile::RuntimeProfile;

/// The region table: fixed guest-physical bases (associated constants)
/// plus how many bytes of each region a guest has materialised so far, so
/// that syncing dirties only *growth*.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layout {
    /// Size of the OS region `[0, os_image)` this sandbox boots into;
    /// zero for a container, which shares the host kernel.
    os_image: u64,
    os: u64,
    runtime: u64,
    code: u64,
    jit: u64,
    heap: u64,
    first_run: u64,
    churn: u64,
}

impl Layout {
    /// Guest-physical memory the table is laid out for (paper §5.1).
    pub const GUEST_MEM_BYTES: u64 = 512 << 20;
    /// Base of the runtime image region (the OS owns everything below).
    pub const RUNTIME_BASE: u64 = 96 << 20;
    /// Base of the app bytecode region.
    pub const APP_CODE_BASE: u64 = 160 << 20;
    /// Base of the JIT code cache region.
    pub const JIT_CODE_BASE: u64 = 176 << 20;
    /// Base of the guest heap region.
    pub const HEAP_BASE: u64 = 208 << 20;
    /// Base of the per-invocation execution-state region.
    pub const EXEC_STATE_BASE: u64 = 272 << 20;
    /// Base of the lazily allocated first-run state region.
    pub const FIRST_RUN_BASE: u64 = 296 << 20;
    /// Base of the GC-churn arena (extends to the end of guest memory).
    pub const CHURN_BASE: u64 = 320 << 20;
    /// Size cap of the GC-churn arena.
    pub const CHURN_ARENA: u64 = 184 << 20;
    /// Fraction of the heap rewritten by a typical invocation.
    pub const HEAP_DIRTY_FRACTION: f64 = 0.35;

    /// Bytes of the churn arena rewritten after `ops` retired guest ops
    /// under `profile`.
    pub fn churn_bytes(profile: &RuntimeProfile, ops: u64) -> u64 {
        let churn = (ops as u128 * profile.gc_churn_bytes_per_mops as u128 / 1_000_000) as u64;
        churn.min(Self::CHURN_ARENA)
    }

    /// The table with nothing materialised.
    fn empty(os_image: u64) -> Self {
        Layout {
            os_image,
            ..Layout::default()
        }
    }

    /// Heap bytes `rt` occupies: its live values, never less than the
    /// runtime's initial arena.
    fn heap_bytes(rt: &GuestRuntime) -> u64 {
        rt.heap_bytes().max(1 << 20)
    }
}

/// Extends a region from `*have` to `want` bytes, dirtying the growth.
fn grow(space: &mut AddressSpace, base: u64, have: &mut u64, want: u64) {
    if want > *have {
        space.touch_dirty(base + *have, want - *have);
        *have = want;
    }
}

/// Rewrites a region's first `bytes` in place, CoW-copying any of them
/// that came shared out of an image.
fn rewrite(space: &mut AddressSpace, base: u64, have: &mut u64, bytes: u64) {
    space.touch_dirty(base, bytes);
    *have = (*have).max(bytes);
}

/// A guest address space with (once launched) a language runtime laid out
/// in it. A microVM is a `Guest` behind a VMM, a container a `Guest`
/// behind a namespace or a Sentry.
#[derive(Debug)]
pub struct Guest {
    space: AddressSpace,
    runtime: Option<GuestRuntime>,
    layout: Layout,
    /// Synthetic extra guest ops from [`Guest::age_ops`].
    aged_ops: u64,
}

impl Guest {
    /// An empty guest with `mem_bytes` of guest-physical memory allocated
    /// from `host`, whose OS (if the sandbox boots one) occupies the first
    /// `os_image_bytes`. Nothing is materialised yet.
    pub fn new(host: &HostMemory, mem_bytes: u64, os_image_bytes: u64) -> Self {
        Guest {
            space: AddressSpace::new(host.clone(), mem_bytes),
            runtime: None,
            layout: Layout::empty(os_image_bytes),
            aged_ops: 0,
        }
    }

    /// Installs a launched runtime and materialises its regions.
    pub fn launch(&mut self, runtime: GuestRuntime) {
        self.runtime = Some(runtime);
        self.sync_runtime_memory();
    }

    /// The guest runtime, if one has been launched or restored.
    pub fn runtime(&self) -> Option<&GuestRuntime> {
        self.runtime.as_ref()
    }

    /// Mutable access to the guest runtime.
    pub fn runtime_mut(&mut self) -> Option<&mut GuestRuntime> {
        self.runtime.as_mut()
    }

    /// Resident (mapped) guest pages.
    pub fn resident_pages(&self) -> usize {
        self.space.resident_pages()
    }

    /// Guest-physical resident set size.
    pub fn rss_bytes(&self) -> u64 {
        self.space.rss_bytes()
    }

    /// Guest-physical proportional set size (what `smem` reports).
    pub fn pss_bytes(&self) -> u64 {
        self.space.pss_bytes()
    }

    /// Shared/private split of the resident set (CoW sharing with the
    /// image and sibling clones vs privately dirtied pages).
    pub fn sharing_stats(&self) -> SharingStats {
        self.space.sharing_stats()
    }

    /// Extends the regions to the OS image's and the runtime's current
    /// sizes, dirtying only growth beyond what is already materialised —
    /// so a second call with nothing grown touches nothing. Call after
    /// boot, launch and execution slices so JIT-code and heap growth is
    /// accounted.
    pub fn sync_runtime_memory(&mut self) {
        let (space, l) = (&mut self.space, &mut self.layout);
        grow(space, 0, &mut l.os, l.os_image);
        let Some(rt) = &self.runtime else { return };
        let p = rt.profile();
        let code_bytes = p.code_bytes_per_op * rt.program().total_ops() as u64;
        let first_run = u64::from(rt.first_run_done()) * p.first_run_state_bytes;
        let churn = Layout::churn_bytes(p, rt.ops_since_reset());
        for (base, have, want) in [
            (Layout::RUNTIME_BASE, &mut l.runtime, p.base_image_bytes),
            (Layout::APP_CODE_BASE, &mut l.code, code_bytes),
            (Layout::JIT_CODE_BASE, &mut l.jit, rt.jit_code_bytes()),
            (Layout::HEAP_BASE, &mut l.heap, Layout::heap_bytes(rt)),
            (Layout::FIRST_RUN_BASE, &mut l.first_run, first_run),
            (Layout::CHURN_BASE, &mut l.churn, churn),
        ] {
            grow(space, base, have, want);
        }
    }

    /// Dirties the per-invocation write set: the whole execution state, a
    /// fraction of the materialised heap, first-run state allocated in
    /// this instance (state inherited from a post-JIT image stays shared),
    /// and the GC churn accumulated by this instance's execution, which
    /// rewrites — and therefore CoW-copies — arena pages that came shared
    /// out of an image. Call once per invocation, after syncing; this is
    /// what limits snapshot sharing.
    pub fn dirty_invocation(&mut self) {
        let (space, l) = (&mut self.space, &mut self.layout);
        let Some(rt) = &self.runtime else { return };
        let p = rt.profile();
        space.touch_dirty(Layout::EXEC_STATE_BASE, p.exec_state_bytes);
        let heap = Layout::heap_bytes(rt).min(l.heap);
        let dirty = (heap as f64 * Layout::HEAP_DIRTY_FRACTION) as u64;
        space.touch_dirty(Layout::HEAP_BASE, dirty);
        if rt.first_run_local() {
            let bytes = p.first_run_state_bytes;
            rewrite(space, Layout::FIRST_RUN_BASE, &mut l.first_run, bytes);
        }
        let churn = Layout::churn_bytes(p, rt.ops_since_reset());
        rewrite(space, Layout::CHURN_BASE, &mut l.churn, churn);
    }

    /// Ages the guest by `extra_ops` guest ops of continued service,
    /// dirtying the GC-churn arena accordingly. Used by long-running
    /// density experiments (paper Fig. 10 runs every microVM until the
    /// host swaps) without paying the real-time cost of executing those
    /// ops.
    pub fn age_ops(&mut self, extra_ops: u64) {
        let Some(rt) = &self.runtime else { return };
        self.aged_ops = self.aged_ops.saturating_add(extra_ops);
        let total = rt.ops_since_reset().saturating_add(self.aged_ops);
        let churn = Layout::churn_bytes(rt.profile(), total);
        let l = &mut self.layout;
        rewrite(&mut self.space, Layout::CHURN_BASE, &mut l.churn, churn);
    }

    /// The page ranges (first page, count) one invocation reads or
    /// writes: a slice of the OS (syscall paths, page-cache metadata), a
    /// fraction of the runtime image (interpreter hot paths, stdlib), all
    /// loaded code, JIT code, heap and first-run state, and the full
    /// execution state — the working set REAP-style prefetching targets.
    /// Whole pages, disjoint, derived from the current extents.
    pub fn working_set_ranges(&self) -> Vec<(usize, usize)> {
        let l = &self.layout;
        let exec_state = self
            .runtime
            .as_ref()
            .map(|rt| rt.profile().exec_state_bytes);
        [
            (0, l.os_image / 10),
            (Layout::RUNTIME_BASE, l.runtime / 4),
            (Layout::APP_CODE_BASE, l.code),
            (Layout::JIT_CODE_BASE, l.jit),
            (Layout::HEAP_BASE, l.heap),
            (Layout::FIRST_RUN_BASE, l.first_run),
            (Layout::EXEC_STATE_BASE, exec_state.unwrap_or(0)),
        ]
        .into_iter()
        .filter(|&(_, bytes)| bytes > 0)
        .map(|(base, bytes)| {
            (
                base as usize / PAGE_SIZE,
                (bytes as usize).div_ceil(PAGE_SIZE),
            )
        })
        .collect()
    }

    /// Stores the guest as it stands: memory file (every page
    /// checksummed), a deep copy of the runtime state, and the extents.
    /// Sync first — what is not materialised is not in the image. Charges
    /// nothing: what writing an image costs is the sandbox layer's
    /// business.
    pub fn capture(&self) -> GuestImage {
        GuestImage {
            mem: SnapshotFile::capture(&self.space, Vec::new()),
            runtime: self.runtime.as_ref().map(|r| Rc::new(r.snapshot())),
            layout: self.layout,
        }
    }

    /// Forgets what is materialised, so that the next sync touches every
    /// region from its base again — CoW-copying whatever a restore mapped
    /// shared there.
    pub fn forget_extents(&mut self) {
        self.layout = Layout::empty(self.layout.os_image);
    }
}

/// The stored form of a [`Guest`]: the memory file, the runtime state
/// captured with it, and the extents its regions had — a Firecracker
/// `snapshot.mem` + `snapshot.json`, or a gVisor checkpoint.
#[derive(Debug)]
pub struct GuestImage {
    mem: SnapshotFile,
    runtime: Option<Rc<RuntimeSnapshot>>,
    layout: Layout,
}

impl GuestImage {
    /// An image of `mem` with the given runtime state and extents: how a
    /// host that reassembled a memory file from content-addressed chunks
    /// recombines it with the metadata a peer published.
    pub fn new(mem: SnapshotFile, runtime: Option<Rc<RuntimeSnapshot>>, layout: Layout) -> Self {
        GuestImage {
            mem,
            runtime,
            layout,
        }
    }

    /// The memory file, with its per-page checksums.
    pub fn mem(&self) -> &SnapshotFile {
        &self.mem
    }

    /// Guest pages stored in the memory file.
    pub fn pages(&self) -> usize {
        self.mem.pages()
    }

    /// On-disk size of the image.
    pub fn file_bytes(&self) -> u64 {
        self.mem.file_bytes()
    }

    /// The runtime state captured in the image, if any.
    pub fn runtime(&self) -> Option<&Rc<RuntimeSnapshot>> {
        self.runtime.as_ref()
    }

    /// The extents the guest's regions had at capture.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Whether the captured runtime holds JIT-compiled code (i.e. this is
    /// a *post-JIT* image rather than a plain OS + runtime one).
    pub fn is_post_jit(&self) -> bool {
        self.runtime.as_ref().is_some_and(|r| r.jit_code_ops() > 0)
    }

    /// A fresh guest lazily mapping every page of the image shared
    /// ([`SnapshotFile::restore`]), its runtime rebuilt from the captured
    /// state and its extents those of the image, so that only growth past
    /// them is dirtied. Charges nothing and checks nothing: reading,
    /// verifying and mapping costs are the sandbox layer's business.
    ///
    /// # Panics
    ///
    /// Panics if the image was captured on another host's frame table.
    pub fn restore(&self, host: &HostMemory) -> Guest {
        Guest {
            space: self.mem.restore(host),
            runtime: self.runtime.as_deref().map(GuestRuntime::from_snapshot),
            layout: self.layout,
            aged_ops: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_lang::{JitConfig, NoopHost, Value};
    use fireworks_sim::Clock;

    const SRC: &str =
        "fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }";

    /// A guest that keeps everything it is asked to allocate.
    const HOARDER: &str = "
        let kept = [];
        fn main(n) { for (let i = 0; i < n; i = i + 1) { push(kept, i); } return len(kept); }";

    fn host(clock: &Clock) -> HostMemory {
        HostMemory::new(clock.clone(), 4 << 30, 60)
    }

    /// A container-shaped guest (no OS region) with `src` launched in it.
    fn launched(clock: &Clock, host: &HostMemory, profile: RuntimeProfile, src: &str) -> Guest {
        let mut guest = Guest::new(host, Layout::GUEST_MEM_BYTES, 0);
        guest.launch(GuestRuntime::launch(clock, profile, src, JitConfig::default()).expect("ok"));
        guest
    }

    fn invoke(guest: &mut Guest, clock: &Clock, n: i64) {
        let rt = guest.runtime_mut().expect("launched");
        rt.run_toplevel(clock, &mut NoopHost).expect("module body");
        rt.invoke(clock, "main", vec![Value::Int(n)], &mut NoopHost)
            .expect("runs");
    }

    #[test]
    fn sync_covers_runtime_and_code() {
        let clock = Clock::new();
        let guest = launched(&clock, &host(&clock), RuntimeProfile::node(), SRC);
        let rt = guest.runtime().expect("launched");
        let expected_min = rt.profile().base_image_bytes / PAGE_SIZE as u64;
        assert!(guest.resident_pages() as u64 > expected_min);
    }

    #[test]
    fn invocation_dirty_set_is_much_smaller_than_image() {
        let clock = Clock::new();
        let host = host(&clock);
        let mut guest = launched(&clock, &host, RuntimeProfile::node(), SRC);
        invoke(&mut guest, &clock, 1000);
        guest.sync_runtime_memory();
        let image = guest.capture();

        let mut clone = image.restore(&host);
        let before = host.stats().cow_faults;
        clone.dirty_invocation();
        let dirtied = host.stats().cow_faults - before;
        assert!(
            (dirtied as usize) < image.pages() / 2,
            "dirty set {dirtied} pages vs image {} pages",
            image.pages()
        );
        // The clone's PSS is below its RSS thanks to sharing.
        assert!(clone.pss_bytes() < clone.rss_bytes());
    }

    #[test]
    fn python_invocation_dirties_more_than_node() {
        // Private pages an invocation adds to a restored clone: CoW'd heap
        // pages plus freshly allocated exec-state pages.
        let dirty_pages = |profile: RuntimeProfile| {
            let clock = Clock::new();
            let host = host(&clock);
            let image = launched(&clock, &host, profile, SRC).capture();
            let mut clone = image.restore(&host);
            let live_before = host.live_frames();
            clone.dirty_invocation();
            host.live_frames() - live_before
        };
        let node = dirty_pages(RuntimeProfile::node());
        let python = dirty_pages(RuntimeProfile::python());
        // Python's exec state (11 MiB) dwarfs Node's lazy 3 MiB.
        assert!(
            python > 2 * node,
            "python dirty {python} !> node dirty {node}"
        );
    }

    #[test]
    fn dirty_invocation_never_dirties_heap_beyond_the_materialised_extent() {
        let clock = Clock::new();
        let host = host(&clock);
        let image = launched(&clock, &host, RuntimeProfile::node(), HOARDER).capture();
        let mut clone = image.restore(&host);
        let extent = clone.layout.heap;

        // The heap outgrows what is materialised and nobody syncs.
        invoke(&mut clone, &clock, 400_000);
        let live = clone.runtime().expect("restored").heap_bytes();
        assert!(
            (live as f64 * Layout::HEAP_DIRTY_FRACTION) as u64 > extent,
            "live heap {live} must outgrow the extent {extent} for the clamp to bind"
        );
        let before = host.stats().cow_faults;
        clone.dirty_invocation();

        // Heap pages of the image were CoW-copied, up to the fraction of
        // the extent; nothing else the invocation writes was in the image.
        let dirtied = (extent as f64 * Layout::HEAP_DIRTY_FRACTION) as u64;
        assert_eq!(
            host.stats().cow_faults - before,
            dirtied.div_ceil(PAGE_SIZE as u64)
        );
        // No page between the extent and the next region is mapped.
        let page = |addr: u64| addr as usize / PAGE_SIZE;
        let beyond = page(Layout::HEAP_BASE + extent)..page(Layout::EXEC_STATE_BASE);
        assert!(clone.space.mapped().all(|(p, _)| !beyond.contains(&p)));
        assert_eq!(clone.layout.heap, extent, "only a sync extends the heap");
    }
}
