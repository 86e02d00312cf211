//! The host frame table: reference-counted frames, CoW, swap onset, and
//! the mapping groups through which snapshot images share frames lazily.

use std::cell::{Ref, RefCell};
use std::num::NonZeroU32;
use std::rc::Rc;

use fireworks_sim::cost::MemCosts;
use fireworks_sim::hash::fnv1a;
use fireworks_sim::Clock;

use crate::image::Image;
use crate::table::{Slab, Sparse};

/// Size of one guest-physical page / host frame in bytes.
pub const PAGE_SIZE: usize = 4096;

/// FNV-1a of an all-zero page: the checksum of every frame that was only
/// touched for accounting (no data write), precomputed so checksumming a
/// mostly-untouched VM image costs O(frames), not O(bytes).
const ZERO_PAGE_FNV: u64 = fnv1a(&[0u8; PAGE_SIZE]);

/// Identifier of a host frame. Non-zero so `Option<FrameId>` is pointer
/// sized in page tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameId(NonZeroU32);

impl FrameId {
    fn index(self) -> u32 {
        self.0.get() - 1
    }

    fn from_index(i: u32) -> FrameId {
        // Frame table indices are bounded far below u32::MAX in practice;
        // the +1 keeps zero free for the niche.
        FrameId(NonZeroU32::new(i + 1).expect("index + 1 is non-zero"))
    }
}

/// End of a holder chain.
const NO_NEXT: u32 = u32::MAX;

/// Back-pointer from a frame to a mapping group that lists it: position
/// `idx` of `group`. The first holder sits in the frame's entry; a frame
/// held by several images (canonical chunks under dedup, a capture of a
/// restored clone) chains the rest through `HostInner::overflow`.
#[derive(Debug, Clone, Copy)]
struct Holder {
    group: u32,
    idx: u32,
    next: u32,
}

#[derive(Debug)]
struct FrameEntry {
    /// Explicit owners: page-table mappings plus pins.
    refs: u32,
    /// How many of `refs` are pins (snapshot files, chunk stores): owners
    /// that keep the frame alive without mapping it, excluded from PSS.
    pins: u32,
    /// Byte contents, allocated lazily on the first data write. Frames
    /// touched only for accounting read back as zeroes.
    data: Option<Box<[u8; PAGE_SIZE]>>,
    holder: Option<Holder>,
}

impl FrameEntry {
    fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.data.get_or_insert_with(|| {
            let zeroed = vec![0u8; PAGE_SIZE].into_boxed_slice();
            zeroed.try_into().expect("one page")
        })
    }

    fn checksum(&self) -> u64 {
        match &self.data {
            Some(data) => fnv1a(&data[..]),
            None => ZERO_PAGE_FNV,
        }
    }

    /// Moves the explicit owner counts by `refs` / `pins`, telling each
    /// holder (its `explicit` counter) when the frame gains its first or
    /// loses its last explicit mapper. Returns whether no owner is left
    /// (the caller frees the frame).
    ///
    /// Inlined into every caller so the constant deltas of `retain`,
    /// `pin`, `release` and `unpin` fold; the rarer halves (`notify`
    /// beyond the first holder, `HostInner::free`) stay out of line so
    /// those callers stay small.
    #[inline(always)]
    fn shift(
        &mut self,
        refs: i32,
        pins: i32,
        overflow: &Slab<Holder>,
        groups: &mut Slab<Group>,
    ) -> bool {
        let before = self.refs > self.pins;
        self.refs = self
            .refs
            .checked_add_signed(refs)
            .expect("release of dead frame");
        self.pins = self
            .pins
            .checked_add_signed(pins)
            .expect("unpin without pin");
        let after = self.refs > self.pins;
        if let (true, Some(first)) = (before != after, self.holder) {
            groups.get_mut(first.group).count_explicit(after);
            if first.next != NO_NEXT {
                notify(Some(*overflow.get(first.next)), after, overflow, groups);
            }
        }
        // No pin left means no live image lists the frame any more.
        debug_assert!(self.refs > 0 || self.holder.is_none(), "freed a held frame");
        self.refs == 0
    }

    /// Lists the frame at position `idx` of `group`, whose own `explicit`
    /// counter the caller keeps: returns whether the frame counts there.
    /// A group that was the frame's only holder is noted in `shared`.
    fn hold(
        &mut self,
        group: u32,
        idx: u32,
        overflow: &mut Slab<Holder>,
        groups: &mut Slab<Group>,
        shared: &mut Vec<u32>,
    ) -> bool {
        let mut node = Holder {
            group,
            idx,
            next: NO_NEXT,
        };
        if let Some(first) = &mut self.holder {
            if first.next == NO_NEXT {
                groups.get_mut(first.group).multi += 1;
                if shared.last() != Some(&first.group) {
                    shared.push(first.group);
                }
            }
            node.next = first.next;
            first.next = overflow.insert(node);
            groups.get_mut(group).multi += 1;
        } else {
            self.holder = Some(node);
        }
        self.refs > self.pins
    }

    /// Unlists the frame from position `idx` of `group` (whose counters
    /// are not kept: it is going away).
    fn unhold(
        &mut self,
        group: u32,
        idx: u32,
        overflow: &mut Slab<Holder>,
        groups: &mut Slab<Group>,
    ) {
        let is = |h: &Holder| (h.group, h.idx) == (group, idx);
        let first = self.holder.as_mut().expect("listed frame has a holder");
        if is(first) {
            self.holder = (first.next != NO_NEXT).then(|| overflow.remove(first.next));
        } else {
            let (mut prev, mut at) = (None, first.next);
            while !is(overflow.get(at)) {
                (prev, at) = (Some(at), overflow.get(at).next);
            }
            let next = overflow.remove(at).next;
            match prev {
                None => first.next = next,
                Some(prev) => overflow.get_mut(prev).next = next,
            }
        }
        if let Some(last) = self.holder.filter(|h| h.next == NO_NEXT) {
            groups.get_mut(last.group).multi -= 1;
        }
    }
}

/// A snapshot image as the frame table sees it. The image file pins
/// every listed frame; clones restored from it map all of them, and while
/// the group is *lazy* those mappings appear in no frame's `refs`:
/// position `idx` simply has `sharers − departed[idx]` more mappers.
///
/// Lazy needs the image to be the frames' only holder and its file to
/// live. When another image comes to list one of the frames (canonical
/// chunks under dedup, a capture of a restored clone) or the file is
/// dropped first, the outstanding lazy mappings are made explicit
/// references ([`HostInner::materialise`]) and the group's clones hold,
/// take and release plain references — the eager design — until none is
/// left and the next restore decides afresh.
#[derive(Debug)]
pub(crate) struct Group {
    image: Rc<Image>,
    /// Live clones restored from the image.
    sharers: u32,
    /// Whether those clones map lazily; decided when the first attaches.
    lazy: bool,
    /// Position → lazy sharers that moved that page into their overlay.
    departed: Sparse<u32>,
    /// Positions whose frame also has explicit mappers (`refs > pins`).
    explicit: u32,
    /// Positions whose frame is listed by another position or group too.
    multi: u32,
    /// A full verify pass succeeded and no listed frame was poked since.
    verified: bool,
    /// The image file still exists (and pins the frames).
    file: bool,
}

impl Group {
    /// One of the listed frames gained its first explicit mapper, or
    /// lost its last.
    fn count_explicit(&mut self, gained: bool) {
        self.explicit = if gained {
            self.explicit + 1
        } else {
            self.explicit - 1
        };
    }
}

#[derive(Debug)]
pub(crate) struct HostInner {
    frames: Slab<FrameEntry>,
    overflow: Slab<Holder>,
    groups: Slab<Group>,
    live_frames: usize,
    ram_bytes: u64,
    swappiness: f64,
    cow_faults: u64,
    zero_fills: u64,
}

/// The host's physical memory: a frame table shared by all address spaces
/// and snapshot files of one simulated machine.
///
/// Clones share the same underlying table (like [`Clock`]).
///
/// # Examples
///
/// ```
/// use fireworks_guestmem::{HostMemory, PAGE_SIZE};
/// use fireworks_sim::Clock;
///
/// let host = HostMemory::new(Clock::new(), 1 << 30, 60);
/// let f = host.alloc_zero();
/// host.retain(f);
/// assert_eq!(host.mappers(f), 2);
/// // Writing through a shared frame copies it.
/// let f2 = host.prepare_write(f);
/// assert_ne!(f, f2);
/// ```
#[derive(Debug, Clone)]
pub struct HostMemory {
    inner: Rc<RefCell<HostInner>>,
    clock: Clock,
    costs: Rc<MemCosts>,
}

impl HostMemory {
    /// Creates a host with `ram_bytes` of physical memory and a Linux-style
    /// `swappiness` (0–100): swapping begins once used memory exceeds
    /// `swappiness`% of RAM, matching the paper's Fig. 10 methodology
    /// (`vm.swappiness = 60`).
    pub fn new(clock: Clock, ram_bytes: u64, swappiness: u8) -> Self {
        Self::with_costs(clock, ram_bytes, swappiness, MemCosts::default())
    }

    /// Like [`HostMemory::new`] with an explicit memory cost table.
    pub fn with_costs(clock: Clock, ram_bytes: u64, swappiness: u8, costs: MemCosts) -> Self {
        HostMemory {
            inner: Rc::new(RefCell::new(HostInner {
                frames: Slab::default(),
                overflow: Slab::default(),
                groups: Slab::default(),
                live_frames: 0,
                ram_bytes,
                swappiness: f64::from(swappiness.min(100)) / 100.0,
                cow_faults: 0,
                zero_fills: 0,
            })),
            clock,
            costs: Rc::new(costs),
        }
    }

    /// Whether `other` is a handle to this same frame table (frame ids
    /// mean nothing on any other).
    pub fn is_same_host(&self, other: &HostMemory) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Allocates a fresh zero frame with one reference.
    pub fn alloc_zero(&self) -> FrameId {
        self.clock.advance(self.costs.zero_fill);
        let mut inner = self.inner.borrow_mut();
        inner.zero_fills += 1;
        inner.alloc(None)
    }

    /// Adds a mapping reference to a frame.
    pub fn retain(&self, id: FrameId) {
        self.inner.borrow_mut().shift(id, 1, 0);
    }

    /// Adds a pin: an owner that does not count as a PSS mapper.
    pub fn pin(&self, id: FrameId) {
        self.inner.borrow_mut().shift(id, 1, 1);
    }

    /// Drops a mapping reference; frees the frame when the last owner goes.
    pub fn release(&self, id: FrameId) {
        self.inner.borrow_mut().shift(id, -1, 0);
    }

    /// Drops a pin.
    pub fn unpin(&self, id: FrameId) {
        self.inner.borrow_mut().shift(id, -1, -1);
    }

    /// Drops the mapping reference each entry of a page table holds (the
    /// table is going away) under a single borrow of the frame table.
    pub(crate) fn release_all(&self, mapped: &Sparse<Option<FrameId>>) {
        let mut inner = self.inner.borrow_mut();
        let frames = mapped.iter().map(|(_, frame)| frame.expect("set entry"));
        frames.for_each(|id| inner.shift(id, -1, 0));
    }

    /// Prepares a frame for writing: returns `id` unchanged when this is
    /// the only owner, otherwise performs a copy-on-write fault — the
    /// caller's reference moves to a private copy and the shared frame
    /// loses one reference.
    pub fn prepare_write(&self, id: FrameId) -> FrameId {
        // A lazily mapped frame is pinned by its image, so one owner in
        // total means no lazy mapper either.
        if self.inner.borrow().entry(id).refs == 1 {
            return id;
        }
        self.clock.advance(self.costs.cow_fault);
        let mut inner = self.inner.borrow_mut();
        inner.shift(id, -1, 0);
        inner.cow_copy(id)
    }

    /// Writes bytes into a frame at `offset`. The caller must have made the
    /// frame private with [`HostMemory::prepare_write`] first.
    ///
    /// Invariant: a pinned frame is never rewritten in place — a stored
    /// snapshot page changes only through [`HostMemory::poke_frame`],
    /// which is what lets an image cache "verified".
    ///
    /// # Panics
    ///
    /// Panics if the write crosses the frame boundary, the frame is
    /// shared, or its one owner is a pin.
    pub fn write_frame(&self, id: FrameId, offset: usize, bytes: &[u8]) {
        assert!(offset + bytes.len() <= PAGE_SIZE, "write crosses frame");
        let mut inner = self.inner.borrow_mut();
        let e = inner.frames.get_mut(id.index());
        assert_eq!(e.refs, 1, "write to shared frame without CoW");
        assert_eq!(e.pins, 0, "write to a pinned (stored) frame");
        e.bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Flips bytes in a frame *without* the CoW private-ownership check —
    /// modelling bit-rot / media corruption of stored data rather than a
    /// guest write. Shared and pinned frames are corrupted in place, which
    /// is exactly what makes undetected corruption dangerous: every clone
    /// restored from the frame sees the damage. Every image listing the
    /// frame forgets that it verified. Used by fault-injection tests
    /// together with snapshot checksum verification.
    ///
    /// # Panics
    ///
    /// Panics if the write crosses the frame boundary.
    pub fn poke_frame(&self, id: FrameId, offset: usize, bytes: &[u8]) {
        assert!(offset + bytes.len() <= PAGE_SIZE, "poke crosses frame");
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let e = inner.frames.get_mut(id.index());
        e.bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
        for h in chain(&inner.overflow, e.holder) {
            inner.groups.get_mut(h.group).verified = false;
        }
    }

    /// Copies bytes out of a frame at `offset`. Unwritten frames read as
    /// zeroes.
    pub fn read_frame(&self, id: FrameId, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= PAGE_SIZE, "read crosses frame");
        let inner = self.inner.borrow();
        match &inner.entry(id).data {
            Some(data) => buf.copy_from_slice(&data[offset..offset + buf.len()]),
            None => buf.fill(0),
        }
    }

    /// Copies a frame's contents from another host's frame table into a
    /// fresh frame on this host — the receive side of a cross-host chunk
    /// transfer. Unmaterialised source frames (all-zero pages that exist
    /// only for accounting) stay unmaterialised in the copy, so shipping
    /// the mostly-untouched parts of a VM image does not inflate either
    /// host's byte footprint. The new frame has one reference, owned by
    /// the caller. The wire cost of moving the bytes is charged by the
    /// network model, not here; only the local zero-fill allocation cost
    /// applies.
    pub fn clone_frame_from(&self, src_host: &HostMemory, src: FrameId) -> FrameId {
        let data = src_host.inner.borrow().entry(src).data.clone();
        let id = self.alloc_zero();
        if data.is_some() {
            self.inner.borrow_mut().frames.get_mut(id.index()).data = data;
        }
        id
    }

    /// FNV-1a checksum of a frame's stored contents. Unwritten frames
    /// hash as all-zeroes (matching how they read) without scanning any
    /// bytes, so checksumming a whole VM image is cheap.
    pub fn checksum_frame(&self, id: FrameId) -> u64 {
        self.inner.borrow().entry(id).checksum()
    }

    /// Number of PSS mappers of a frame: explicit owners minus pins, plus
    /// the lazy mappers of every image that lists it. Exact at any moment.
    pub fn mappers(&self, id: FrameId) -> u32 {
        self.inner.borrow().mappers(id)
    }

    /// Total live frames on the host.
    pub fn live_frames(&self) -> usize {
        self.inner.borrow().live_frames
    }

    /// Total bytes of host memory in use (live frames × page size).
    pub fn used_bytes(&self) -> u64 {
        self.live_frames() as u64 * PAGE_SIZE as u64
    }

    /// The byte threshold at which the host starts swapping.
    pub fn swap_threshold_bytes(&self) -> u64 {
        let inner = self.inner.borrow();
        (inner.ram_bytes as f64 * inner.swappiness) as u64
    }

    /// Whether used memory has crossed the swap-onset threshold.
    pub fn is_swapping(&self) -> bool {
        self.used_bytes() > self.swap_threshold_bytes()
    }

    /// Aggregate counters, for tests and benches.
    pub fn stats(&self) -> MemoryStats {
        let inner = self.inner.borrow();
        MemoryStats {
            live_frames: inner.live_frames,
            used_bytes: inner.live_frames as u64 * PAGE_SIZE as u64,
            cow_faults: inner.cow_faults,
            zero_fills: inner.zero_fills,
        }
    }
}

/// The mapping-group side of the table, used by [`crate::SnapshotFile`]
/// (register / verify / drop) and [`crate::AddressSpace`] (attach, leave
/// one page, detach).
impl HostMemory {
    /// Registers an image as a new group — one pass, one borrow: pins
    /// each frame (`consume` turns the caller's reference into the pin
    /// instead of adding one), records the back-pointer and checksums the
    /// stored page. Returns the group and the checksums.
    pub(crate) fn register(&self, image: &Rc<Image>, consume: bool) -> (u32, Vec<u64>) {
        let mut inner = self.inner.borrow_mut();
        let group = inner.groups.insert(Group {
            image: image.clone(),
            sharers: 0,
            lazy: false,
            departed: Sparse::default(),
            explicit: 0,
            multi: 0,
            verified: false,
            file: true,
        });
        let HostInner {
            frames,
            overflow,
            groups,
            ..
        } = &mut *inner;
        let (mut explicit, mut shared) = (0, Vec::new());
        let sums = image.frames.iter().enumerate().map(|(idx, &(_, id))| {
            let e = frames.get_mut(id.index());
            e.shift(i32::from(!consume), 1, overflow, groups);
            explicit += u32::from(e.hold(group, idx as u32, overflow, groups, &mut shared));
            e.checksum()
        });
        let sums = sums.collect();
        groups.get_mut(group).explicit = explicit;
        // Images this one now shares a frame with stop being lazy.
        shared
            .into_iter()
            .for_each(|other| inner.materialise(other));
        (group, sums)
    }

    /// The image file of `group` is dropped: its clones keep every frame
    /// they still map alive exactly as eager per-page references would.
    pub(crate) fn drop_file(&self, group: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.materialise(group);
        let HostInner {
            frames,
            overflow,
            groups,
            live_frames,
            ..
        } = &mut *inner;
        let image = groups.get(group).image.clone();
        for (idx, &(_, id)) in image.frames.iter().enumerate() {
            let e = frames.get_mut(id.index());
            e.unhold(group, idx as u32, overflow, groups);
            if e.shift(-1, -1, overflow, groups) {
                frames.remove(id.index());
                *live_frames -= 1;
            }
        }
        let g = groups.get_mut(group);
        g.file = false;
        if g.sharers == 0 {
            groups.remove(group);
        }
    }

    /// A clone is restored from `group`'s image: lazily — one more mapper
    /// on every position, no frame touched — unless the image shares
    /// frames or already has eager clones, which costs a reference each.
    pub(crate) fn attach(&self, group: u32) {
        let mut inner = self.inner.borrow_mut();
        let g = inner.groups.get_mut(group);
        assert!(g.file, "restore from a dropped snapshot file");
        if g.sharers == 0 {
            g.lazy = g.multi == 0;
        }
        g.sharers += 1;
        if !g.lazy {
            let image = g.image.clone();
            image
                .frames
                .iter()
                .for_each(|(_, id)| inner.shift(*id, 1, 0));
        }
    }

    /// A clone stops mapping position `idx` (`frame`) of its base.
    pub(crate) fn leave(&self, group: u32, idx: usize, frame: FrameId) {
        let mut inner = self.inner.borrow_mut();
        let g = inner.groups.get_mut(group);
        if g.lazy {
            *g.departed.entry(idx) += 1;
        } else {
            inner.shift(frame, -1, 0);
        }
    }

    /// A clone's first write to position `idx` (`frame`) of its base:
    /// returns the private frame to map instead. For a lazy clone that is
    /// always a CoW copy (the file's pin is a second owner).
    pub(crate) fn cow_out(&self, group: u32, idx: usize, frame: FrameId) -> FrameId {
        let mut inner = self.inner.borrow_mut();
        let g = inner.groups.get_mut(group);
        if !g.lazy {
            drop(inner);
            return self.prepare_write(frame);
        }
        *g.departed.entry(idx) += 1;
        self.clock.advance(self.costs.cow_fault);
        inner.cow_copy(frame)
    }

    /// A clone of `group` goes away, having left the positions in `left`.
    pub(crate) fn detach(&self, group: u32, left: &mut [u32]) {
        let mut inner = self.inner.borrow_mut();
        let g = inner.groups.get_mut(group);
        g.sharers -= 1;
        if g.lazy {
            left.iter()
                .for_each(|idx| *g.departed.entry(*idx as usize) -= 1);
            return;
        }
        // Every position not left holds a reference.
        let image = g.image.clone();
        if !g.file && g.sharers == 0 {
            inner.groups.remove(group);
        }
        left.sort_unstable();
        let mut left = left.iter().peekable();
        for (idx, &(_, id)) in image.frames.iter().enumerate() {
            if left.next_if(|l| **l as usize == idx).is_none() {
                inner.shift(id, -1, 0);
            }
        }
    }

    /// Whether `group`'s image verified and was not poked since.
    pub(crate) fn verified(&self, group: u32) -> bool {
        self.inner.borrow().groups.get(group).verified
    }

    /// Records a successful full verify pass over `group`'s image.
    pub(crate) fn mark_verified(&self, group: u32) {
        self.inner.borrow_mut().groups.get_mut(group).verified = true;
    }

    /// Read access to the table for one accounting pass.
    pub(crate) fn table(&self) -> Ref<'_, HostInner> {
        self.inner.borrow()
    }
}

/// Every group on the chain from `first` is told that the frame gained
/// its first explicit mapper, or lost its last.
#[inline(never)]
fn notify(first: Option<Holder>, gained: bool, overflow: &Slab<Holder>, groups: &mut Slab<Group>) {
    for h in chain(overflow, first) {
        groups.get_mut(h.group).count_explicit(gained);
    }
}

/// A frame's holders from `first` (the one in its entry) on.
fn chain(overflow: &Slab<Holder>, first: Option<Holder>) -> impl Iterator<Item = Holder> + '_ {
    let mut next = first;
    std::iter::from_fn(move || {
        let h = next?;
        next = (h.next != NO_NEXT).then(|| *overflow.get(h.next));
        Some(h)
    })
}

impl HostInner {
    fn entry(&self, id: FrameId) -> &FrameEntry {
        self.frames.get(id.index())
    }

    fn alloc(&mut self, data: Option<Box<[u8; PAGE_SIZE]>>) -> FrameId {
        self.live_frames += 1;
        let fresh = FrameEntry {
            refs: 1,
            pins: 0,
            data,
            holder: None,
        };
        FrameId::from_index(self.frames.insert(fresh))
    }

    /// The copy half of a CoW fault: a private frame with `id`'s bytes.
    fn cow_copy(&mut self, id: FrameId) -> FrameId {
        self.cow_faults += 1;
        let data = self.entry(id).data.clone();
        self.alloc(data)
    }

    /// [`FrameEntry::shift`], freeing the frame when the last owner goes.
    #[inline(always)]
    fn shift(&mut self, id: FrameId, refs: i32, pins: i32) {
        let e = self.frames.get_mut(id.index());
        if e.shift(refs, pins, &self.overflow, &mut self.groups) {
            self.free(id);
        }
    }

    #[inline(never)]
    fn free(&mut self, id: FrameId) {
        self.frames.remove(id.index());
        self.live_frames -= 1;
    }

    /// Makes `group`'s outstanding lazy mappings explicit references,
    /// position by position, and its clones eager.
    fn materialise(&mut self, group: u32) {
        let g = self.groups.get_mut(group);
        if !g.lazy || g.sharers == 0 {
            return;
        }
        g.lazy = false;
        let (image, sharers, departed) =
            (g.image.clone(), g.sharers, std::mem::take(&mut g.departed));
        for (idx, &(_, id)) in image.frames.iter().enumerate() {
            self.shift(id, (sharers - departed.get(idx)) as i32, 0);
        }
    }

    /// See [`HostMemory::mappers`]. Only a frame's sole holder can be
    /// lazy, so there is no chain to walk.
    pub(crate) fn mappers(&self, id: FrameId) -> u32 {
        let e = self.entry(id);
        let lazy = e.holder.filter(|h| h.next == NO_NEXT).map_or(0, |h| {
            let g = self.groups.get(h.group);
            u32::from(g.lazy) * (g.sharers - g.departed.get(h.idx as usize))
        });
        e.refs - e.pins + lazy
    }

    /// `group`'s sharer count and departed map, if every position's
    /// mappers are exactly `sharers − departed[idx]`: its clones are lazy
    /// and no listed frame has an explicit mapper. Otherwise positions
    /// are counted one by one.
    pub(crate) fn uniform(&self, group: u32) -> Option<(u32, &Sparse<u32>)> {
        let g = self.groups.get(group);
        (g.lazy && g.explicit == 0).then_some((g.sharers, &g.departed))
    }
}

/// Aggregate host memory counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// Live frames in the table.
    pub live_frames: usize,
    /// Live frames × page size.
    pub used_bytes: u64,
    /// Copy-on-write faults served since creation.
    pub cow_faults: u64,
    /// Zero-fill allocations served since creation.
    pub zero_fills: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostMemory {
        HostMemory::new(Clock::new(), 1 << 30, 60)
    }

    #[test]
    fn alloc_retain_release_lifecycle() {
        let h = host();
        let f = h.alloc_zero();
        assert_eq!(h.live_frames(), 1);
        h.retain(f);
        h.release(f);
        assert_eq!(h.live_frames(), 1);
        h.release(f);
        assert_eq!(h.live_frames(), 0);
    }

    #[test]
    fn freed_slots_are_reused() {
        let h = host();
        let a = h.alloc_zero();
        h.release(a);
        let b = h.alloc_zero();
        assert_eq!(a, b, "free list should recycle the slot");
    }

    #[test]
    fn prepare_write_is_noop_when_private() {
        let h = host();
        let f = h.alloc_zero();
        assert_eq!(h.prepare_write(f), f);
        assert_eq!(h.stats().cow_faults, 0);
    }

    #[test]
    fn prepare_write_copies_when_shared() {
        let h = host();
        let f = h.alloc_zero();
        h.write_frame(f, 0, b"abc");
        h.retain(f);
        let g = h.prepare_write(f);
        assert_ne!(f, g);
        assert_eq!(h.stats().cow_faults, 1);
        // The copy preserves the original contents.
        let mut buf = [0u8; 3];
        h.read_frame(g, 0, &mut buf);
        assert_eq!(&buf, b"abc");
        // Writing to the copy does not disturb the original.
        h.write_frame(g, 0, b"xyz");
        h.read_frame(f, 0, &mut buf);
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn cow_advances_virtual_clock() {
        let clock = Clock::new();
        let h = HostMemory::new(clock.clone(), 1 << 30, 60);
        let f = h.alloc_zero();
        h.retain(f);
        let before = clock.now();
        let _ = h.prepare_write(f);
        assert!(clock.now() > before);
    }

    #[test]
    fn unwritten_frames_read_zero() {
        let h = host();
        let f = h.alloc_zero();
        let mut buf = [7u8; 16];
        h.read_frame(f, 100, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn pins_do_not_count_as_mappers() {
        let h = host();
        let f = h.alloc_zero();
        h.pin(f);
        assert_eq!(h.mappers(f), 1);
        h.retain(f);
        assert_eq!(h.mappers(f), 2);
        h.unpin(f);
        h.release(f);
        h.release(f);
        assert_eq!(h.live_frames(), 0);
    }

    #[test]
    fn swap_threshold_tracks_swappiness() {
        let clock = Clock::new();
        let h = HostMemory::new(clock, 100 * PAGE_SIZE as u64, 60);
        assert_eq!(h.swap_threshold_bytes(), 60 * PAGE_SIZE as u64);
        for _ in 0..60 {
            let _ = h.alloc_zero();
        }
        assert!(!h.is_swapping());
        let _ = h.alloc_zero();
        assert!(h.is_swapping());
    }

    #[test]
    #[should_panic(expected = "write to shared frame")]
    fn writing_shared_frame_panics() {
        let h = host();
        let f = h.alloc_zero();
        h.retain(f);
        h.write_frame(f, 0, b"no");
    }

    #[test]
    #[should_panic(expected = "write crosses frame")]
    fn cross_frame_write_panics() {
        let h = host();
        let f = h.alloc_zero();
        h.write_frame(f, PAGE_SIZE - 1, b"ab");
    }

    #[test]
    #[should_panic(expected = "write to a pinned (stored) frame")]
    fn writing_a_frame_owned_only_by_a_pin_panics() {
        // A stored snapshot page whose last mapper left: rewriting it in
        // place would bypass both CoW and checksum invalidation.
        let h = host();
        let f = h.alloc_zero();
        h.pin(f);
        h.release(f);
        h.write_frame(f, 0, b"no");
    }

    #[test]
    fn frame_entries_did_not_grow_with_the_back_pointer() {
        assert!(std::mem::size_of::<Option<FrameEntry>>() <= 32);
    }

    #[test]
    fn is_same_host_tells_tables_apart() {
        let h = host();
        assert!(h.is_same_host(&h.clone()));
        assert!(!h.is_same_host(&host()));
    }
}
