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

/// Position `idx` of mapping group `group`'s image: one listing of a
/// frame. An image lists a frame at most once (a frame has one guest
/// page).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Holder {
    group: u32,
    idx: u32,
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
    /// A *live* listing of the frame (its file pins it or a clone maps it
    /// lazily), if any; that group's sharing map holds the others. A
    /// listing no longer live may name a freed and reused slot.
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
}

/// A run of a sharing map: positions `start..end` of the group's image
/// list the same frames as another image from listing `first` on.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: u32,
    end: u32,
    first: Holder,
}

impl Segment {
    /// The other image's listing of the frame at covered position `idx`.
    fn lister(&self, idx: u32) -> Holder {
        let idx = self.first.idx + idx - self.start;
        Holder { idx, ..self.first }
    }
}

/// The segments of a sharing map (sorted by start) covering `idx`.
fn covering(map: &[Segment], idx: u32) -> impl Iterator<Item = &Segment> {
    let started = map.partition_point(|s| s.start <= idx);
    map[..started].iter().filter(move |s| s.end > idx)
}

/// A snapshot image as the frame table sees it. Clones restored from it
/// map every listed frame lazily, in no frame's `refs`: position `idx`
/// has `sharers − departed[idx]` more mappers, in every image listing
/// the frame — which the *sharing map* finds, a run of positions at a
/// time. The file pins every listed frame; dropped before the clones, it
/// leaves the group *orphaned*, and the last clone takes it along.
#[derive(Debug)]
pub(crate) struct Group {
    image: Rc<Image>,
    /// Live clones restored from the image.
    sharers: u32,
    /// Position → sharers that moved that page into their overlay.
    departed: Sparse<u32>,
    /// Frames whose held listing is here that also have explicit mappers.
    explicit: u32,
    /// Other images' listings of its frames, as segments sorted by start.
    sharing: Vec<Segment>,
    /// A full verify pass succeeded and no listed frame was poked since.
    verified: bool,
    /// The image file still exists (and pins the frames).
    file: bool,
}

impl Group {
    /// Clones mapping position `idx` lazily.
    fn mappers_at(&self, idx: u32) -> u32 {
        self.sharers - self.departed.get(idx as usize)
    }

    /// Whether the listing at `idx` owns its frame (a pin or a clone).
    fn live(&self, idx: u32) -> bool {
        self.file || self.mappers_at(idx) > 0
    }
}

#[derive(Debug)]
pub(crate) struct HostInner {
    frames: Slab<FrameEntry>,
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
        let inner = self.inner.borrow();
        let e = inner.entry(id);
        // The caller's reference alone: no pin, no mapping, no holder.
        if e.refs == 1 && e.holder.is_none() {
            return id;
        }
        drop(inner);
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
        let e = inner.frames.get_mut(id.index());
        e.bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
        let first = e.holder;
        let listings = first.into_iter().flat_map(|first| inner.listings(first));
        for group in listings.map(|l| l.group).collect::<Vec<_>>() {
            inner.groups.get_mut(group).verified = false;
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
    /// the lazy mappers of every image that lists it — `sharers −
    /// departed[idx]` at its position there. Exact at any moment, and
    /// constant time for a frame one image lists.
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
    /// instead of adding one), lists it and checksums the stored page.
    /// Returns the group and the checksums. Its sharing map grows a run at
    /// a time: while each holder is the next in one run of its map, so
    /// are the other listings.
    pub(crate) fn register(&self, image: &Rc<Image>, consume: bool) -> (u32, Vec<u64>) {
        let mut inner = self.inner.borrow_mut();
        let group = inner.groups.insert(Group {
            image: image.clone(),
            sharers: 0,
            departed: Sparse::default(),
            explicit: 0,
            sharing: Vec::new(),
            verified: false,
            file: true,
        });
        let mut sums = Vec::with_capacity(image.frames.len());
        let (mut explicit, mut sharing) = (0, Vec::<Segment>::new());
        // The open run: the position it ends by, and its first segment,
        // whose listings say which holder each position must have.
        let mut run = (0, 0);
        for (idx, &(_, id)) in image.frames.iter().enumerate() {
            let idx = idx as u32;
            inner.shift(id, i32::from(!consume), 1);
            let e = inner.frames.get_mut(id.index());
            sums.push(e.checksum());
            let first = *e.holder.get_or_insert(Holder { group, idx });
            explicit += u32::from(first.group == group && e.refs > e.pins);
            let (end, from) = &mut run;
            if idx < *end && sharing[*from].lister(idx) == first {
                sharing[*from..].iter_mut().for_each(|s| s.end += 1);
                continue;
            }
            *end = 0;
            if first.group == group {
                continue;
            }
            let map = &inner.groups.get(first.group).sharing;
            let after = map.partition_point(|s| s.start <= first.idx);
            let mut stop = map.get(after).map_or(u32::MAX, |s| s.start);
            let others = covering(map, first.idx).map(|s| (s.end, s.lister(first.idx)));
            *from = sharing.len();
            for (lister_end, first) in [(stop, first)].into_iter().chain(others) {
                stop = stop.min(lister_end);
                let (start, end) = (idx, idx + 1);
                sharing.push(Segment { start, end, first });
            }
            *end = (stop - first.idx).saturating_add(idx);
        }
        for s in &sharing {
            let (start, end, idx) = (s.first.idx, s.lister(s.end).idx, s.start);
            let first = Holder { group, idx };
            let map = &mut inner.groups.get_mut(s.first.group).sharing;
            map.push(Segment { start, end, first });
            map.sort_unstable_by_key(|s| s.start);
        }
        let g = inner.groups.get_mut(group);
        (g.explicit, g.sharing) = (explicit, sharing);
        (group, sums)
    }

    /// The image file of `group` is dropped: its pins go, and its clones,
    /// if any, go on mapping lazily from the orphaned group.
    pub(crate) fn drop_file(&self, group: u32) {
        let mut inner = self.inner.borrow_mut();
        let g = inner.groups.get_mut(group);
        g.file = false;
        let (image, sharers) = (g.image.clone(), g.sharers);
        for (idx, &(_, id)) in image.frames.iter().enumerate() {
            let idx = idx as u32;
            inner.shift(id, -1, -1);
            if sharers == 0 || !inner.groups.get(group).live(idx) {
                inner.unlist(group, idx, id);
            }
        }
        if sharers == 0 {
            inner.forget(group);
        }
    }

    /// A clone is restored from `group`'s image: one more mapper on every
    /// position, no frame touched.
    pub(crate) fn attach(&self, group: u32) {
        let mut inner = self.inner.borrow_mut();
        let g = inner.groups.get_mut(group);
        assert!(g.file, "restore from a dropped snapshot file");
        g.sharers += 1;
    }

    /// A clone stops mapping position `idx` (`frame`) of its base.
    pub(crate) fn leave(&self, group: u32, idx: usize, frame: FrameId) {
        self.inner.borrow_mut().depart(group, idx as u32, frame);
    }

    /// A clone's first write to position `idx` (`frame`) of its base:
    /// returns the private frame to map instead — a CoW copy, unless the
    /// clone is its last owner (no file pins it), which takes it over.
    pub(crate) fn cow_out(&self, group: u32, idx: usize, frame: FrameId) -> FrameId {
        let mut inner = self.inner.borrow_mut();
        let e = inner.entry(frame);
        let private = if !inner.groups.get(group).file && e.refs + inner.lazy_mappers(e) == 1 {
            inner.shift(frame, 1, 0);
            frame
        } else {
            self.clock.advance(self.costs.cow_fault);
            inner.cow_copy(frame)
        };
        inner.depart(group, idx as u32, frame);
        private
    }

    /// A clone of `group` goes away, having left the positions in `left`.
    pub(crate) fn detach(&self, group: u32, left: &mut [u32]) {
        let mut inner = self.inner.borrow_mut();
        let g = inner.groups.get_mut(group);
        g.sharers -= 1;
        left.iter()
            .for_each(|idx| *g.departed.entry(*idx as usize) -= 1);
        if !g.file {
            inner.orphan_detached(group, left);
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

    #[cfg(test)]
    pub(crate) fn refs(&self, id: FrameId) -> u32 {
        self.inner.borrow().entry(id).refs
    }
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

    /// Moves a frame's explicit owner counts by `refs` / `pins`, telling
    /// its holder when it gains its first explicit mapper or loses its
    /// last, and freeing it when no owner is left.
    ///
    /// Inlined into every caller so the constant deltas of `retain`,
    /// `pin`, `release` and `unpin` fold; the rarer halves stay out of
    /// line so those callers stay small.
    #[inline(always)]
    fn shift(&mut self, id: FrameId, refs: i32, pins: i32) {
        let e = self.frames.get_mut(id.index());
        let before = e.refs > e.pins;
        e.refs = e
            .refs
            .checked_add_signed(refs)
            .expect("release of dead frame");
        e.pins = e.pins.checked_add_signed(pins).expect("unpin without pin");
        let after = e.refs > e.pins;
        let (first, left) = (e.holder, e.refs);
        if let (true, Some(first)) = (before != after, first) {
            let g = self.groups.get_mut(first.group);
            g.explicit = g.explicit + u32::from(after) - u32::from(!after);
        }
        // A held listing is a live one: a pin, or a clone mapping lazily.
        if left == 0 && first.is_none() {
            self.free(id);
        }
    }

    #[inline(never)]
    fn free(&mut self, id: FrameId) {
        self.frames.remove(id.index());
        self.live_frames -= 1;
    }

    /// One clone stops mapping `group`'s position `idx` (`frame`) lazily.
    fn depart(&mut self, group: u32, idx: u32, frame: FrameId) {
        let g = self.groups.get_mut(group);
        *g.departed.entry(idx as usize) += 1;
        if !g.live(idx) {
            self.unlist(group, idx, frame);
        }
    }

    /// `group`'s listing of `id` at `idx` stops being live: if it held
    /// the frame, it hands that, and its explicit count, to a live one,
    /// or frees a frame that has no owner left.
    fn unlist(&mut self, group: u32, idx: u32, id: FrameId) {
        let here = Holder { group, idx };
        let e = self.entry(id);
        if e.holder != Some(here) {
            return;
        }
        let explicit = e.refs > e.pins;
        // Checked first: the last clone of an orphan unlists every frame.
        let shared = !self.groups.get(group).sharing.is_empty();
        let live = |l: &Holder| self.groups.get(l.group).live(l.idx);
        let next = shared.then(|| self.listings(here).skip(1).find(live));
        let next = next.flatten();
        if explicit {
            self.groups.get_mut(group).explicit -= 1;
            next.iter()
                .for_each(|l| self.groups.get_mut(l.group).explicit += 1);
        }
        let e = self.frames.get_mut(id.index());
        e.holder = next;
        if e.refs == 0 && next.is_none() {
            self.free(id);
        }
    }

    /// Drops `group`, file and clones gone, and its co-listers' segments.
    fn forget(&mut self, group: u32) {
        for s in self.groups.remove(group).sharing {
            let map = &mut self.groups.get_mut(s.first.group).sharing;
            map.retain(|s| s.first.group != group);
        }
    }

    /// Every listing of `first`'s frame: it, then its group's map's.
    fn listings(&self, first: Holder) -> impl Iterator<Item = Holder> + '_ {
        let others = covering(&self.groups.get(first.group).sharing, first.idx);
        std::iter::once(first).chain(others.map(move |s| s.lister(first.idx)))
    }

    /// Clones mapping the frame lazily, through every image listing it.
    fn lazy_mappers(&self, e: &FrameEntry) -> u32 {
        let Some(first) = e.holder else { return 0 };
        let lazy = |l: Holder| self.groups.get(l.group).mappers_at(l.idx);
        self.listings(first).map(lazy).sum()
    }

    /// See [`HostMemory::mappers`].
    pub(crate) fn mappers(&self, id: FrameId) -> u32 {
        let e = self.entry(id);
        e.refs - e.pins + self.lazy_mappers(e)
    }

    /// A clone of orphaned `group` went away, having left `left`: where
    /// every other clone had left (everywhere, if it was the last), it
    /// was the last lazy mapper. The last clone takes the group with it.
    #[inline(never)]
    fn orphan_detached(&mut self, group: u32, left: &mut [u32]) {
        left.sort_unstable();
        let g = self.groups.get(group);
        let (image, sharers) = (g.image.clone(), g.sharers);
        if sharers == 0 {
            let mut left = left.iter().peekable();
            for (idx, &(_, id)) in image.frames.iter().enumerate() {
                if left.next_if(|l| **l as usize == idx).is_none() {
                    self.unlist(group, idx as u32, id);
                }
            }
            return self.forget(group);
        }
        let all_left = g.departed.iter().filter(|&(_, gone)| gone == sharers);
        let stayed = |idx: &u32| left.binary_search(idx).is_err();
        let last: Vec<u32> = all_left.map(|(idx, _)| idx as u32).filter(stayed).collect();
        for idx in last {
            self.unlist(group, idx, image.frames[idx as usize].1);
        }
    }

    /// Runs `(end, mappers)` covering `group`'s image, equal neighbours
    /// joined: its sharers plus those of the images co-listing the run,
    /// except where a clone of any of them departed or a frame has explicit
    /// mappers (scanned for only while any exist): those are looked up.
    pub(crate) fn base_runs(&self, group: u32) -> Vec<(usize, u32)> {
        let g = self.groups.get(group);
        // A position no longer live is never summed (every clone left it),
        // and only a live listing is sure to name its frame.
        let looked_up = |idx: usize| match g.live(idx as u32) {
            true => Err((idx + 1, self.mappers(g.image.frames[idx].1))),
            false => Err((idx + 1, 0)),
        };
        let departed = g.departed.iter().map(|(idx, _)| (idx, looked_up(idx)));
        let mut cuts: Vec<(usize, Cut)> = departed.collect();
        for s in &g.sharing {
            let other = self.groups.get(s.first.group);
            let sharers = other.sharers as i32;
            let (start, end) = (s.start as usize, s.end as usize);
            cuts.extend([(start, Ok(sharers)), (end, Ok(-sharers))]);
            let (at, end) = (s.first.idx as usize, s.lister(s.end).idx as usize);
            let departed = other.departed.iter().skip_while(|(idx, _)| *idx < at);
            let departed = departed.take_while(|(idx, _)| *idx < end);
            let idx = departed.map(|(idx, _)| idx - at + s.start as usize);
            cuts.extend(idx.map(|idx| (idx, looked_up(idx))));
        }
        let held_explicit = |k: u32| self.groups.get(k).explicit > 0;
        if held_explicit(group) || g.sharing.iter().any(|s| held_explicit(s.first.group)) {
            for (idx, &(_, id)) in g.image.frames.iter().enumerate() {
                let e = g.live(idx as u32).then(|| self.entry(id));
                let Some(e) = e.filter(|e| e.refs > e.pins) else {
                    continue;
                };
                let mappers = e.refs - e.pins + self.lazy_mappers(e);
                match cuts.last_mut() {
                    Some((_, Err((end, same)))) if (*end, *same) == (idx, mappers) => *end += 1,
                    _ => cuts.push((idx, Err((idx + 1, mappers)))),
                }
            }
        }
        // Stable: the cuts are a few sorted runs, merged in linear time.
        cuts.sort_by_key(|&(at, _)| at);
        let (mut runs, mut level) = (Vec::new(), g.sharers);
        let push = |runs: &mut Vec<(usize, u32)>, end, mappers| match runs.last_mut() {
            Some((last, same)) if *same == mappers => *last = end,
            _ => runs.push((end, mappers)),
        };
        for (at, cut) in cuts {
            let end = runs.last().map_or(0, |&(end, _)| end);
            if at > end {
                push(&mut runs, at, level);
            }
            match cut {
                Ok(sharers) => level = level.wrapping_add_signed(sharers),
                Err((stop, mappers)) if stop > end => push(&mut runs, stop, mappers),
                Err(_) => {}
            }
        }
        push(&mut runs, g.image.frames.len(), level);
        runs
    }
}

/// From a position on, a step of the sharers, or `(end, mappers)` of the
/// positions up to `end`.
type Cut = Result<i32, (usize, u32)>;

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
