//! The host frame table: reference-counted frames, CoW, swap onset, and
//! the mapping groups through which snapshot images share frames lazily.

use std::cell::{Ref, RefCell};
use std::num::NonZeroU64;
use std::rc::Rc;

use fireworks_sim::cost::MemCosts;
use fireworks_sim::hash::fnv1a;
use fireworks_sim::Clock;

use crate::image::Image;
use crate::table::Slab;

/// Size of one guest-physical page / host frame in bytes.
pub const PAGE_SIZE: usize = 4096;

/// The share of RAM in use past which a host swaps: Linux's default
/// `vm.swappiness = 60`, which the paper's Fig. 10 host runs.
pub const SWAP_ONSET: f64 = 0.6;

/// FNV-1a of an all-zero page: the checksum of every frame that was only
/// touched for accounting (no data write), so such pages cost nothing to
/// checksum.
pub(crate) const ZERO_PAGE_FNV: u64 = fnv1a(&[0u8; PAGE_SIZE]);

type Page = [u8; PAGE_SIZE];

/// Identifier of a host frame: frame `offset` of frame-table entry `slot`.
/// Non-zero so `Option<FrameId>` is a word in page tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameId(NonZeroU64);

impl FrameId {
    fn new(slot: u32, offset: u32) -> FrameId {
        let raw = (u64::from(slot) + 1) << 32 | u64::from(offset);
        FrameId(NonZeroU64::new(raw).expect("slot + 1 is non-zero"))
    }

    fn slot(self) -> u32 {
        (self.0.get() >> 32) as u32 - 1
    }

    fn offset(self) -> u32 {
        self.0.get() as u32
    }

    /// The frame `k` further on in the same entry.
    pub(crate) fn add(self, k: usize) -> FrameId {
        FrameId(
            self.0
                .checked_add(k as u64)
                .expect("offsets stay in their entry"),
        )
    }
}

/// Guest pages `page..page + len` on frames `frame`, `frame + 1`, … of one
/// frame-table entry: how images, chunk stores and page tables name the
/// runs of frames one `touch_dirty` allocated together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// The first guest page.
    pub page: usize,
    /// The frame of the first page.
    pub frame: FrameId,
    /// Pages (and frames) covered.
    pub len: usize,
}

impl Extent {
    /// `(guest page, frame)` of every page, in order.
    pub fn frames(self) -> impl Iterator<Item = (usize, FrameId)> {
        (0..self.len).map(move |k| (self.page + k, self.frame.add(k)))
    }

    /// Splits off and returns the first `k` pages (`k <= len`).
    pub fn take_front(&mut self, k: usize) -> Extent {
        let head = Extent { len: k, ..*self };
        (self.page, self.frame, self.len) = (self.page + k, self.frame.add(k), self.len - k);
        head
    }

    /// Whether `next` starts on the page and frame after this one ends,
    /// so that the two are one extent.
    pub fn continued_by(&self, next: &Extent) -> bool {
        let frame = self.frame.0.get() + self.len as u64;
        self.page + self.len == next.page && frame == next.frame.0.get()
    }
}

/// Position `idx` of mapping group `group`'s image: one listing of a
/// frame. An image lists a frame at most once (a frame has one guest
/// page).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Listing {
    group: u32,
    idx: u32,
}

impl Listing {
    /// The listing `k` positions on in the same image.
    fn plus(self, k: u32) -> Listing {
        Listing {
            idx: self.idx + k,
            ..self
        }
    }
}

/// Frames of one entry with the same owner counts, listed by the same
/// images at consecutive positions.
#[derive(Debug)]
struct Piece {
    /// Explicit owners: page-table mappings plus pins.
    refs: u32,
    /// How many of `refs` are pins (snapshot files, chunk stores): owners
    /// that keep the frame alive without mapping it, excluded from PSS.
    pins: u32,
    /// The *live* listings of its first frame (its file pins it or a
    /// clone maps it lazily), in the order the images registered; the
    /// frame `k` further on is listed `k` positions on in each. Boxed, so
    /// that a frame no image lists (a CoW copy) stays a 32-byte entry.
    listed: Option<Box<Listed>>,
    /// Bytes of a one-frame piece, allocated on its first data write.
    /// Frames touched only for accounting read back as zeroes.
    data: Option<Box<Page>>,
}

/// A piece's listings (never empty).
#[derive(Debug)]
struct Listed(Vec<Listing>);

impl Piece {
    fn bytes_mut(&mut self) -> &mut Page {
        self.data.get_or_insert_with(|| {
            let zeroed = vec![0u8; PAGE_SIZE].into_boxed_slice();
            zeroed.try_into().expect("one page")
        })
    }

    fn checksum(&self) -> u64 {
        self.data
            .as_ref()
            .map_or(ZERO_PAGE_FNV, |data| fnv1a(&data[..]))
    }

    /// The listings of its frame `k` further on than its first.
    fn listed(&self, k: u32) -> impl Iterator<Item = Listing> + '_ {
        let listed = self.listed.iter().flat_map(|l| &l.0);
        listed.map(move |l| l.plus(k))
    }

    /// Edits the listings of its first frame.
    fn relist(&mut self, edit: impl FnOnce(&mut Vec<Listing>)) {
        let mut listed = self.listed.take().map_or_else(Vec::new, |l| l.0);
        edit(&mut listed);
        self.listed = (!listed.is_empty()).then(|| Box::new(Listed(listed)));
    }

    /// Its frames from the `k`-th on, as a piece of their own.
    fn tail(&self, k: u32) -> Piece {
        let listed: Vec<Listing> = self.listed(k).collect();
        let listed = (!listed.is_empty()).then(|| Box::new(Listed(listed)));
        let (refs, pins, data) = (self.refs, self.pins, None);
        Piece {
            refs,
            pins,
            listed,
            data,
        }
    }

    /// No owner left: its frames are free.
    fn dead(&self) -> bool {
        self.refs == 0 && self.listed.is_none()
    }
}

/// A frame-table entry: one frame (a CoW copy, a written page), or the
/// run one `touch_dirty` allocated, boxed so that a frame of its own stays
/// a 32-byte entry.
#[derive(Debug)]
enum Slot {
    One(Piece),
    Run(Box<Run>),
}

/// `len` frames as pieces, each with the offset of its first frame, in
/// order: one, until frames diverge (an owner count, a listing, a data
/// write) and cut it.
#[derive(Debug)]
struct Run {
    len: u32,
    pieces: Vec<(u32, Piece)>,
}

/// The index of the piece of `ps` starting at entry offset `at`, cut off
/// the piece covering it if need be (never a one-frame data piece).
fn cut(ps: &mut Vec<(u32, Piece)>, at: u32) -> usize {
    let i = ps.partition_point(|(first, _)| *first <= at) - 1;
    if ps[i].0 == at {
        return i;
    }
    let tail = ps[i].1.tail(at - ps[i].0);
    ps.insert(i + 1, (at, tail));
    i + 1
}

/// Applies `each(piece, frames, offset past lo)` to the pieces of `run`
/// covering offsets `lo..lo + n`, cut to that range, then joins equal
/// neighbours. Returns the frames that died and whether all did.
#[inline(never)]
fn update_run(
    run: &mut Run,
    lo: u32,
    n: usize,
    each: &mut dyn FnMut(&mut Piece, usize, usize),
) -> (usize, bool) {
    let (len, ps, hi) = (run.len, &mut run.pieces, lo + n as u32);
    let (a, b) = (cut(ps, lo), if hi < len { cut(ps, hi) } else { ps.len() });
    let mut freed = 0;
    for i in a..b {
        let (at, end) = (ps[i].0, ps.get(i + 1).map_or(len, |q| q.0));
        let (p, frames) = (&mut ps[i].1, (end - at) as usize);
        let live = !p.dead();
        each(p, frames, (at - lo) as usize);
        if live && p.dead() {
            (freed, p.data) = (freed + frames, None);
        }
    }
    for i in (a.max(1)..(b + 1).min(ps.len())).rev() {
        let ((at, p), (next, q)) = (&ps[i - 1], &ps[i]);
        let blank = p.data.is_none() && q.data.is_none();
        let listed = p.listed(next - at).eq(q.listed(0));
        if blank && listed && (p.refs, p.pins) == (q.refs, q.pins) {
            ps.remove(i);
        }
    }
    (freed, ps.len() == 1 && ps[0].1.dead())
}

/// Part of a piece: `(offset past the first frame asked for, frames,
/// piece, how far into the piece the part starts)`.
type Clip<'a> = (usize, usize, &'a Piece, u32);

/// The frame table: entries of one frame or one run each.
#[derive(Debug, Default)]
struct Frames {
    slots: Slab<Slot>,
    live: usize,
}

impl Frames {
    // Inlined so the entry is written in place (see `Slab::insert`).
    #[inline(always)]
    fn alloc(&mut self, len: usize, data: Option<Box<Page>>) -> FrameId {
        self.live += len;
        let (refs, pins, listed) = (1, 0, None);
        let first = Piece {
            refs,
            pins,
            listed,
            data,
        };
        let slot = match len {
            1 => Slot::One(first),
            _ => Slot::Run(Box::new(Run {
                len: len as u32,
                pieces: vec![(0, first)],
            })),
        };
        FrameId::new(self.slots.insert(slot), 0)
    }

    /// The piece frame `id` is in, how far into it the frame is, and how
    /// many of its frames are left from there.
    #[inline]
    fn get(&self, id: FrameId) -> (&Piece, u32, u32) {
        let at = id.offset();
        match self.slots.get(id.slot()) {
            Slot::One(p) => (p, at, 1),
            Slot::Run(run) => {
                let i = run.pieces.partition_point(|q| q.0 <= at) - 1;
                let end = run.pieces.get(i + 1).map_or(run.len, |q| q.0);
                (&run.pieces[i].1, at - run.pieces[i].0, end - at)
            }
        }
    }

    /// `(offset past id, frames, piece, how far into it)` of the pieces
    /// covering frames `id..id + n`, clipped to them.
    fn pieces(&self, id: FrameId, n: usize) -> impl Iterator<Item = Clip<'_>> {
        let (lo, hi) = (id.offset(), id.offset() + n as u32);
        let (one, run) = match self.slots.get(id.slot()) {
            Slot::One(p) => (Some((0, 1, p, 0)), None),
            Slot::Run(run) => (None, Some(run)),
        };
        let clipped = run.into_iter().flat_map(move |run| {
            let first = run.pieces.partition_point(|q| q.0 <= lo) - 1;
            let ends = run.pieces[first + 1..].iter().map(|q| q.0).chain([run.len]);
            let covering = run.pieces[first..].iter().zip(ends);
            let covering = covering.take_while(move |((at, _), _)| *at < hi);
            covering.map(move |((at, p), end)| {
                let from = lo.max(*at);
                (
                    (from - lo) as usize,
                    (end.min(hi) - from) as usize,
                    p,
                    from - at,
                )
            })
        });
        one.into_iter().chain(clipped)
    }

    /// [`update_run`] on frames `id..id + n` of one entry, freeing what
    /// died and the entry once all of it did.
    #[inline]
    fn update(&mut self, id: FrameId, n: usize, mut each: impl FnMut(&mut Piece, usize, usize)) {
        let (freed, gone) = match self.slots.get_mut(id.slot()) {
            Slot::One(p) => {
                each(p, 1, 0);
                (usize::from(p.dead()), p.dead())
            }
            Slot::Run(run) => update_run(run, id.offset(), n, &mut each),
        };
        self.live -= freed;
        if gone {
            self.slots.remove(id.slot());
        }
    }
}

/// Position → clones that moved that page of a group's image into their
/// overlay, for the positions some clone left, ascending (no zero count).
/// A group holds a few hundred, so readers slice it by binary search.
#[derive(Debug, Default)]
struct Departures {
    list: Vec<(u32, u32)>,
    /// Just past the last [`Departures::add`]: a clone faults in page
    /// order, and the clone before it often left the same positions.
    next: usize,
}

impl Departures {
    /// Clones that left position `idx`.
    fn at(&self, idx: u32) -> u32 {
        let i = self.list.binary_search_by_key(&idx, |d| d.0);
        i.map_or(0, |i| self.list[i].1)
    }

    /// The departures at positions `from..from + n`.
    fn within(&self, from: usize, n: usize) -> &[(u32, u32)] {
        let below = |end: usize| move |d: &(u32, u32)| (d.0 as usize) < end;
        let lo = self.list.partition_point(below(from));
        &self.list[lo..lo + self.list[lo..].partition_point(below(from + n))]
    }

    /// Every departure where all of `sharers` left.
    fn everyone_left(&self, sharers: u32) -> impl Iterator<Item = u32> + '_ {
        let all = self.list.iter().filter(move |d| d.1 == sharers);
        all.map(|d| d.0)
    }

    /// One more clone left `idx`.
    fn add(&mut self, idx: u32) {
        let list = &mut self.list;
        let i = match list.get(self.next) {
            Some(d) if d.0 == idx => self.next,
            None if list.last().is_none_or(|d| d.0 < idx) => list.len(),
            _ => list.partition_point(|d| d.0 < idx),
        };
        match list.get_mut(i) {
            Some(d) if d.0 == idx => d.1 += 1,
            _ => list.insert(i, (idx, 1)),
        }
        self.next = i + 1;
        self.check();
    }

    /// A clone that left the positions `left` (ascending) went away.
    fn take_back(&mut self, left: &[u32]) {
        let mut left = left.iter().peekable();
        self.list.retain_mut(|(idx, n)| {
            *n -= u32::from(left.next_if_eq(&&*idx).is_some());
            *n > 0
        });
        debug_assert!(left.next().is_none(), "took back a departure not made");
        self.check();
    }

    fn check(&self) {
        let ascending = || self.list.windows(2).all(|w| w[0].0 < w[1].0);
        debug_assert!(ascending() && self.list.iter().all(|d| d.1 > 0), "{self:?}");
    }
}

/// A snapshot image as the frame table sees it. Clones restored from it
/// map every listed frame lazily, in no frame's `refs`: position `idx`
/// has `sharers − departed[idx]` more mappers, in every image listing
/// the frame. The file pins every listed frame; dropped before the
/// clones, it leaves the group *orphaned*, and the last clone takes it
/// along.
#[derive(Debug)]
pub(crate) struct Group {
    image: Rc<Image>,
    /// Live clones restored from the image.
    sharers: u32,
    /// Where its clones left the image.
    departed: Departures,
    /// A full verify pass succeeded and no listed frame was poked since.
    verified: bool,
    /// No listed frame held data at registration or was poked since, so
    /// a CoW copy out of the image copies nothing.
    blank: bool,
    /// The image file still exists (and pins the frames).
    file: bool,
}

impl Group {
    /// Clones mapping position `idx` lazily.
    fn mappers_at(&self, idx: u32) -> u32 {
        self.sharers - self.departed.at(idx)
    }
}

#[derive(Debug)]
pub(crate) struct HostInner {
    frames: Frames,
    groups: Slab<Group>,
    ram_bytes: u64,
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
/// let host = HostMemory::new(Clock::new(), 1 << 30);
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
    /// Creates a host with `ram_bytes` of physical memory; swapping
    /// begins once used memory exceeds [`SWAP_ONSET`] of it.
    pub fn new(clock: Clock, ram_bytes: u64) -> Self {
        Self::with_costs(clock, ram_bytes, MemCosts::default())
    }

    /// Like [`HostMemory::new`] with an explicit memory cost table.
    pub fn with_costs(clock: Clock, ram_bytes: u64, costs: MemCosts) -> Self {
        HostMemory {
            inner: Rc::new(RefCell::new(HostInner {
                frames: Frames::default(),
                groups: Slab::default(),
                ram_bytes,
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
        let frame = self.open_run(1);
        self.seal_run(frame, 1);
        frame
    }

    /// Allocates up to `cap` zero frames as one entry, for a caller that
    /// says with [`HostMemory::seal_run`] how many it used.
    pub(crate) fn open_run(&self, cap: usize) -> FrameId {
        self.inner.borrow_mut().frames.alloc(cap, None)
    }

    /// Keeps the first `len` frames of an open run, one reference each,
    /// charged as `len` zero fills.
    pub(crate) fn seal_run(&self, run: FrameId, len: usize) {
        self.clock.advance(self.costs.zero_fill * len as u64);
        let mut inner = self.inner.borrow_mut();
        inner.zero_fills += len as u64;
        if let Slot::Run(r) = inner.frames.slots.get_mut(run.slot()) {
            let cap = std::mem::replace(&mut r.len, len as u32);
            inner.frames.live -= cap as usize - len;
        }
    }

    /// Adds a mapping reference to a frame.
    pub fn retain(&self, id: FrameId) {
        self.inner.borrow_mut().shift(id, 1, 1, 0);
    }

    /// Drops a mapping reference; frees the frame when the last owner goes.
    pub fn release(&self, id: FrameId) {
        self.inner.borrow_mut().shift(id, 1, -1, 0);
    }

    /// [`HostMemory::retain`] on every frame of `e`, a piece at a time.
    pub fn retain_extent(&self, e: &Extent) {
        self.inner.borrow_mut().shift(e.frame, e.len, 1, 0);
    }

    /// [`HostMemory::release`] on every frame of `e`, a piece at a time.
    pub fn release_extent(&self, e: &Extent) {
        self.inner.borrow_mut().shift(e.frame, e.len, -1, 0);
    }

    /// Releases every frame of `extents` under one borrow of the table:
    /// an address space's overlay going away.
    pub(crate) fn release_all(&self, extents: &[Extent]) {
        let mut inner = self.inner.borrow_mut();
        extents
            .iter()
            .for_each(|e| inner.shift(e.frame, e.len, -1, 0));
    }

    /// Pins every frame of `e`: an owner that does not count as a PSS
    /// mapper (a snapshot file, a chunk store).
    pub fn pin_extent(&self, e: &Extent) {
        self.inner.borrow_mut().shift(e.frame, e.len, 1, 1);
    }

    /// Drops a pin on every frame of `e`.
    pub fn unpin_extent(&self, e: &Extent) {
        self.inner.borrow_mut().shift(e.frame, e.len, -1, -1);
    }

    /// Prepares a frame for writing: returns `id` unchanged when this is
    /// the only owner, otherwise performs a copy-on-write fault — the
    /// caller's reference moves to a private copy and the shared frame
    /// loses one reference.
    pub fn prepare_write(&self, id: FrameId) -> FrameId {
        if self.private_ahead(id) > 0 {
            return id;
        }
        self.clock.advance(self.costs.cow_fault);
        let mut inner = self.inner.borrow_mut();
        inner.shift(id, 1, -1, 0);
        let data = inner.frames.get(id).0.data.clone();
        inner.cow_copy(data)
    }

    /// How many frames from `id` on, to the end of its piece, a write may
    /// change in place: all of them if the caller's reference is their
    /// one owner (no pin, no other mapping, no listing), else none.
    pub(crate) fn private_ahead(&self, id: FrameId) -> usize {
        let inner = self.inner.borrow();
        let (e, _, left) = inner.frames.get(id);
        if e.refs == 1 && e.listed.is_none() {
            left as usize
        } else {
            0
        }
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
        inner.frames.update(id, 1, |e, _, _| {
            assert_eq!(e.refs, 1, "write to shared frame without CoW");
            assert_eq!(e.pins, 0, "write to a pinned (stored) frame");
            e.bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
        });
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
        let mut listed = Vec::new();
        inner.frames.update(id, 1, |e, _, _| {
            e.bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
            listed.extend(e.listed(0).map(|l| l.group));
        });
        for group in listed {
            let g = inner.groups.get_mut(group);
            (g.verified, g.blank) = (false, false);
        }
    }

    /// Copies bytes out of a frame at `offset`. Unwritten frames read as
    /// zeroes.
    pub fn read_frame(&self, id: FrameId, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= PAGE_SIZE, "read crosses frame");
        let inner = self.inner.borrow();
        match &inner.frames.get(id).0.data {
            Some(data) => buf.copy_from_slice(&data[offset..offset + buf.len()]),
            None => buf.fill(0),
        }
    }

    /// Copies the frames of `e` from another host's frame table into one
    /// fresh entry here (with one reference each, owned by the caller) at
    /// the same pages — the receive side of a cross-host chunk transfer.
    /// Unwritten source frames (pages that exist only for accounting) stay
    /// unwritten in the copy, so shipping the mostly-untouched parts of a
    /// VM image inflates neither host's byte footprint. Only the zero-fill
    /// cost is charged here; the network model charges the wire.
    pub fn copy_extent_from(&self, src_host: &HostMemory, e: Extent) -> Extent {
        let src = src_host.inner.borrow();
        let pieces = src.frames.pieces(e.frame, e.len);
        let data: Vec<_> = pieces
            .filter_map(|(at, _, p, _)| Some((at, p.data.clone()?)))
            .collect();
        drop(src);
        let frame = self.open_run(e.len);
        self.seal_run(frame, e.len);
        let mut inner = self.inner.borrow_mut();
        for (at, bytes) in data {
            let mut bytes = Some(bytes);
            inner
                .frames
                .update(frame.add(at), 1, |p, _, _| p.data = bytes.take());
        }
        Extent { frame, ..e }
    }

    /// FNV-1a checksum of a frame's stored contents. Unwritten frames
    /// hash as all-zeroes (matching how they read) without scanning any
    /// bytes, so checksumming a whole VM image is cheap.
    pub fn checksum_frame(&self, id: FrameId) -> u64 {
        self.inner.borrow().frames.get(id).0.checksum()
    }

    /// Number of PSS mappers of a frame: explicit owners minus pins, plus
    /// the lazy mappers of every image that lists it — `sharers −
    /// departed[idx]` at its position there. Exact at any moment, and
    /// constant time for a frame one image lists.
    pub fn mappers(&self, id: FrameId) -> u32 {
        self.inner.borrow().mappers_ahead(id).0
    }

    /// Total live frames on the host.
    pub fn live_frames(&self) -> usize {
        self.inner.borrow().frames.live
    }

    /// Total bytes of host memory in use (live frames × page size).
    pub fn used_bytes(&self) -> u64 {
        self.live_frames() as u64 * PAGE_SIZE as u64
    }

    /// The byte threshold at which the host starts swapping.
    pub fn swap_threshold_bytes(&self) -> u64 {
        (self.inner.borrow().ram_bytes as f64 * SWAP_ONSET) as u64
    }

    /// Whether used memory has crossed the swap-onset threshold.
    pub fn is_swapping(&self) -> bool {
        self.used_bytes() > self.swap_threshold_bytes()
    }

    /// Aggregate counters, for tests and benches.
    pub fn stats(&self) -> MemoryStats {
        let inner = self.inner.borrow();
        MemoryStats {
            live_frames: inner.frames.live,
            used_bytes: inner.frames.live as u64 * PAGE_SIZE as u64,
            cow_faults: inner.cow_faults,
            zero_fills: inner.zero_fills,
        }
    }
}

/// The mapping-group side of the table, used by [`crate::SnapshotFile`]
/// (register / verify / drop) and [`crate::AddressSpace`] (attach, leave
/// one page, detach).
impl HostMemory {
    /// Registers an image as a new group in one pass over its pieces:
    /// pins them (`consume` turns the caller's reference into the pin
    /// instead of adding one) and lists them. Returns the group and the
    /// `(position, checksum)` of each page that holds data.
    pub(crate) fn register(&self, image: &Rc<Image>, consume: bool) -> (u32, Vec<(u32, u64)>) {
        let mut inner = self.inner.borrow_mut();
        let group = inner.groups.insert(Group {
            image: image.clone(),
            sharers: 0,
            departed: Departures::default(),
            verified: false,
            blank: true,
            file: true,
        });
        let mut sums = Vec::new();
        for &(at, e) in image.runs() {
            inner.shift(e.frame, e.len, i32::from(!consume), 1);
            inner.frames.update(e.frame, e.len, |p, _, off| {
                let idx = (at + off) as u32;
                p.relist(|listed| listed.push(Listing { group, idx }));
                sums.extend(p.data.is_some().then(|| (idx, p.checksum())));
            });
        }
        inner.groups.get_mut(group).blank = sums.is_empty();
        (group, sums)
    }

    /// `(position, checksum)` of the pages of `image` whose frames hold
    /// data now, in position order.
    pub(crate) fn data_sums(&self, image: &Image) -> Vec<(u32, u64)> {
        let (inner, mut sums) = (self.inner.borrow(), Vec::new());
        for &(at, e) in image.runs() {
            let stored = inner.frames.pieces(e.frame, e.len);
            let stored = stored.filter(|(_, _, p, _)| p.data.is_some());
            sums.extend(stored.map(|(off, _, p, _)| ((at + off) as u32, p.checksum())));
        }
        sums
    }

    /// The image file of `group` is dropped: its pins go, and its clones,
    /// if any, go on mapping lazily from the orphaned group.
    pub(crate) fn drop_file(&self, group: u32) {
        let mut inner = self.inner.borrow_mut();
        let g = inner.groups.get_mut(group);
        g.file = false;
        let (image, sharers) = (g.image.clone(), g.sharers);
        for &(_, e) in image.runs() {
            inner.shift(e.frame, e.len, -1, -1);
        }
        if sharers == 0 {
            inner.unlist(group, 0, image.pages());
            inner.groups.remove(group);
            return;
        }
        // Only where every clone left is the listing no longer live.
        let gone = inner.groups.get(group).departed.everyone_left(sharers);
        for idx in gone.collect::<Vec<_>>() {
            inner.unlist(group, idx as usize, 1);
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

    /// A clone stops mapping position `idx` of its base.
    pub(crate) fn leave(&self, group: u32, idx: usize) {
        self.inner.borrow_mut().depart(group, idx);
    }

    /// A clone's first write to position `idx` (`frame`) of its base:
    /// returns the private frame to map instead — a CoW copy, unless the
    /// clone is its last owner (no file pins it), which takes it over.
    pub(crate) fn cow_out(&self, group: u32, idx: usize, frame: FrameId) -> FrameId {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let g = inner.groups.get_mut(group);
        if g.file {
            // The file pins the frame, whose listing stays live: a copy,
            // of bytes only if the image holds any.
            g.departed.add(idx as u32);
            let data = (!g.blank).then(|| inner.frames.get(frame).0.data.clone());
            self.clock.advance(self.costs.cow_fault);
            return inner.cow_copy(data.flatten());
        }
        let (e, k, _) = inner.frames.get(frame);
        let private = if e.refs + inner.lazy_mappers(e, k) == 1 {
            inner.shift(frame, 1, 1, 0);
            frame
        } else {
            self.clock.advance(self.costs.cow_fault);
            let data = e.data.clone();
            inner.cow_copy(data)
        };
        inner.depart(group, idx);
        private
    }

    /// A clone of `group` goes away, having left the positions in `left`.
    pub(crate) fn detach(&self, group: u32, left: &mut [u32]) {
        left.sort_unstable();
        let mut inner = self.inner.borrow_mut();
        let g = inner.groups.get_mut(group);
        g.sharers -= 1;
        g.departed.take_back(left);
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
}

impl HostInner {
    /// The copy half of a CoW fault: a private frame with the bytes.
    #[inline]
    fn cow_copy(&mut self, data: Option<Box<Page>>) -> FrameId {
        self.cow_faults += 1;
        self.frames.alloc(1, data)
    }

    /// Moves the explicit owner counts of frames `id..id + n` by `refs` /
    /// `pins`, freeing what has no owner left. Inlined into every caller
    /// so the constant deltas fold.
    #[inline(always)]
    fn shift(&mut self, id: FrameId, n: usize, refs: i32, pins: i32) {
        self.frames.update(id, n, |e, _, _| {
            e.refs = e
                .refs
                .checked_add_signed(refs)
                .expect("release of dead frame");
            e.pins = e.pins.checked_add_signed(pins).expect("unpin without pin");
        });
    }

    /// One clone stops mapping `group`'s position `idx` lazily.
    fn depart(&mut self, group: u32, idx: usize) {
        let g = self.groups.get_mut(group);
        g.departed.add(idx as u32);
        // Neither the file nor a clone owns the listing any more.
        if !g.file && g.mappers_at(idx as u32) == 0 {
            self.unlist(group, idx, 1);
        }
    }

    /// `group`'s listings at positions `from..from + n` stop being live:
    /// they leave their frames, which are freed if no owner is left.
    fn unlist(&mut self, group: u32, from: usize, n: usize) {
        let image = self.groups.get(group).image.clone();
        let mut at = from;
        while at < from + n {
            let (run, e) = image.run_at(at);
            let end = (run + e.len).min(from + n);
            self.frames
                .update(e.frame.add(at - run), end - at, |p, _, _| {
                    p.relist(|listed| listed.retain(|l| l.group != group));
                });
            at = end;
        }
    }

    /// Clones mapping frame `k` of piece `e` lazily, through every image
    /// listing it.
    fn lazy_mappers(&self, e: &Piece, k: u32) -> u32 {
        let lazy = |l: Listing| self.groups.get(l.group).mappers_at(l.idx);
        e.listed(k).map(lazy).sum()
    }

    /// The mappers of frame `id`, and how many frames from it on have as
    /// many: the rest of its piece if no image lists it, else just it.
    pub(crate) fn mappers_ahead(&self, id: FrameId) -> (u32, u32) {
        let (e, k, left) = self.frames.get(id);
        let left = if e.listed.is_none() { left } else { 1 };
        (e.refs - e.pins + self.lazy_mappers(e, k), left)
    }

    /// A clone of orphaned `group` went away, having left `left` (sorted):
    /// where every other clone had left (everywhere, if it was the last),
    /// it was the last lazy mapper. The last clone takes the group along.
    #[inline(never)]
    fn orphan_detached(&mut self, group: u32, left: &[u32]) {
        let g = self.groups.get(group);
        let sharers = g.sharers;
        if sharers == 0 {
            // The positions it left stopped being live as it left them.
            let mut at = 0;
            for idx in left.iter().map(|l| *l as usize).chain([g.image.pages()]) {
                self.unlist(group, at, idx - at);
                at = idx + 1;
            }
            self.groups.remove(group);
            return;
        }
        let stayed = |idx: &u32| left.binary_search(idx).is_err();
        let last: Vec<u32> = g.departed.everyone_left(sharers).filter(stayed).collect();
        for idx in last {
            self.unlist(group, idx as usize, 1);
        }
    }

    /// Runs `(end, mappers)` covering `group`'s image, equal neighbours
    /// joined. The frames of a piece have the same mappers — its explicit
    /// ones plus the lazy ones of each image listing it — except where a
    /// clone of one of those images departed.
    pub(crate) fn base_runs(&self, group: u32) -> Vec<(usize, u32)> {
        let g = self.groups.get(group);
        let mut runs: Vec<(usize, u32)> = Vec::new();
        let mut push = |end: usize, mappers: u32| match runs.last_mut() {
            Some((last, same)) if *same == mappers => *last = end,
            _ => runs.push((end, mappers)),
        };
        // `(offset into a piece, clones that left it)`, of every listing.
        let mut departed: Vec<(usize, u32)> = Vec::new();
        for &(at, e) in g.image.runs() {
            // No position of the run is live (every clone of the orphan
            // left it): no clone sums it, and its frames may be freed.
            let dead = g.departed.within(at, e.len).iter();
            if !g.file && dead.filter(|d| d.1 == g.sharers).count() == e.len {
                push(at + e.len, 0);
                continue;
            }
            for (off, len, p, k) in self.frames.pieces(e.frame, e.len) {
                let (from, mut level) = (at + off, p.refs - p.pins);
                departed.clear();
                for l in p.listed(k) {
                    let other = self.groups.get(l.group);
                    level += other.sharers;
                    let left = other.departed.within(l.idx as usize, len);
                    departed.extend(left.iter().map(|&(idx, n)| ((idx - l.idx) as usize, n)));
                }
                departed.sort_unstable();
                for same in departed.chunk_by(|a, b| a.0 == b.0) {
                    let gone: u32 = same.iter().map(|d| d.1).sum();
                    push(from + same[0].0, level);
                    push(from + same[0].0 + 1, level - gone);
                }
                push(from + len, level);
            }
        }
        runs
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
pub(crate) mod tests {
    use super::*;

    /// Explicit owners of frame `id`.
    pub(crate) fn refs(h: &HostMemory, id: FrameId) -> u32 {
        h.inner.borrow().frames.get(id).0.refs
    }

    /// Frame-table entries and the pieces they are cut into.
    pub(crate) fn entries(h: &HostMemory) -> (usize, usize) {
        let inner = h.inner.borrow();
        let pieces = |s: &Slot| match s {
            Slot::One(_) => 1,
            Slot::Run(run) => run.pieces.len(),
        };
        let slots = crate::table::tests::live(&inner.frames.slots);
        (slots.clone().count(), slots.map(pieces).sum())
    }

    fn host() -> HostMemory {
        HostMemory::new(Clock::new(), 1 << 30)
    }

    fn one(frame: FrameId) -> Extent {
        Extent {
            page: 0,
            frame,
            len: 1,
        }
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
        let h = HostMemory::new(clock.clone(), 1 << 30);
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
        h.pin_extent(&one(f));
        assert_eq!(h.mappers(f), 1);
        h.retain(f);
        assert_eq!(h.mappers(f), 2);
        h.unpin_extent(&one(f));
        h.release(f);
        h.release(f);
        assert_eq!(h.live_frames(), 0);
    }

    #[test]
    fn swap_threshold_tracks_swappiness() {
        let clock = Clock::new();
        let h = HostMemory::new(clock, 100 * PAGE_SIZE as u64);
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
        h.pin_extent(&one(f));
        h.release(f);
        h.write_frame(f, 0, b"no");
    }

    #[test]
    fn frame_entries_did_not_grow_with_the_back_pointer() {
        // Nor with runs: a frame of its own is 32 bytes, a page-table
        // entry a word.
        assert!(std::mem::size_of::<Option<Slot>>() <= 32);
        assert_eq!(std::mem::size_of::<Option<FrameId>>(), 8);
    }

    #[test]
    fn departures_follow_the_live_clones_through_an_orphaned_group() {
        let h = host();
        let frame = h.open_run(16);
        h.seal_run(frame, 16);
        let image = Rc::new(Image::new([Extent {
            page: 0,
            frame,
            len: 16,
        }]));
        let (group, _) = h.register(&image, true);
        // Three clones, restored in order, each with the positions it left
        // (in fault order) and the private frames it maps instead.
        let mut left: Vec<Vec<u32>> = vec![Vec::new(); 3];
        let mut copies: Vec<Vec<FrameId>> = vec![Vec::new(); 3];
        let mut cow = |clone: usize, idx: u32| {
            left[clone].push(idx);
            let private = h.cow_out(group, idx as usize, image.frame_at(idx as usize));
            copies[clone].push(private);
        };
        (0..3).for_each(|_| h.attach(group));
        for (clone, idx) in [(0, 9), (1, 5), (2, 2), (1, 15), (0, 2), (1, 2)] {
            cow(clone, idx);
        }
        // Position 2, which every clone left, stops being live here.
        h.drop_file(group);
        for (clone, idx) in [(0, 5), (2, 11), (1, 0)] {
            cow(clone, idx);
        }
        let departed = || h.inner.borrow().groups.get(group).departed.list.clone();
        let mut live = vec![0, 1, 2];
        for gone in [1, 2, 0] {
            copies[gone].iter().for_each(|&f| h.release(f));
            live.retain(|&c| c != gone);
            h.detach(group, &mut left[gone]);
            if live.is_empty() {
                break;
            }
            let mut all: Vec<u32> = live.iter().flat_map(|&c| left[c].clone()).collect();
            all.sort_unstable();
            let counts = all
                .chunk_by(|a, b| a == b)
                .map(|same| (same[0], same.len() as u32));
            assert_eq!(departed(), counts.collect::<Vec<_>>(), "after clone {gone}");
        }
        let groups = crate::table::tests::live(&h.inner.borrow().groups).count();
        assert_eq!((groups, h.live_frames()), (0, 0));
    }

    #[test]
    fn is_same_host_tells_tables_apart() {
        let h = host();
        assert!(h.is_same_host(&h.clone()));
        assert!(!h.is_same_host(&host()));
    }
}
