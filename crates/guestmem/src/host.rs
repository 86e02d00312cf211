//! The host frame table: reference-counted frames, CoW, swap onset, and
//! the mapping groups through which snapshot images share frames lazily.

use std::cell::{RefCell, RefMut};
use std::num::NonZeroU64;
use std::ops::Range;
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

    /// Moves the explicit owner counts of frames `id..id + n` by `refs` /
    /// `pins`, freeing what has no owner left. Inlined into every caller
    /// so the constant deltas fold.
    #[inline(always)]
    fn shift(&mut self, id: FrameId, n: usize, refs: i32, pins: i32) {
        self.update(id, n, |e, _, _| {
            e.refs = e
                .refs
                .checked_add_signed(refs)
                .expect("release of dead frame");
            e.pins = e.pins.checked_add_signed(pins).expect("unpin without pin");
        });
    }

    /// `group`'s listings at positions `span` of its `image` stop being
    /// live: they leave their frames, which are freed if no owner is left.
    fn unlist(&mut self, image: &Image, group: u32, span: Range<usize>) {
        let mut at = span.start;
        while at < span.end {
            let (run, e) = image.run_at(at);
            let end = (run + e.len).min(span.end);
            self.update(e.frame.add(at - run), end - at, |p, _, _| {
                p.relist(|listed| listed.retain(|l| l.group != group));
            });
            at = end;
        }
    }
}

/// Positions `start..end` of a group's image, which `count` clones left.
type Departure = (u32, u32, u32);

/// The clones that moved pages of a group's image into their overlay, as
/// runs of positions with equal counts: ascending, disjoint, none empty or
/// of count zero, and no run continued by one of the same count. A clone
/// leaves a stretch of positions at once, and the clones of a function
/// leave the same stretches, so a group holds a handful of runs, however
/// many pages its clones copied.
#[derive(Debug, Default)]
struct Departures {
    runs: Vec<Departure>,
}

impl Departures {
    /// Clones that left position `idx`.
    fn at(&self, idx: u32) -> u32 {
        let i = self.runs.partition_point(|d| d.1 <= idx);
        self.runs.get(i).filter(|d| d.0 <= idx).map_or(0, |d| d.2)
    }

    /// The runs overlapping positions `from..from + n`, unclipped.
    fn within(&self, from: usize, n: usize) -> &[Departure] {
        let lo = self.runs.partition_point(|d| d.1 as usize <= from);
        let overlap = self.runs[lo..].partition_point(|d| (d.0 as usize) < from + n);
        &self.runs[lo..lo + overlap]
    }

    /// The stretches of positions `from..from + n` that `count` clones
    /// left, clipped to them.
    fn left_by(
        &self,
        count: u32,
        from: usize,
        n: usize,
    ) -> impl Iterator<Item = Range<usize>> + '_ {
        let runs = self.within(from, n).iter().filter(move |d| d.2 == count);
        runs.map(move |d| (d.0 as usize).max(from)..(d.1 as usize).min(from + n))
    }

    /// `delta` more clones left positions `lo..hi`; a negative `delta`
    /// takes departures back. Cuts the runs at `lo` and `hi`, shifts the
    /// counts between (a gap becomes a run), then drops zero counts and
    /// joins equal neighbours around the stretch — in place.
    fn shift(&mut self, lo: u32, hi: u32, delta: i32) {
        let v = &mut self.runs;
        for at in [lo, hi] {
            let i = v.partition_point(|d| d.1 <= at);
            if let Some(&(_, end, count)) = v.get(i).filter(|d| d.0 < at) {
                v[i].1 = at;
                v.insert(i + 1, (at, end, count));
            }
        }
        let first = v.partition_point(|d| d.1 <= lo);
        let (mut i, mut at) = (first, lo);
        while at < hi {
            match v.get_mut(i) {
                Some(d) if d.0 == at => {
                    d.2 =
                        d.2.checked_add_signed(delta)
                            .expect("took back a departure not made");
                    at = d.1;
                }
                next => {
                    let end = next.map_or(hi, |d| d.0.min(hi));
                    let count = u32::try_from(delta).expect("took back a departure not made");
                    v.insert(i, (at, end, count));
                    at = end;
                }
            }
            i += 1;
        }
        // Compact runs `first − 1 ..= i` (the stretch and its neighbours).
        let (from, to) = (first.saturating_sub(1), (i + 1).min(v.len()));
        let mut kept = from;
        for r in from..to {
            let d = v[r];
            if d.2 == 0 {
                continue;
            }
            if kept > from && v[kept - 1].1 == d.0 && v[kept - 1].2 == d.2 {
                v[kept - 1].1 = d.1;
            } else {
                v[kept] = d;
                kept += 1;
            }
        }
        v.drain(kept..to);
        self.check();
    }

    fn check(&self) {
        let runs = &self.runs;
        let apart = |w: &[Departure]| w[0].1 < w[1].0 || (w[0].1 == w[1].0 && w[0].2 != w[1].2);
        let valid = || runs.iter().all(|d| d.0 < d.1 && d.2 > 0) && runs.windows(2).all(apart);
        debug_assert!(valid(), "{self:?}");
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
    /// What the last [`HostInner::base_runs`] found, and the departure
    /// edges it swept: kept, so that accounting allocates nothing.
    pub(crate) runs: Vec<(usize, u32)>,
    edges: Vec<(usize, i64)>,
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
                runs: Vec::new(),
                edges: Vec::new(),
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
        self.inner.borrow_mut().frames.shift(id, 1, 1, 0);
    }

    /// Drops a mapping reference; frees the frame when the last owner goes.
    pub fn release(&self, id: FrameId) {
        self.inner.borrow_mut().frames.shift(id, 1, -1, 0);
    }

    /// [`HostMemory::retain`] on every frame of `e`, a piece at a time.
    pub fn retain_extent(&self, e: &Extent) {
        self.inner.borrow_mut().frames.shift(e.frame, e.len, 1, 0);
    }

    /// [`HostMemory::release`] on every frame of `e`, a piece at a time.
    pub fn release_extent(&self, e: &Extent) {
        self.inner.borrow_mut().frames.shift(e.frame, e.len, -1, 0);
    }

    /// Releases every frame of `extents` under one borrow of the table:
    /// an address space's overlay going away.
    pub(crate) fn release_all(&self, extents: &[Extent]) {
        let mut inner = self.inner.borrow_mut();
        extents
            .iter()
            .for_each(|e| inner.frames.shift(e.frame, e.len, -1, 0));
    }

    /// Pins every frame of `e`: an owner that does not count as a PSS
    /// mapper (a snapshot file, a chunk store).
    pub fn pin_extent(&self, e: &Extent) {
        self.inner.borrow_mut().frames.shift(e.frame, e.len, 1, 1);
    }

    /// Drops a pin on every frame of `e`.
    pub fn unpin_extent(&self, e: &Extent) {
        self.inner.borrow_mut().frames.shift(e.frame, e.len, -1, -1);
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
        inner.frames.shift(id, 1, -1, 0);
        inner.cow_copy(id, 1, true)
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
            inner.frames.shift(e.frame, e.len, i32::from(!consume), 1);
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
        let HostInner { frames, groups, .. } = &mut *inner;
        let g = groups.get_mut(group);
        g.file = false;
        for &(_, e) in g.image.runs() {
            frames.shift(e.frame, e.len, -1, -1);
        }
        let pages = g.image.pages();
        if g.sharers == 0 {
            frames.unlist(&g.image, group, 0..pages);
            groups.remove(group);
            return;
        }
        // Only where every clone left is the listing no longer live.
        for gone in g.departed.left_by(g.sharers, 0, pages) {
            frames.unlist(&g.image, group, gone);
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
        self.inner.borrow_mut().depart(group, idx, 1);
    }

    /// A clone's first write to positions `idx..idx + n` of its base, on
    /// frames `frame..frame + n`: returns the first of the private frames
    /// to map instead, consecutive frames of one entry, and how many of
    /// the `n` they cover — all, but in an orphaned group. The frames are
    /// CoW copies, charged a CoW fault each, of the bytes of those that
    /// hold any; where no file pins the frames, a page of which the clone
    /// is the last owner is taken over instead, so there the run ends
    /// where that answer changes. One call serves a write fault (`n = 1`)
    /// and a touch of a whole stretch of the base.
    pub(crate) fn cow_out(
        &self,
        group: u32,
        idx: usize,
        n: usize,
        frame: FrameId,
    ) -> (FrameId, usize) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let g = inner.groups.get(group);
        let blank = g.blank;
        // Where the file pins the frames, their listings stay live: copies.
        let (take, n) = if g.file {
            (false, n)
        } else {
            let last = |j: usize| {
                let (e, k, _) = inner.frames.get(frame.add(j));
                e.refs + inner.lazy_mappers(e, k) == 1
            };
            let take = last(0);
            (take, (1..n).find(|&j| last(j) != take).unwrap_or(n))
        };
        let private = if take {
            inner.frames.shift(frame, n, 1, 0);
            frame
        } else {
            self.clock.advance(self.costs.cow_fault * n as u64);
            inner.cow_copy(frame, n, !blank)
        };
        inner.depart(group, idx, n);
        (private, n)
    }

    /// A clone of `group` goes away, having left the stretches of
    /// positions in `left` (disjoint).
    pub(crate) fn detach(&self, group: u32, left: &mut [Range<u32>]) {
        left.sort_unstable_by_key(|r| r.start);
        let mut inner = self.inner.borrow_mut();
        let g = inner.groups.get_mut(group);
        g.sharers -= 1;
        for r in left.iter() {
            g.departed.shift(r.start, r.end, -1);
        }
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

    /// The table for one accounting pass, which refills its buffers.
    pub(crate) fn table(&self) -> RefMut<'_, HostInner> {
        self.inner.borrow_mut()
    }
}

impl HostInner {
    /// The copy half of a CoW fault: `n` private frames of one entry,
    /// copies of frames `src..src + n` — of the bytes of those that hold
    /// any if `data`, a data piece at a time.
    fn cow_copy(&mut self, src: FrameId, n: usize, data: bool) -> FrameId {
        self.cow_faults += n as u64;
        let copy = self.frames.alloc(n, None);
        let mut at = 0;
        while data && at < n {
            let (p, _, left) = self.frames.get(src.add(at));
            let mut bytes = p.data.clone();
            if bytes.is_some() {
                self.frames
                    .update(copy.add(at), 1, |q, _, _| q.data = bytes.take());
            }
            at += left as usize;
        }
        copy
    }

    /// One clone stops mapping `group`'s positions `from..from + n`
    /// lazily.
    fn depart(&mut self, group: u32, from: usize, n: usize) {
        let g = self.groups.get_mut(group);
        g.departed.shift(from as u32, (from + n) as u32, 1);
        if g.file {
            return;
        }
        // Neither the file nor a clone owns the listing any more.
        let g = self.groups.get(group);
        for gone in g.departed.left_by(g.sharers, from, n) {
            self.frames.unlist(&g.image, group, gone);
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

    /// A clone of orphaned `group` went away, having left the stretches
    /// `left` (sorted): where every other clone had left (everywhere, if it
    /// was the last), it was the last lazy mapper. The last clone takes
    /// the group along.
    #[inline(never)]
    fn orphan_detached(&mut self, group: u32, left: &[Range<u32>]) {
        let HostInner { frames, groups, .. } = self;
        let g = groups.get(group);
        let (image, pages) = (&g.image, g.image.pages());
        let left = left.iter().map(|r| r.start as usize..r.end as usize);
        if g.sharers == 0 {
            // The positions it left stopped being live as it left them.
            let mut at = 0;
            for r in left {
                frames.unlist(image, group, at..r.start);
                at = r.end;
            }
            frames.unlist(image, group, at..pages);
            groups.remove(group);
            return;
        }
        for gone in g.departed.left_by(g.sharers, 0, pages) {
            let mut at = gone.start;
            let from = gone.start;
            let inside = left.clone().skip_while(|r| r.end <= from);
            for r in inside.take_while(|r| r.start < gone.end) {
                frames.unlist(image, group, at..r.start);
                at = r.end;
            }
            frames.unlist(image, group, at..gone.end);
        }
    }

    /// Fills [`HostInner::runs`] with the runs `(end, mappers)` covering
    /// `group`'s image, equal neighbours joined. The frames of a piece
    /// have the same mappers — its explicit ones plus the lazy ones of
    /// each image listing it — but where a clone of one of those images
    /// departed: each run of departures there is two edges of a sweep
    /// over the piece.
    pub(crate) fn base_runs(&mut self, group: u32) {
        let HostInner {
            frames,
            groups,
            runs,
            edges,
            ..
        } = self;
        runs.clear();
        let mut push = |end: usize, mappers: u32| {
            let start = runs.last().map_or(0, |r| r.0);
            debug_assert!(start <= end, "runs out of order");
            match runs.last_mut() {
                // An empty run: a departure edge at a piece's first position.
                _ if start == end => {}
                Some((last, same)) if *same == mappers => *last = end,
                _ => runs.push((end, mappers)),
            }
        };
        let g = groups.get(group);
        for &(at, e) in g.image.runs() {
            // No position of the run is live (every clone of the orphan
            // left it): no clone sums it, and its frames may be freed.
            let dead = || g.departed.left_by(g.sharers, at, e.len).map(|r| r.len());
            if !g.file && dead().sum::<usize>() == e.len {
                push(at + e.len, 0);
                continue;
            }
            for (off, len, p, k) in frames.pieces(e.frame, e.len) {
                let (from, mut level) = (at + off, i64::from(p.refs - p.pins));
                edges.clear();
                for l in p.listed(k) {
                    let other = groups.get(l.group);
                    level += i64::from(other.sharers);
                    let idx = l.idx as usize;
                    for &(start, end, count) in other.departed.within(idx, len) {
                        let start = (start as usize).max(idx) - idx;
                        let end = (end as usize).min(idx + len) - idx;
                        edges.extend([(start, i64::from(count)), (end, -i64::from(count))]);
                    }
                }
                // In order already where one image lists the piece.
                edges.sort_unstable_by_key(|edge| edge.0);
                let mut gone = 0;
                for same in edges.chunk_by(|a, b| a.0 == b.0) {
                    push(from + same[0].0, (level - gone) as u32);
                    gone += same.iter().map(|edge| edge.1).sum::<i64>();
                }
                push(from + len, (level - gone) as u32);
            }
        }
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

    /// `(position, clones that left it)` of every position some clone
    /// left, ascending.
    fn positions(d: &Departures) -> Vec<(u32, u32)> {
        let each = |&(start, end, count): &Departure| (start..end).map(move |idx| (idx, count));
        d.runs.iter().flat_map(each).collect()
    }

    const POSITIONS: u32 = 48;

    proptest::proptest! {
        /// Runs of departures against a count per position: random
        /// stretches left and taken back, and stretches that start or end
        /// on a run's edges (one just past a run, as page-order faults
        /// leave pages), so runs split, empty and join again.
        #[test]
        fn range_departures_match_a_count_per_position(
            ops in proptest::collection::vec((0u8..4, 0u32..POSITIONS, 1u32..12), 1..96),
        ) {
            let (mut d, mut model) = (Departures::default(), [0u32; POSITIONS as usize]);
            for (kind, a, len) in ops {
                let edge = d.runs.get(a as usize % d.runs.len().max(1)).copied();
                let sign = if len % 2 == 0 { 1 } else { -1 };
                let (lo, hi, delta) = match (kind, edge) {
                    // A run's own stretch, or the one just past it.
                    (2, Some((start, end, _))) => (start, end, sign),
                    (3, Some((_, end, _))) => (end, end + len, sign),
                    (1, _) => (a, a + len, -1),
                    _ => (a, a + len, 1),
                };
                let hi = hi.min(POSITIONS);
                // Only what clones left can be taken back: from `lo` on,
                // as far as every position was left.
                let left = model[lo as usize..hi as usize].iter().take_while(|&&c| c > 0);
                let hi = if delta < 0 { lo + left.count() as u32 } else { hi };
                if lo >= hi {
                    continue;
                }
                d.shift(lo, hi, delta);
                for c in &mut model[lo as usize..hi as usize] {
                    *c = c.checked_add_signed(delta).expect("model count");
                }
                let want = model.iter().enumerate().filter(|(_, &c)| c > 0);
                let want: Vec<(u32, u32)> = want.map(|(idx, &c)| (idx as u32, c)).collect();
                proptest::prop_assert_eq!(positions(&d), want);
                let joined = d.runs.windows(2).all(|w| w[0].1 < w[1].0 || w[0].2 != w[1].2);
                proptest::prop_assert!(joined, "{:?}", d.runs);
                for idx in 0..POSITIONS {
                    proptest::prop_assert_eq!(d.at(idx), model[idx as usize]);
                }
                // The readers, over the stretch just shifted.
                let (from, n) = (a as usize, len as usize);
                let stretch = from..(from + n).min(POSITIONS as usize);
                let within = d.within(from, n).iter().map(|d| d.0 as usize..d.1 as usize);
                let within: Vec<usize> = within.flatten().filter(|i| stretch.contains(i)).collect();
                let some: Vec<usize> = stretch.clone().filter(|&i| model[i] > 0).collect();
                proptest::prop_assert_eq!(within, some);
                for count in 1..4 {
                    let by: Vec<usize> = d.left_by(count, from, n).flatten().collect();
                    let want: Vec<usize> = stretch.clone().filter(|&i| model[i] == count).collect();
                    proptest::prop_assert_eq!(by, want, "left by {}", count);
                }
            }
        }
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
        let mut left: Vec<Vec<Range<u32>>> = vec![Vec::new(); 3];
        let mut copies: Vec<Vec<FrameId>> = vec![Vec::new(); 3];
        let mut cow = |clone: usize, idx: u32| {
            left[clone].push(idx..idx + 1);
            let frame = image.frame_at(idx as usize);
            let (private, n) = h.cow_out(group, idx as usize, 1, frame);
            assert_eq!(n, 1);
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
        let departed = || positions(&h.inner.borrow().groups.get(group).departed);
        let mut live = vec![0, 1, 2];
        for gone in [1, 2, 0] {
            copies[gone].iter().for_each(|&f| h.release(f));
            live.retain(|&c| c != gone);
            h.detach(group, &mut left[gone]);
            if live.is_empty() {
                break;
            }
            let left = |c: usize| left[c].iter().flat_map(|r| r.clone());
            let mut all: Vec<u32> = live.iter().flat_map(|&c| left(c)).collect();
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
