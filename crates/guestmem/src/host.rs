//! The host frame table: reference-counted frames, CoW, swap onset.

use std::cell::RefCell;
use std::num::NonZeroU32;
use std::rc::Rc;

use fireworks_sim::cost::MemCosts;
use fireworks_sim::hash::fnv1a;
use fireworks_sim::Clock;

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
    fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }

    fn from_index(i: usize) -> FrameId {
        // Frame table indices are bounded far below u32::MAX in practice;
        // the +1 keeps zero free for the niche.
        FrameId(NonZeroU32::new((i + 1) as u32).expect("index + 1 is non-zero"))
    }
}

#[derive(Debug)]
struct FrameEntry {
    /// Total owners: address-space mappings plus snapshot-file pins.
    refs: u32,
    /// How many of `refs` are snapshot-file pins (excluded from PSS).
    pins: u32,
    /// Byte contents, allocated lazily on the first data write. Frames
    /// touched only for accounting read back as zeroes.
    data: Option<Box<[u8]>>,
}

#[derive(Debug)]
struct HostInner {
    frames: Vec<Option<FrameEntry>>,
    free: Vec<usize>,
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
                frames: Vec::new(),
                free: Vec::new(),
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

    /// Allocates a fresh zero frame with one reference.
    pub fn alloc_zero(&self) -> FrameId {
        self.clock.advance(self.costs.zero_fill);
        let mut inner = self.inner.borrow_mut();
        inner.zero_fills += 1;
        inner.live_frames += 1;
        let entry = FrameEntry {
            refs: 1,
            pins: 0,
            data: None,
        };
        if let Some(i) = inner.free.pop() {
            inner.frames[i] = Some(entry);
            FrameId::from_index(i)
        } else {
            inner.frames.push(Some(entry));
            FrameId::from_index(inner.frames.len() - 1)
        }
    }

    /// Adds a mapping reference to a frame.
    pub fn retain(&self, id: FrameId) {
        let mut inner = self.inner.borrow_mut();
        inner.entry_mut(id).refs += 1;
    }

    /// Adds a snapshot-file pin (an owner that does not count as a PSS
    /// mapper).
    pub fn pin(&self, id: FrameId) {
        let mut inner = self.inner.borrow_mut();
        let e = inner.entry_mut(id);
        e.refs += 1;
        e.pins += 1;
    }

    /// Drops a mapping reference; frees the frame when the last owner goes.
    pub fn release(&self, id: FrameId) {
        self.release_inner(id, false);
    }

    /// Drops a snapshot-file pin.
    pub fn unpin(&self, id: FrameId) {
        self.release_inner(id, true);
    }

    fn release_inner(&self, id: FrameId, pin: bool) {
        let mut inner = self.inner.borrow_mut();
        let e = inner.entry_mut(id);
        assert!(e.refs > 0, "release of dead frame");
        if pin {
            assert!(e.pins > 0, "unpin without pin");
            e.pins -= 1;
        }
        e.refs -= 1;
        if e.refs == 0 {
            inner.frames[id.index()] = None;
            inner.free.push(id.index());
            inner.live_frames -= 1;
        }
    }

    /// Prepares a frame for writing: returns `id` unchanged when this is
    /// the only owner, otherwise performs a copy-on-write fault — the
    /// caller's reference moves to a private copy and the shared frame
    /// loses one reference.
    pub fn prepare_write(&self, id: FrameId) -> FrameId {
        {
            let inner = self.inner.borrow();
            if inner.entry(id).refs == 1 {
                return id;
            }
        }
        self.clock.advance(self.costs.cow_fault);
        let mut inner = self.inner.borrow_mut();
        let data = inner.entry(id).data.clone();
        let e = inner.entry_mut(id);
        e.refs -= 1;
        inner.cow_faults += 1;
        inner.live_frames += 1;
        let entry = FrameEntry {
            refs: 1,
            pins: 0,
            data,
        };
        if let Some(i) = inner.free.pop() {
            inner.frames[i] = Some(entry);
            FrameId::from_index(i)
        } else {
            inner.frames.push(Some(entry));
            FrameId::from_index(inner.frames.len() - 1)
        }
    }

    /// Writes bytes into a frame at `offset`. The caller must have made the
    /// frame private with [`HostMemory::prepare_write`] first.
    ///
    /// # Panics
    ///
    /// Panics if the write crosses the frame boundary or the frame is
    /// shared.
    pub fn write_frame(&self, id: FrameId, offset: usize, bytes: &[u8]) {
        assert!(offset + bytes.len() <= PAGE_SIZE, "write crosses frame");
        let mut inner = self.inner.borrow_mut();
        let e = inner.entry_mut(id);
        assert_eq!(e.refs, 1, "write to shared frame without CoW");
        let data = e
            .data
            .get_or_insert_with(|| vec![0u8; PAGE_SIZE].into_boxed_slice());
        data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Flips bytes in a frame *without* the CoW private-ownership check —
    /// modelling bit-rot / media corruption of stored data rather than a
    /// guest write. Shared and pinned frames are corrupted in place, which
    /// is exactly what makes undetected corruption dangerous: every clone
    /// restored from the frame sees the damage. Used by fault-injection
    /// tests together with snapshot checksum verification.
    ///
    /// # Panics
    ///
    /// Panics if the write crosses the frame boundary.
    pub fn poke_frame(&self, id: FrameId, offset: usize, bytes: &[u8]) {
        assert!(offset + bytes.len() <= PAGE_SIZE, "poke crosses frame");
        let mut inner = self.inner.borrow_mut();
        let e = inner.entry_mut(id);
        let data = e
            .data
            .get_or_insert_with(|| vec![0u8; PAGE_SIZE].into_boxed_slice());
        data[offset..offset + bytes.len()].copy_from_slice(bytes);
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
            let mut inner = self.inner.borrow_mut();
            inner.entry_mut(id).data = data;
        }
        id
    }

    /// FNV-1a checksum of a frame's stored contents. Unwritten frames
    /// hash as all-zeroes (matching how they read) without scanning any
    /// bytes, so checksumming a whole VM image is cheap.
    pub fn checksum_frame(&self, id: FrameId) -> u64 {
        match &self.inner.borrow().entry(id).data {
            Some(data) => fnv1a(data),
            None => ZERO_PAGE_FNV,
        }
    }

    /// Number of PSS mappers of a frame (owners minus snapshot-file pins).
    pub fn mappers(&self, id: FrameId) -> u32 {
        let inner = self.inner.borrow();
        let e = inner.entry(id);
        e.refs - e.pins
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

impl HostInner {
    fn entry(&self, id: FrameId) -> &FrameEntry {
        self.frames[id.index()].as_ref().expect("live frame")
    }

    fn entry_mut(&mut self, id: FrameId) -> &mut FrameEntry {
        self.frames[id.index()].as_mut().expect("live frame")
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
}
