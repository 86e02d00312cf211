//! A guest-physical address space: a page table over host frames.

use crate::host::{FrameId, HostMemory, PAGE_SIZE};

/// One microVM's guest-physical memory.
///
/// Pages are materialised lazily: reading an unmapped page returns zeroes
/// without allocating, writing allocates (zero-fill) or copies (CoW) as
/// needed. Frames restored from a snapshot are mapped shared and become
/// private on the first write — exactly the `MAP_PRIVATE` behaviour the
/// paper relies on for memory efficiency.
///
/// # Examples
///
/// ```
/// use fireworks_guestmem::{AddressSpace, HostMemory};
/// use fireworks_sim::Clock;
///
/// let host = HostMemory::new(Clock::new(), 1 << 30, 60);
/// let mut vm = AddressSpace::new(host, 1 << 20);
/// vm.write(4096, b"hello");
/// let mut buf = [0u8; 5];
/// vm.read(4096, &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    host: HostMemory,
    slots: Vec<Option<FrameId>>,
    /// How many slots are mapped; kept in step by the two places that
    /// fill an empty slot, so RSS needs no scan.
    resident: usize,
}

impl AddressSpace {
    /// Creates an address space of `size_bytes` (rounded up to whole
    /// pages), fully unmapped.
    pub fn new(host: HostMemory, size_bytes: u64) -> Self {
        let pages = (size_bytes as usize).div_ceil(PAGE_SIZE);
        AddressSpace {
            host,
            slots: vec![None; pages],
            resident: 0,
        }
    }

    /// Size of the address space in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.slots.len() * PAGE_SIZE) as u64
    }

    /// The host this space allocates from.
    pub fn host(&self) -> &HostMemory {
        &self.host
    }

    fn check_range(&self, addr: u64, len: usize) {
        let end = addr
            .checked_add(len as u64)
            .expect("address range overflows");
        assert!(
            end <= self.size_bytes(),
            "access [{addr:#x}, {end:#x}) beyond guest memory of {} bytes",
            self.size_bytes()
        );
    }

    /// Returns a writable (private) frame for `page`, allocating or
    /// CoW-copying as needed.
    fn frame_for_write(&mut self, page: usize) -> FrameId {
        match self.slots[page] {
            None => {
                let f = self.host.alloc_zero();
                self.slots[page] = Some(f);
                self.resident += 1;
                f
            }
            Some(f) => {
                let g = self.host.prepare_write(f);
                self.slots[page] = Some(g);
                g
            }
        }
    }

    /// Writes bytes at a guest-physical address, faulting pages as needed.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the address space.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        self.check_range(addr, bytes.len());
        let mut addr = addr as usize;
        let mut rest = bytes;
        while !rest.is_empty() {
            let page = addr / PAGE_SIZE;
            let offset = addr % PAGE_SIZE;
            let take = rest.len().min(PAGE_SIZE - offset);
            let frame = self.frame_for_write(page);
            self.host.write_frame(frame, offset, &rest[..take]);
            addr += take;
            rest = &rest[take..];
        }
    }

    /// Reads bytes at a guest-physical address. Unmapped pages read as
    /// zeroes.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the address space.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        self.check_range(addr, buf.len());
        let mut addr = addr as usize;
        let mut rest: &mut [u8] = buf;
        while !rest.is_empty() {
            let page = addr / PAGE_SIZE;
            let offset = addr % PAGE_SIZE;
            let take = rest.len().min(PAGE_SIZE - offset);
            let (head, tail) = rest.split_at_mut(take);
            match self.slots[page] {
                Some(frame) => self.host.read_frame(frame, offset, head),
                None => head.fill(0),
            }
            addr += take;
            rest = tail;
        }
    }

    /// Dirties every page overlapping `[addr, addr + len)` without writing
    /// specific byte contents (accounting-only write, used to model heap
    /// regions whose exact bytes don't matter).
    pub fn touch_dirty(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.check_range(addr, len as usize);
        let first = (addr as usize) / PAGE_SIZE;
        let last = ((addr + len - 1) as usize) / PAGE_SIZE;
        for page in first..=last {
            let _ = self.frame_for_write(page);
        }
    }

    /// Maps `frame` shared at `page`, replacing any existing mapping. Used
    /// by snapshot restore. Takes a new reference on the frame.
    pub fn map_shared(&mut self, page: usize, frame: FrameId) {
        assert!(page < self.slots.len(), "map beyond guest memory");
        match self.slots[page] {
            Some(old) => self.host.release(old),
            None => self.resident += 1,
        }
        self.host.retain(frame);
        self.slots[page] = Some(frame);
    }

    /// Iterates `(page_index, frame)` over mapped pages.
    pub fn mapped(&self) -> impl Iterator<Item = (usize, FrameId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|f| (i, f)))
    }

    /// Number of resident (mapped) pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Resident set size in bytes.
    pub fn rss_bytes(&self) -> u64 {
        (self.resident_pages() * PAGE_SIZE) as u64
    }

    /// Proportional set size in bytes: each mapped frame contributes
    /// `PAGE_SIZE / mappers`, as reported by Linux `smem` (paper §5.4).
    pub fn pss_bytes(&self) -> u64 {
        self.sharing_stats().pss_bytes
    }

    /// The one accounting pass over the resident set: splits it into
    /// CoW-shared and private pages — the two terms PSS proportions
    /// between (Fig. 11's sharing story) — and sums the PSS itself, in
    /// page order, so the `f64` total rounds the same way every time.
    pub fn sharing_stats(&self) -> SharingStats {
        let mut stats = SharingStats::default();
        let mut pss = 0.0f64;
        for (_, frame) in self.mapped() {
            let mappers = self.host.mappers(frame);
            if mappers > 1 {
                stats.shared_pages += 1;
            } else {
                stats.private_pages += 1;
            }
            pss += PAGE_SIZE as f64 / f64::from(mappers.max(1));
        }
        stats.pss_bytes = pss.round() as u64;
        stats
    }
}

/// Resident-page sharing split for one address space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Resident pages whose frame is mapped by more than one space.
    pub shared_pages: usize,
    /// Resident pages mapped only here (allocated or CoW-copied).
    pub private_pages: usize,
    /// Proportional set size in bytes: each resident page contributes
    /// `PAGE_SIZE / mappers`.
    pub pss_bytes: u64,
}

impl SharingStats {
    /// Total resident pages.
    pub fn resident_pages(&self) -> usize {
        self.shared_pages + self.private_pages
    }
}

impl Drop for AddressSpace {
    fn drop(&mut self) {
        for slot in self.slots.iter().flatten() {
            self.host.release(*slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_sim::Clock;

    fn host() -> HostMemory {
        HostMemory::new(Clock::new(), 1 << 30, 60)
    }

    #[test]
    fn write_read_round_trip_across_pages() {
        let mut vm = AddressSpace::new(host(), 4 * PAGE_SIZE as u64);
        let data: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        let addr = PAGE_SIZE as u64 - 50;
        vm.write(addr, &data);
        let mut buf = vec![0u8; data.len()];
        vm.read(addr, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn unmapped_reads_are_zero_and_allocate_nothing() {
        let h = host();
        let vm = AddressSpace::new(h.clone(), 1 << 20);
        let mut buf = [9u8; 64];
        vm.read(12345, &mut buf);
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(h.live_frames(), 0);
    }

    #[test]
    fn touch_dirty_allocates_whole_pages() {
        let h = host();
        let mut vm = AddressSpace::new(h.clone(), 1 << 20);
        vm.touch_dirty(100, 2 * PAGE_SIZE as u64);
        // Touch spans pages 0..=2 (starts mid-page).
        assert_eq!(vm.resident_pages(), 3);
        vm.touch_dirty(0, 0);
        assert_eq!(vm.resident_pages(), 3);
    }

    #[test]
    fn drop_releases_all_frames() {
        let h = host();
        {
            let mut vm = AddressSpace::new(h.clone(), 1 << 20);
            vm.touch_dirty(0, 10 * PAGE_SIZE as u64);
            assert_eq!(h.live_frames(), 10);
        }
        assert_eq!(h.live_frames(), 0);
    }

    #[test]
    fn shared_mapping_cow_on_write() {
        let h = host();
        let mut a = AddressSpace::new(h.clone(), 1 << 20);
        a.write(0, b"original");
        let frame = a.mapped().next().expect("mapped").1;

        let mut b = AddressSpace::new(h.clone(), 1 << 20);
        b.map_shared(0, frame);
        assert_eq!(h.mappers(frame), 2);
        assert_eq!(h.live_frames(), 1);

        // Writing in the clone must not change the original.
        b.write(0, b"mutated!");
        let mut buf = [0u8; 8];
        a.read(0, &mut buf);
        assert_eq!(&buf, b"original");
        b.read(0, &mut buf);
        assert_eq!(&buf, b"mutated!");
        assert_eq!(h.live_frames(), 2);
    }

    #[test]
    fn pss_divides_shared_frames() {
        let h = host();
        let mut a = AddressSpace::new(h.clone(), 1 << 20);
        a.touch_dirty(0, 4 * PAGE_SIZE as u64);
        let frames: Vec<(usize, FrameId)> = a.mapped().collect();

        let mut b = AddressSpace::new(h.clone(), 1 << 20);
        for (page, frame) in &frames {
            b.map_shared(*page, *frame);
        }
        // 4 pages shared by 2 mappers: PSS = 2 pages each; RSS = 4 pages.
        assert_eq!(a.pss_bytes(), 2 * PAGE_SIZE as u64);
        assert_eq!(b.pss_bytes(), 2 * PAGE_SIZE as u64);
        assert_eq!(a.rss_bytes(), 4 * PAGE_SIZE as u64);

        // After b dirties one page its PSS grows by half a page (one page
        // private, three shared by 2).
        b.write(0, b"x");
        assert_eq!(b.pss_bytes(), PAGE_SIZE as u64 + 3 * PAGE_SIZE as u64 / 2);
        assert_eq!(
            b.sharing_stats(),
            SharingStats {
                shared_pages: 3,
                private_pages: 1,
                pss_bytes: PAGE_SIZE as u64 + 3 * PAGE_SIZE as u64 / 2,
            }
        );
        assert_eq!(b.sharing_stats().resident_pages(), 4);
        // a still shares 3 frames with b; the 4th is now private to a.
        assert_eq!(a.sharing_stats().shared_pages, 3);
    }

    #[test]
    #[should_panic(expected = "beyond guest memory")]
    fn out_of_range_write_panics() {
        let mut vm = AddressSpace::new(host(), PAGE_SIZE as u64);
        vm.write(PAGE_SIZE as u64 - 1, b"ab");
    }

    #[test]
    fn map_shared_replaces_existing_mapping() {
        let h = host();
        let mut a = AddressSpace::new(h.clone(), 1 << 20);
        a.write(0, b"one");
        let f1 = a.mapped().next().expect("mapped").1;
        h.pin(f1); // Keep it alive like a snapshot file would.

        let mut b = AddressSpace::new(h.clone(), 1 << 20);
        b.write(0, b"two");
        b.map_shared(0, f1);
        let mut buf = [0u8; 3];
        b.read(0, &mut buf);
        assert_eq!(&buf, b"one");
        // b's private frame was released: f1 (shared ×2 + pin) + a's... a
        // and b both map f1, so exactly one live frame remains.
        assert_eq!(h.live_frames(), 1);
        h.unpin(f1);
    }
}
