//! A guest-physical address space: a lazily mapped snapshot image under
//! an on-demand page table of private pages.

use std::ops::Range;
use std::rc::Rc;

use crate::host::{FrameId, HostMemory, PAGE_SIZE};
use crate::image::Image;
use crate::table::Sparse;

/// One microVM's guest-physical memory.
///
/// Pages are materialised lazily: reading an unmapped page returns zeroes
/// without allocating, writing allocates (zero-fill) or copies (CoW) as
/// needed. A space restored from a snapshot maps the whole image by
/// joining its mapping group — no page is touched — and a page becomes
/// private, in the overlay, on its first write: exactly the `MAP_PRIVATE`
/// behaviour the paper relies on for memory efficiency. Booted VMs and
/// containers are the same representation with no base.
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
    pages: usize,
    /// Pages mapped here explicitly (one frame reference each); an entry
    /// shadows the base's page of the same number.
    overlay: Sparse<Option<FrameId>>,
    under: Under,
}

/// What an overlay entry is filled from.
#[derive(Debug)]
struct Under {
    host: HostMemory,
    base: Option<Base>,
    /// Mapped pages, base and overlay; kept in step by the places that
    /// map a page neither had, so RSS needs no scan.
    resident: usize,
}

/// The snapshot image a space was restored from.
#[derive(Debug)]
struct Base {
    group: u32,
    image: Rc<Image>,
    /// The last [`Image::span`] looked up: faults come in page runs.
    span: (Range<usize>, Result<usize, usize>),
    /// Positions of the image this space no longer maps from it.
    left: Vec<u32>,
}

impl Under {
    /// Stops mapping `page` from the base, if it does; returns the group,
    /// position and frame left.
    #[inline]
    fn leave_base(&mut self, page: usize) -> Option<(u32, usize, FrameId)> {
        let base = self.base.as_mut()?;
        if !base.span.0.contains(&page) {
            base.span = base.image.span(page);
        }
        let idx = base.span.1.ok()? + page - base.span.0.start;
        base.left.push(idx as u32);
        Some((base.group, idx, base.image.frames[idx].1))
    }

    /// Makes `slot`, the overlay's entry for `page`, hold a writable
    /// (private) frame, allocating or CoW-copying as needed.
    #[inline(always)]
    fn fault(&mut self, page: usize, slot: &mut Option<FrameId>) -> FrameId {
        let frame = if let Some(mapped) = *slot {
            self.host.prepare_write(mapped)
        } else if let Some((group, idx, shared)) = self.leave_base(page) {
            self.host.cow_out(group, idx, shared)
        } else {
            self.resident += 1;
            self.host.alloc_zero()
        };
        *slot = Some(frame);
        frame
    }
}

impl AddressSpace {
    /// Creates an address space of `size_bytes` (rounded up to whole
    /// pages), fully unmapped.
    pub fn new(host: HostMemory, size_bytes: u64) -> Self {
        AddressSpace {
            pages: (size_bytes as usize).div_ceil(PAGE_SIZE),
            overlay: Sparse::default(),
            under: Under {
                host,
                base: None,
                resident: 0,
            },
        }
    }

    /// A space lazily mapping every frame of mapping group `group`, which
    /// the caller has already attached to.
    pub(crate) fn restored(
        host: HostMemory,
        size_bytes: u64,
        group: u32,
        image: Rc<Image>,
    ) -> Self {
        let mut space = AddressSpace::new(host, size_bytes);
        space.under.resident = image.frames.len();
        space.under.base = Some(Base {
            group,
            image,
            span: (0..0, Err(0)),
            left: Vec::new(),
        });
        space
    }

    /// Size of the address space in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.pages * PAGE_SIZE) as u64
    }

    /// The host this space allocates from.
    pub fn host(&self) -> &HostMemory {
        &self.under.host
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

    fn frame_at(&self, page: usize) -> Option<FrameId> {
        let based = || {
            let image = &self.under.base.as_ref()?.image;
            Some(image.frames[image.locate(page).ok()?].1)
        };
        self.overlay.get(page).or_else(based)
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
            let frame = self.under.fault(page, self.overlay.entry(page));
            self.under.host.write_frame(frame, offset, &rest[..take]);
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
            match self.frame_at(page) {
                Some(frame) => self.under.host.read_frame(frame, offset, head),
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
        let under = &mut self.under;
        self.overlay
            .range_mut(first, last, |page, slot| _ = under.fault(page, slot));
    }

    /// Maps `frame` shared at `page`, replacing any existing mapping.
    /// Takes a new reference on the frame.
    pub fn map_shared(&mut self, page: usize, frame: FrameId) {
        assert!(page < self.pages, "map beyond guest memory");
        let under = &mut self.under;
        under.host.retain(frame);
        if let Some(old) = self.overlay.entry(page).replace(frame) {
            under.host.release(old);
        } else if let Some((group, idx, shared)) = under.leave_base(page) {
            under.host.leave(group, idx, shared);
        } else {
            under.resident += 1;
        }
    }

    /// The overlay's entries in page order. Consume with `for_each`
    /// where the visit order is all that matters.
    fn overlay_pages(&self) -> impl Iterator<Item = (usize, FrameId)> + '_ {
        let mapped = self.overlay.iter();
        mapped.map(|(page, frame)| (page, frame.expect("iter yields set entries")))
    }

    /// Appends [`AddressSpace::mapped`] to `out`.
    pub(crate) fn mapped_into(&self, out: &mut Vec<(usize, FrameId)>) {
        match self.under.base {
            // Not `mapped()`: extending from the overlay alone is a plain
            // loop over its leaves, as a flat page table's would be.
            None => self.overlay_pages().for_each(|entry| out.push(entry)),
            Some(_) => out.extend(self.mapped()),
        }
    }

    /// Iterates `(page_index, frame)` over mapped pages in page order.
    pub fn mapped(&self) -> impl Iterator<Item = (usize, FrameId)> + '_ {
        let based = self
            .under
            .base
            .as_ref()
            .map_or(&[][..], |b| &b.image.frames[..]);
        let mut based = based.iter().copied().peekable();
        let mut over = self.overlay_pages().peekable();
        std::iter::from_fn(move || {
            let (b, o) = (based.peek().map(|b| b.0), over.peek().map(|o| o.0));
            match (b, o) {
                (Some(b), Some(o)) if b < o => based.next(),
                (Some(b), Some(o)) if b == o => based.next().and(over.next()),
                (Some(_), None) => based.next(),
                _ => over.next(),
            }
        })
    }

    /// Number of resident (mapped) pages.
    pub fn resident_pages(&self) -> usize {
        self.under.resident
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
    ///
    /// The definition is the scan: one term per mapped page, its frame's
    /// [`HostMemory::mappers`] looked up. Over the base the same sum is
    /// formed without visiting pages: its group's sharing map cuts it
    /// into runs whose frames have the same listings, so equal mappers,
    /// and between exceptions (overlay pages, positions a clone of any
    /// listing image departed, frames with explicit mappers) a run of
    /// equal terms is added at once in closed form, bit for bit what the
    /// scan would round to.
    pub fn sharing_stats(&self) -> SharingStats {
        let table = self.under.host.table();
        let mut sum = PssSum::default();
        let Some(base) = &self.under.base else {
            let pages = self.overlay_pages();
            pages.for_each(|(_, frame)| sum.page(table.mappers(frame)));
            return sum.stats();
        };
        let mut runs = table.base_runs(base.group).into_iter().peekable();
        // Sums base positions `from..end`, all still mapped by the space.
        let mut sum_base = |sum: &mut PssSum, mut from: usize, end: usize| {
            while from < end {
                while runs.next_if(|(run_end, _)| *run_end <= from).is_some() {}
                let (run_end, mappers) = *runs.peek().expect("runs cover the image");
                let stop = end.min(run_end);
                sum.run(stop - from, mappers);
                from = stop;
            }
        };
        // The first base position not summed (or skipped as left) yet;
        // overlay pages below `gap_end` sit before it.
        let (mut next, mut gap_end) = (0, 0);
        self.overlay_pages().for_each(|(page, frame)| {
            if page >= gap_end {
                let (span, first) = base.image.span(page);
                let at = first.map_or_else(|after| after, |at| at + page - span.start);
                sum_base(&mut sum, next, at);
                // The overlay page stands in for base position `at` if
                // the base maps it (this space left it), else it and its
                // successors in the gap precede `at`.
                (next, gap_end) = (next.max(at), span.end);
                if first.is_ok() {
                    (next, gap_end) = (at + 1, page + 1);
                }
            }
            sum.page(table.mappers(frame));
        });
        sum_base(&mut sum, next, base.image.frames.len());
        sum.stats()
    }
}

/// The accounting pass's running totals.
#[derive(Default)]
struct PssSum {
    shared: usize,
    private: usize,
    pss: f64,
}

impl PssSum {
    fn page(&mut self, mappers: u32) {
        self.count(1, mappers);
        self.pss += Self::term(mappers);
    }

    /// `pages` consecutive pages of `mappers` mappers each.
    fn run(&mut self, pages: usize, mappers: u32) {
        self.count(pages, mappers);
        self.pss = add_run(self.pss, Self::term(mappers), pages);
    }

    fn count(&mut self, pages: usize, mappers: u32) {
        if mappers > 1 {
            self.shared += pages;
        } else {
            self.private += pages;
        }
    }

    fn term(mappers: u32) -> f64 {
        PAGE_SIZE as f64 / f64::from(mappers.max(1))
    }

    fn stats(&self) -> SharingStats {
        SharingStats {
            shared_pages: self.shared,
            private_pages: self.private,
            pss_bytes: self.pss.round() as u64,
        }
    }
}

/// `s` after `k` sequential `s += x` in `f64` (round to nearest, ties to
/// even), for positive `x` and non-negative `s`, without the `k` adds.
///
/// While `s` stays in one binade its ulp `u` is constant, `s = n·u` for
/// an integer `n`, and every add rounds `x` to the same multiple of `u`
/// — `x = q·u + r` adds `q` or `q + 1` units, by `r` against `u/2` — so
/// `j` adds are `n += j·δ`. On a tie (`r = u/2`) ties-to-even makes `n`
/// even after at most one add and then `δ = q` rounded up to even. Adds
/// that cross into the next binade, or start below `x`'s, are performed.
fn add_run(mut s: f64, x: f64, mut k: usize) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    while k > 0 {
        let (sb, xb) = (s.to_bits(), x.to_bits());
        let shift = (sb >> 52) as i64 - (xb >> 52) as i64;
        let mut steps = 0;
        if (0..=52).contains(&shift) && (xb >> 52) > 52 {
            let n = (sb & MANTISSA) | (1 << 52);
            let mx = (xb & MANTISSA) | (1 << 52);
            let (q, r, half) = (mx >> shift, mx & ((1 << shift) - 1), (1u64 << shift) >> 1);
            let tie = shift > 0 && r == half;
            if !(tie && n % 2 == 1) {
                let delta = q + u64::from(r > half || (tie && q % 2 == 1));
                steps = (((1u64 << 53) - n) / delta).min(k as u64);
                let ulp = f64::from_bits(((sb >> 52) - 52) << 52);
                s = (n + steps * delta) as f64 * ulp;
            }
        }
        if steps == 0 {
            s += x;
            steps = 1;
        }
        k -= steps as usize;
    }
    s
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
        self.under.host.release_all(&self.overlay);
        if let Some(base) = &mut self.under.base {
            self.under.host.detach(base.group, &mut base.left);
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

    fn naive(mut s: f64, x: f64, k: usize) -> f64 {
        for _ in 0..k {
            s += x;
        }
        s
    }

    #[test]
    fn add_run_is_the_sequential_sum_bit_for_bit() {
        let mut rng = fireworks_sim::rng::SplitMix64::new(22);
        for case in 0..3_000 {
            // A PSS term, a partial sum of other terms, a run length.
            let m = match case % 3 {
                0 => rng.next_range(1, 10),
                1 => rng.next_range(1, 600),
                _ => rng.next_range(1, u32::MAX as u64),
            };
            let x = PAGE_SIZE as f64 / m as f64;
            let other = PAGE_SIZE as f64 / rng.next_range(1, 12) as f64;
            let s = naive(0.0, other, rng.next_range(0, 3_000) as usize);
            let k = rng.next_range(0, 60_000) as usize;
            let (got, want) = (add_run(s, x, k), naive(s, x, k));
            assert_eq!(got.to_bits(), want.to_bits(), "m {m}, s {s}, k {k}");
        }
    }

    #[test]
    fn add_run_rounds_ties_to_even_like_the_adds_do() {
        // x = (q + ½)·ulp(s): every add is a tie, resolved by n's parity.
        let mut rng = fireworks_sim::rng::SplitMix64::new(7);
        for _ in 0..2_000 {
            let shift = rng.next_range(1, 52);
            let q = rng.next_range(1 << (52 - shift), (1 << (53 - shift)) - 1);
            let mx = (q << shift) | (1 << (shift - 1));
            let exp = rng.next_range(1_000, 1_060);
            let x = f64::from_bits((exp - shift) << 52 | (mx & ((1 << 52) - 1)));
            let s = f64::from_bits(exp << 52 | rng.next_range(0, (1 << 52) - 1));
            let k = rng.next_range(1, 5_000) as usize;
            let (got, want) = (add_run(s, x, k), naive(s, x, k));
            assert_eq!(got.to_bits(), want.to_bits(), "s {s:e}, x {x:e}, k {k}");
        }
    }
}
