//! A guest-physical address space: a lazily mapped snapshot image under
//! an overlay of private pages, kept as extents.

use std::ops::Range;
use std::rc::Rc;

use crate::host::{Extent, FrameId, HostMemory, PAGE_SIZE};
use crate::image::Image;

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
/// let host = HostMemory::new(Clock::new(), 1 << 30);
/// let mut vm = AddressSpace::new(host, 1 << 20);
/// vm.write(4096, b"hello");
/// let mut buf = [0u8; 5];
/// vm.read(4096, &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    pages: usize,
    /// Pages mapped here explicitly (one frame reference each); they
    /// shadow the base's pages of the same numbers.
    overlay: Overlay,
    under: Under,
}

/// The overlay's extents: sorted by page, disjoint, and merged wherever
/// one continues the one before, so that it costs the runs mapped, not
/// their pages.
#[derive(Debug, Default)]
struct Overlay(Vec<Extent>);

impl Overlay {
    /// The index of the first extent ending past `page`; found without a
    /// search when `page` lies past the last one.
    #[inline]
    fn find(&self, page: usize) -> usize {
        match self.0.last() {
            Some(last) if last.page + last.len > page => {
                self.0.partition_point(|e| e.page + e.len <= page)
            }
            _ => self.0.len(),
        }
    }

    /// [`Overlay::find`], and the frame mapped at `page` if any.
    #[inline]
    fn at(&self, page: usize) -> (usize, Option<FrameId>) {
        let i = self.find(page);
        let e = self.0.get(i).filter(|e| e.page <= page);
        (i, e.map(|e| e.frame.add(page - e.page)))
    }

    /// Maps the pages of `e` to its frames, over what was mapped there;
    /// `lo` is [`Overlay::find`] of its first page. Into a gap, not
    /// continued by the next extent, it is a merge into the extent before
    /// or an insert, which moves the extents after it: none past the
    /// last, the exec state's for an invocation's heap CoW faults (which
    /// come after it). Otherwise it is a rewrite of the extents `e`
    /// overlaps and of its two neighbours.
    fn put(&mut self, lo: usize, e: Extent) {
        let (v, end) = (&mut self.0, e.page + e.len);
        let gap = |next: &Extent| end <= next.page && !e.continued_by(next);
        if v.get(lo).is_none_or(gap) {
            match lo.checked_sub(1).map(|before| &mut v[before]) {
                Some(before) if before.continued_by(&e) => before.len += e.len,
                _ => v.insert(lo, e),
            }
            return;
        }
        let hi = lo + v[lo..].iter().take_while(|x| x.page < end).count();
        let window = lo.saturating_sub(1)..(hi + 1).min(v.len());
        // At most two extents of the window hold pages before `e`, and
        // two hold pages after it.
        let (mut parts, mut n) = ([e; 5], 0);
        let mut push = |x: Extent| {
            if n > 0 && parts[n - 1].continued_by(&x) {
                parts[n - 1].len += x.len;
            } else if x.len > 0 {
                (parts[n], n) = (x, n + 1);
            }
        };
        let around = v[window.clone()].iter().copied();
        for mut x in around.clone().filter(|x| x.page < e.page) {
            push(x.take_front(x.len.min(e.page - x.page)));
        }
        push(e);
        for mut x in around.filter(|x| x.page + x.len > end) {
            x.take_front(end.saturating_sub(x.page));
            push(x);
        }
        v.splice(window, parts[..n].iter().copied());
    }
}

/// What the overlay is filled from.
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
    span: (Range<usize>, Result<(usize, FrameId), usize>),
    /// Stretches of positions of the image this space no longer maps
    /// from it, in the order it left them, each joined to the one before
    /// where it continues it.
    left: Vec<Range<u32>>,
}

impl Base {
    /// The pages the base maps from `page` on, up to `limit` and to the
    /// end of their run: the position and frame of `page` and how many;
    /// else where the pages from `page` on that it does not map end.
    #[inline]
    fn run(&mut self, page: usize, limit: usize) -> Result<(usize, FrameId, usize), usize> {
        if !self.span.0.contains(&page) {
            self.span = self.image.span(page);
        }
        let (at, first) = self.span.1.map_err(|_| self.span.0.end)?;
        let k = page - self.span.0.start;
        Ok((at + k, first.add(k), self.span.0.end.min(limit) - page))
    }

    /// The space stops mapping positions `idx..idx + n` from the base.
    fn leave(&mut self, idx: usize, n: usize) {
        let (from, to) = (idx as u32, (idx + n) as u32);
        match self.left.last_mut() {
            Some(last) if last.end == from => last.end = to,
            _ => self.left.push(from..to),
        }
    }
}

impl Under {
    /// Stops mapping `page` from the base, if it does; else returns
    /// where the pages from `page` on that the base does not map end.
    fn leave_base(&mut self, page: usize) -> Result<(), usize> {
        let base = self.base.as_mut().ok_or(usize::MAX)?;
        let (idx, _, _) = base.run(page, page + 1)?;
        base.leave(idx, 1);
        self.host.leave(base.group, idx);
        Ok(())
    }

    /// Private copies of the base's pages from `page` on, up to `limit`
    /// and to the end of their run, which the space stops mapping from
    /// the base: the first frame and how many pages (fewer where an
    /// orphaned group's frames are taken over rather than copied); else
    /// where the pages from `page` on that the base does not map end.
    #[inline]
    fn cow_base(&mut self, page: usize, limit: usize) -> Result<(FrameId, usize), usize> {
        let base = self.base.as_mut().ok_or(usize::MAX)?;
        let (idx, shared, n) = base.run(page, limit)?;
        let (copy, n) = self.host.cow_out(base.group, idx, n, shared);
        base.leave(idx, n);
        Ok((copy, n))
    }
}

impl AddressSpace {
    /// Creates an address space of `size_bytes` (rounded up to whole
    /// pages), fully unmapped.
    pub fn new(host: HostMemory, size_bytes: u64) -> Self {
        AddressSpace {
            pages: (size_bytes as usize).div_ceil(PAGE_SIZE),
            overlay: Overlay::default(),
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
        space.under.resident = image.pages();
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
        let based = || Some(self.under.base.as_ref()?.image.locate(page).ok()?.1);
        self.overlay.at(page).1.or_else(based)
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
            let frame = self.fault(page);
            self.under.host.write_frame(frame, offset, &rest[..take]);
            addr += take;
            rest = &rest[take..];
        }
    }

    /// Makes `page` map a private frame, CoW-copying or zero-filling it
    /// as needed.
    fn fault(&mut self, page: usize) -> FrameId {
        let under = &mut self.under;
        let (i, mapped) = self.overlay.at(page);
        let frame = match mapped {
            Some(mapped) => match under.host.prepare_write(mapped) {
                same if same == mapped => return same,
                copy => copy,
            },
            None => match under.cow_base(page, page + 1) {
                Ok((copy, _)) => copy,
                Err(_) => {
                    under.resident += 1;
                    under.host.alloc_zero()
                }
            },
        };
        let len = 1;
        self.overlay.put(i, Extent { page, frame, len });
        frame
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
    /// regions whose exact bytes don't matter). The pages the space did
    /// not map get one frame-table entry of zero frames between them, and
    /// each run of the base's pages one entry of CoW copies.
    pub fn touch_dirty(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.check_range(addr, len as usize);
        let mut page = addr as usize / PAGE_SIZE;
        let end = (addr + len - 1) as usize / PAGE_SIZE + 1;
        let under = &mut self.under;
        // The run the unmapped pages go to, and how many went.
        let mut fresh: Option<(FrameId, usize)> = None;
        while page < end {
            let i = self.overlay.find(page);
            let next = self.overlay.0.get(i).copied();
            // Where the pages up to the overlay's next extent end.
            let stop = next.map_or(end, |e| e.page).min(end);
            let (frame, len) = match next {
                // Overlay pages: what is private already stays.
                Some(e) if e.page <= page => {
                    let mapped = e.frame.add(page - e.page);
                    match under.host.private_ahead(mapped) {
                        0 => (under.host.prepare_write(mapped), 1),
                        private => {
                            page = (page + private).min(e.page + e.len);
                            continue;
                        }
                    }
                }
                // Base pages: copied as one run, up to the end of theirs.
                _ => match under.cow_base(page, stop) {
                    Ok(copied) => copied,
                    // Unmapped pages, up to the base's or the overlay's next.
                    Err(unmapped) => {
                        let stop = unmapped.min(stop);
                        let (run, n) =
                            fresh.get_or_insert_with(|| (under.host.open_run(end - page), 0));
                        let (frame, len) = (run.add(*n), stop - page);
                        *n += len;
                        (frame, len)
                    }
                },
            };
            self.overlay.put(i, Extent { page, frame, len });
            page += len;
        }
        if let Some((run, n)) = fresh {
            under.resident += n;
            under.host.seal_run(run, n);
        }
    }

    /// Maps `frame` shared at `page`, replacing any existing mapping.
    /// Takes a new reference on the frame.
    pub fn map_shared(&mut self, page: usize, frame: FrameId) {
        assert!(page < self.pages, "map beyond guest memory");
        let under = &mut self.under;
        under.host.retain(frame);
        let (i, old) = self.overlay.at(page);
        if let Some(old) = old {
            under.host.release(old);
        } else if under.leave_base(page).is_err() {
            under.resident += 1;
        }
        let len = 1;
        self.overlay.put(i, Extent { page, frame, len });
    }

    /// The pages mapped here rather than through the snapshot image the
    /// space was restored from, as extents in page order: disjoint, none
    /// continued by the next. For invariant checks in tests only; how the
    /// overlay is stored is not part of this crate's API.
    #[doc(hidden)]
    pub fn overlay(&self) -> &[Extent] {
        &self.overlay.0
    }

    /// The pages mapped here, as extents in page order: the overlay's,
    /// and the base's runs cut around them.
    pub(crate) fn extents(&self) -> Vec<Extent> {
        let Some(base) = &self.under.base else {
            return self.overlay.0.clone();
        };
        let mut out: Vec<Extent> = Vec::new();
        let mut push = |e: Extent| match out.last_mut() {
            Some(last) if last.continued_by(&e) => last.len += e.len,
            _ if e.len > 0 => out.push(e),
            _ => {}
        };
        let mut runs = base.image.runs().iter().map(|&(_, e)| e);
        let mut next = runs.next();
        for &o in &self.overlay.0 {
            // Base pages before `o` first; those it covers are shadowed.
            while let Some(e) = next.as_mut().filter(|e| e.page < o.page + o.len) {
                push(e.take_front(o.page.saturating_sub(e.page).min(e.len)));
                e.take_front((o.page + o.len).saturating_sub(e.page).min(e.len));
                if e.len > 0 {
                    break;
                }
                next = runs.next();
            }
            push(o);
        }
        next.into_iter().chain(runs).for_each(push);
        out
    }

    /// Iterates `(page_index, frame)` over mapped pages in page order.
    pub fn mapped(&self) -> impl Iterator<Item = (usize, FrameId)> {
        self.extents().into_iter().flat_map(Extent::frames)
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
    /// between (Fig. 11's sharing story) — and sums the PSS itself.
    ///
    /// The definition is the scan: one fixed-point term per mapped page,
    /// its frame's [`HostMemory::mappers`] looked up, added as integers
    /// ([`SharingStats::pss_bytes`]), so neither the order of the pages
    /// nor how they are cut into runs changes the total. The pass forms
    /// it without visiting pages: the frames of one piece have equal
    /// mappers (in the base, but where a clone of a listing image
    /// departed), so it walks the overlay's extents and the base's runs
    /// between them and adds each run of equal terms with one multiply.
    pub fn sharing_stats(&self) -> SharingStats {
        let mut table = self.under.host.table();
        let base = self.under.base.as_ref();
        if let Some(base) = base {
            table.base_runs(base.group);
        }
        let table = &*table;
        let runs = if base.is_some() { &table.runs[..] } else { &[] };
        let mut runs = runs.iter().copied().peekable();
        let mut sum = PssSum::default();
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
        // The base position of the first page from `page` on that the
        // base maps (those an extent covers the space left), through the
        // last span looked up: extents come in page order.
        let mut span = (0..0, Err(0));
        let mut position = |page: usize| {
            let Some(base) = base else { return 0 };
            if !span.0.contains(&page) {
                span = base.image.span(page);
            }
            let (start, first) = (span.0.start, span.1);
            first.map_or_else(|after| after, |(at, _)| at + page - start)
        };
        // The first base position neither summed nor left yet.
        let mut next = 0;
        for &o in &self.overlay.0 {
            sum_base(&mut sum, next, position(o.page));
            next = position(o.page + o.len);
            let mut rest = o;
            while rest.len > 0 {
                let (mappers, ahead) = table.mappers_ahead(rest.frame);
                sum.run(rest.take_front(rest.len.min(ahead as usize)).len, mappers);
            }
        }
        sum_base(&mut sum, next, base.map_or(0, |base| base.image.pages()));
        sum.stats()
    }
}

/// The accounting pass's running totals, `pss` in units of 2⁻³² byte
/// ([`SharingStats::pss_bytes`]).
#[derive(Default)]
struct PssSum {
    shared: usize,
    private: usize,
    pss: u128,
}

impl PssSum {
    /// `pages` consecutive pages of `mappers` mappers each, each adding
    /// `⌊PAGE_SIZE·2³² / max(mappers, 1)⌋`.
    fn run(&mut self, pages: usize, mappers: u32) {
        if mappers > 1 {
            self.shared += pages;
        } else {
            self.private += pages;
        }
        let per_page = ((PAGE_SIZE as u64) << 32) / u64::from(mappers.max(1));
        self.pss += u128::from(per_page) * pages as u128;
    }

    fn stats(&self) -> SharingStats {
        SharingStats {
            shared_pages: self.shared,
            private_pages: self.private,
            pss_bytes: ((self.pss + (1 << 31)) >> 32) as u64,
        }
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
    /// `PAGE_SIZE / mappers`. The sum is fixed point in units of 2⁻³²
    /// byte — a page adds `⌊PAGE_SIZE·2³² / max(mappers, 1)⌋` — rounded
    /// half up to whole bytes once, so it lies within ½ byte plus less
    /// than 2⁻³² byte per page of the exact rational sum.
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
        self.under.host.release_all(&self.overlay.0);
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
        HostMemory::new(Clock::new(), 1 << 30)
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
    fn pss_rounds_the_fixed_point_sum_once() {
        // A space's PSS is its fixed-point sum rounded half up once, not
        // per page and not truncated.
        let h = host();
        let mut a = AddressSpace::new(h.clone(), 1 << 20);
        a.touch_dirty(0, 5 * PAGE_SIZE as u64);
        let frames: Vec<(usize, FrameId)> = a.mapped().collect();
        let space = |pages: &[(usize, FrameId)]| {
            let mut s = AddressSpace::new(h.clone(), 1 << 20);
            for &(page, frame) in pages {
                s.map_shared(page, frame);
            }
            s
        };
        // Page 4 shared by 3 spaces: 4096/3 = 1 365.33 bytes.
        let fours = [space(&frames[4..]), space(&frames[4..])];
        assert_eq!(fours[0].pss_bytes(), 1365);
        // Then by 6: 4096/6 = 682.67 bytes.
        let more = [
            space(&frames[1..]),
            space(&frames[1..]),
            space(&frames[4..]),
        ];
        assert_eq!(h.mappers(frames[4].1), 6);
        assert_eq!(fours[0].pss_bytes(), 683);
        // Page 0 private, pages 1–3 shared by 3, page 4 by 6:
        // 4096 + 3·4096/3 + 4096/6 = 8 874.67 bytes.
        assert_eq!(
            a.sharing_stats(),
            SharingStats {
                shared_pages: 4,
                private_pages: 1,
                pss_bytes: 8875,
            }
        );
        // 3·4096/3 + 4096/6 = 4 778.67 bytes.
        assert_eq!(more[0].pss_bytes(), 4779);
    }

    #[test]
    fn the_overlay_holds_one_extent_per_run() {
        let h = host();
        let mut a = AddressSpace::new(h.clone(), 1 << 20);
        a.touch_dirty(0, 8 * PAGE_SIZE as u64);
        // Private already: touching it again changes nothing.
        a.touch_dirty(2 * PAGE_SIZE as u64, 4 * PAGE_SIZE as u64);
        assert_eq!(a.overlay().len(), 1);
        // A sibling mapping the run's frames a page at a time, backwards,
        // holds one extent too.
        let frames: Vec<(usize, FrameId)> = a.mapped().collect();
        let mut b = AddressSpace::new(h.clone(), 1 << 20);
        for &(page, frame) in frames.iter().rev() {
            b.map_shared(page, frame);
        }
        assert_eq!(b.overlay(), a.overlay());
        // A CoW copy in the middle cuts it in three; the frame mapped
        // back joins them again.
        b.write(3 * PAGE_SIZE as u64, b"x");
        assert_eq!(b.overlay().len(), 3);
        b.map_shared(3, frames[3].1);
        assert_eq!(b.overlay(), a.overlay());
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
        let pinned = Extent {
            page: 0,
            frame: f1,
            len: 1,
        };
        h.pin_extent(&pinned); // Keep it alive like a snapshot file would.

        let mut b = AddressSpace::new(h.clone(), 1 << 20);
        b.write(0, b"two");
        b.map_shared(0, f1);
        let mut buf = [0u8; 3];
        b.read(0, &mut buf);
        assert_eq!(&buf, b"one");
        // b's private frame was released: f1 (shared ×2 + pin) + a's... a
        // and b both map f1, so exactly one live frame remains.
        assert_eq!(h.live_frames(), 1);
        h.unpin_extent(&pinned);
    }
}
