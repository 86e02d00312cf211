//! Property-based tests for guest memory invariants.

use fireworks_guestmem::{AddressSpace, HostMemory, SnapshotFile, PAGE_SIZE};
use fireworks_sim::Clock;
use proptest::prelude::*;

fn host() -> HostMemory {
    HostMemory::new(Clock::new(), 1 << 32)
}

const SPACE_BYTES: u64 = 64 * PAGE_SIZE as u64;

/// A mirror write: (address, bytes).
fn write_strategy() -> impl Strategy<Value = (u64, Vec<u8>)> {
    (0..SPACE_BYTES - 512).prop_flat_map(|addr| {
        (
            Just(addr),
            proptest::collection::vec(any::<u8>(), 1..256usize),
        )
    })
}

proptest! {
    /// Guest memory behaves exactly like a flat byte array.
    #[test]
    fn memory_matches_flat_mirror(writes in proptest::collection::vec(write_strategy(), 1..40)) {
        let mut vm = AddressSpace::new(host(), SPACE_BYTES);
        let mut mirror = vec![0u8; SPACE_BYTES as usize];
        for (addr, bytes) in &writes {
            vm.write(*addr, bytes);
            mirror[*addr as usize..*addr as usize + bytes.len()].copy_from_slice(bytes);
        }
        let mut buf = vec![0u8; SPACE_BYTES as usize];
        vm.read(0, &mut buf);
        prop_assert_eq!(buf, mirror);
    }

    /// Restored clones see the snapshot contents, and clone writes never
    /// alter the snapshot or sibling clones.
    #[test]
    fn snapshot_isolation(
        base in proptest::collection::vec(write_strategy(), 1..20),
        clone_writes in proptest::collection::vec(write_strategy(), 1..20),
    ) {
        let h = host();
        let mut src = AddressSpace::new(h.clone(), SPACE_BYTES);
        let mut mirror = vec![0u8; SPACE_BYTES as usize];
        for (addr, bytes) in &base {
            src.write(*addr, bytes);
            mirror[*addr as usize..*addr as usize + bytes.len()].copy_from_slice(bytes);
        }
        let snap = SnapshotFile::capture(&src, Vec::new());
        drop(src);

        let mut a = snap.restore(&h);
        let b = snap.restore(&h);
        for (addr, bytes) in &clone_writes {
            a.write(*addr, bytes);
        }
        // Clone b still sees the unmodified snapshot contents.
        let mut buf = vec![0u8; SPACE_BYTES as usize];
        b.read(0, &mut buf);
        prop_assert_eq!(&buf, &mirror);
        // A third restore also sees the snapshot contents.
        let c = snap.restore(&h);
        c.read(0, &mut buf);
        prop_assert_eq!(&buf, &mirror);
    }

    /// PSS of all mappers sums to the host's live frame bytes for frames
    /// mapped by at least one space (conservation of accounted memory).
    #[test]
    fn pss_is_conserved(
        base_pages in 1usize..32,
        clones in 1usize..6,
        dirty_pages in 0usize..16,
    ) {
        let h = host();
        let mut src = AddressSpace::new(h.clone(), SPACE_BYTES);
        src.touch_dirty(0, (base_pages * PAGE_SIZE) as u64);
        let snap = SnapshotFile::capture(&src, Vec::new());
        drop(src);

        let mut spaces = Vec::new();
        for i in 0..clones {
            let mut s = snap.restore(&h);
            if i == 0 {
                let d = dirty_pages.min(base_pages);
                s.touch_dirty(0, (d * PAGE_SIZE) as u64);
            }
            spaces.push(s);
        }
        let pss_sum: u64 = spaces.iter().map(|s| s.pss_bytes()).sum();
        // PSS must sum to the bytes of the distinct frames that are mapped
        // by at least one space (a CoW'd snapshot frame may survive with a
        // file pin only — it is resident but charged to nobody, exactly
        // like a page-cache page with no mappers).
        let mut unique = std::collections::HashSet::new();
        for s in &spaces {
            for (_, f) in s.mapped() {
                unique.insert(f);
            }
        }
        let mapped_bytes = unique.len() as u64 * PAGE_SIZE as u64;
        // Each space rounds its fixed-point sum once: within ½ byte plus
        // less than 2⁻³² byte per page.
        let tolerance = spaces.len() as u64 / 2;
        prop_assert!(
            pss_sum.abs_diff(mapped_bytes) <= tolerance,
            "pss {pss_sum} vs mapped {mapped_bytes}"
        );
    }

    /// Releasing every space and snapshot frees all host frames.
    #[test]
    fn no_frame_leaks(
        pages in 1usize..32,
        clones in 0usize..5,
    ) {
        let h = host();
        {
            let mut src = AddressSpace::new(h.clone(), SPACE_BYTES);
            src.touch_dirty(0, (pages * PAGE_SIZE) as u64);
            let snap = SnapshotFile::capture(&src, Vec::new());
            let mut spaces = Vec::new();
            for _ in 0..clones {
                let mut s = snap.restore(&h);
                s.touch_dirty(0, PAGE_SIZE as u64);
                spaces.push(s);
            }
        }
        prop_assert_eq!(h.live_frames(), 0);
    }
}

/// Three whole-space loops (`pss_bytes`, `sharing_stats`,
/// `resident_pages`), the reference the single pass and the maintained
/// resident counter are checked against. PSS counts pages per mappers
/// value, then sums each page's `⌊PAGE_SIZE·2³² / mappers⌋` and rounds
/// half up once.
fn three_loop_reference(space: &AddressSpace) -> (u64, usize, usize, usize) {
    let host = space.host();
    let mut pages = std::collections::BTreeMap::<u32, u128>::new();
    for (_, frame) in space.mapped() {
        *pages.entry(host.mappers(frame).max(1)).or_default() += 1;
    }
    let pss: u128 = pages
        .iter()
        .map(|(&mappers, &n)| n * (((PAGE_SIZE as u128) << 32) / u128::from(mappers)))
        .sum();
    let (mut shared_pages, mut private_pages) = (0usize, 0usize);
    for (_, frame) in space.mapped() {
        if host.mappers(frame) > 1 {
            shared_pages += 1;
        } else {
            private_pages += 1;
        }
    }
    let resident = space.mapped().count();
    let pss = ((pss + (1 << 31)) >> 32) as u64;
    (pss, shared_pages, private_pages, resident)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass `sharing_stats()` and the resident counter agree with
    /// the three-loop reference after every step of a random interleaving
    /// of writes, accounting-only touches, shared mappings, captures,
    /// sibling restores and drops. Every case starts from the Dedup
    /// layout: two snapshot files over one frame list.
    #[test]
    fn one_pass_accounting_matches_the_three_loops(
        base_pages in 1usize..48,
        ops in proptest::collection::vec((0u8..8, any::<u16>(), any::<u16>()), 1..48),
    ) {
        let h = host();
        let mut base = AddressSpace::new(h.clone(), SPACE_BYTES);
        base.touch_dirty(0, (base_pages * PAGE_SIZE) as u64);
        let first = SnapshotFile::capture(&base, Vec::new());
        // `from_mapped` consumes one owner reference per frame.
        first.extents().for_each(|e| h.retain_extent(&e));
        let twin = SnapshotFile::from_mapped(&h, SPACE_BYTES, first.extents().collect(), Vec::new());
        let mut snapshots = vec![first, twin];
        let mut spaces = vec![base, snapshots[0].restore(&h), snapshots[1].restore(&h)];

        for (kind, x, y) in ops {
            let (x, y) = (x as usize, y as usize);
            if spaces.is_empty() {
                spaces.push(AddressSpace::new(h.clone(), SPACE_BYTES));
            }
            let s = x % spaces.len();
            match kind {
                0 => spaces[s].write((y as u64 * 31) % (SPACE_BYTES - 1), &[y as u8]),
                1 => {
                    let page = y % 64;
                    let pages = (1 + x % 4).min(64 - page);
                    spaces[s].touch_dirty((page * PAGE_SIZE) as u64, (pages * PAGE_SIZE) as u64);
                }
                2 => {
                    // Map one of another space's frames at the same page.
                    let src = y % spaces.len();
                    let mapped = spaces[src].mapped().nth(x % 64);
                    if let (true, Some((page, frame))) = (src != s, mapped) {
                        spaces[s].map_shared(page, frame);
                    }
                }
                3 => snapshots.push(SnapshotFile::capture(&spaces[s], Vec::new())),
                4 if !snapshots.is_empty() => {
                    let clone = snapshots[y % snapshots.len()].restore(&h);
                    spaces.push(clone);
                }
                5 => drop(spaces.swap_remove(s)),
                6 if !snapshots.is_empty() => drop(snapshots.swap_remove(y % snapshots.len())),
                _ => {}
            }
            for space in &spaces {
                let (pss_bytes, shared_pages, private_pages, resident) = three_loop_reference(space);
                let stats = space.sharing_stats();
                prop_assert_eq!(stats.pss_bytes, pss_bytes);
                prop_assert_eq!(space.pss_bytes(), pss_bytes);
                prop_assert_eq!(stats.shared_pages, shared_pages);
                prop_assert_eq!(stats.private_pages, private_pages);
                prop_assert_eq!(space.resident_pages(), resident);
                prop_assert_eq!(space.rss_bytes(), (resident * PAGE_SIZE) as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same property where the run-length sum matters: images of
    /// 40 000+ pages under 1..=9 sharers, so `4096 / mappers` is inexact
    /// (3, 5, 6, 7, 9), partial sums climb through ~26 binades, and runs
    /// of tens of thousands of equal terms sit between the exceptions —
    /// pages a clone dirtied (private here, one mapper fewer for its
    /// siblings) and pages it grew beyond the image.
    #[test]
    fn run_length_sum_matches_the_scan_on_large_images(
        extra_pages in 0usize..2_000,
        sharers in 1usize..10,
        dirt in proptest::collection::vec((0usize..9, any::<u32>(), 1u64..40), 0..24),
    ) {
        let h = host();
        let pages = 40_000 + extra_pages;
        let bytes = 2 * (pages * PAGE_SIZE) as u64;
        let mut booted = AddressSpace::new(h.clone(), bytes);
        // Two regions with a hole between them, like a real image.
        booted.touch_dirty(0, (30_000 * PAGE_SIZE) as u64);
        booted.touch_dirty((31_000 * PAGE_SIZE) as u64, ((pages - 30_000) * PAGE_SIZE) as u64);
        let snap = SnapshotFile::capture(&booted, Vec::new());
        drop(booted);
        let mut clones: Vec<AddressSpace> = (0..sharers).map(|_| snap.restore(&h)).collect();
        for (clone, at, len) in dirt {
            let first = at as usize % (2 * pages - 40);
            clones[clone % sharers].touch_dirty((first * PAGE_SIZE) as u64, len * PAGE_SIZE as u64);
        }
        for clone in &clones {
            let (pss_bytes, shared_pages, private_pages, resident) = three_loop_reference(clone);
            let stats = clone.sharing_stats();
            prop_assert_eq!(stats.pss_bytes, pss_bytes);
            prop_assert_eq!((stats.shared_pages, stats.private_pages), (shared_pages, private_pages));
            prop_assert_eq!(clone.resident_pages(), resident);
        }
        // Siblings exiting changes every remaining term.
        clones.truncate(sharers.div_ceil(2));
        for clone in &clones {
            let (pss_bytes, ..) = three_loop_reference(clone);
            prop_assert_eq!(clone.pss_bytes(), pss_bytes);
        }
    }
}
