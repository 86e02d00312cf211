//! The eager guest-memory semantics kept as a reference model, and the
//! lazy implementation driven against it.
//!
//! Before restores became mapping groups, a restore mapped every
//! snapshot frame into a dense slot vector with one reference each, a
//! drop released every slot, and accounting scanned every slot. That is
//! still the *definition* of what the crate computes; `Model` is that
//! implementation in miniature (per-frame `refs`/`pins`, dense slots, the
//! scan verbatim). Every property here applies one random operation to
//! both and then compares everything observable.

use std::collections::{BTreeMap, HashMap};

use fireworks_guestmem::{
    AddressSpace, Extent, FrameId, HostMemory, SharingStats, SnapshotFile, PAGE_SIZE,
};
use fireworks_sim::cost::MemCosts;
use fireworks_sim::hash::fnv1a;
use fireworks_sim::Clock;
use proptest::prelude::*;

const PAGES: usize = 64;
const SPACE_BYTES: u64 = (PAGES * PAGE_SIZE) as u64;
/// Bytes of each page the operations write to and the comparison reads.
const WINDOW: usize = 96;

#[derive(Debug)]
struct ModelFrame {
    refs: u32,
    pins: u32,
    data: Option<Vec<u8>>,
}

impl ModelFrame {
    fn checksum(&self) -> u64 {
        fnv1a(self.data.as_deref().unwrap_or(&[0u8; PAGE_SIZE]))
    }
}

#[derive(Debug)]
struct ModelSnapshot {
    frames: Vec<(usize, usize)>,
    checksums: Vec<u64>,
}

/// The frame table, spaces and snapshot files of the eager design. Frame
/// ids are never reused, so a stale id cannot alias a live frame.
#[derive(Debug, Default)]
struct Model {
    frames: BTreeMap<usize, ModelFrame>,
    next_id: usize,
    cow_faults: u64,
    zero_fills: u64,
    spaces: Vec<Vec<Option<usize>>>,
    snapshots: Vec<ModelSnapshot>,
}

impl Model {
    fn alloc(&mut self, data: Option<Vec<u8>>) -> usize {
        self.next_id += 1;
        let fresh = ModelFrame {
            refs: 1,
            pins: 0,
            data,
        };
        self.frames.insert(self.next_id, fresh);
        self.next_id
    }

    fn retain(&mut self, id: usize) {
        self.frames.get_mut(&id).expect("live frame").refs += 1;
    }

    fn pin(&mut self, id: usize) {
        let e = self.frames.get_mut(&id).expect("live frame");
        e.refs += 1;
        e.pins += 1;
    }

    fn release(&mut self, id: usize, pin: bool) {
        let e = self.frames.get_mut(&id).expect("live frame");
        e.pins -= u32::from(pin);
        e.refs -= 1;
        if e.refs == 0 {
            self.frames.remove(&id);
        }
    }

    fn mappers(&self, id: usize) -> u32 {
        let e = &self.frames[&id];
        e.refs - e.pins
    }

    fn prepare_write(&mut self, id: usize) -> usize {
        if self.frames[&id].refs == 1 {
            return id;
        }
        let data = self.frames[&id].data.clone();
        self.frames.get_mut(&id).expect("live frame").refs -= 1;
        self.cow_faults += 1;
        self.alloc(data)
    }

    fn frame_for_write(&mut self, space: usize, page: usize) -> usize {
        let frame = match self.spaces[space][page] {
            None => {
                self.zero_fills += 1;
                self.alloc(None)
            }
            Some(f) => self.prepare_write(f),
        };
        self.spaces[space][page] = Some(frame);
        frame
    }

    fn write(&mut self, space: usize, page: usize, offset: usize, bytes: &[u8]) {
        let frame = self.frame_for_write(space, page);
        let e = self.frames.get_mut(&frame).expect("live frame");
        assert_eq!((e.refs, e.pins), (1, 0), "write to a shared frame");
        let data = e.data.get_or_insert_with(|| vec![0u8; PAGE_SIZE]);
        data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    fn map_shared(&mut self, space: usize, page: usize, frame: usize) {
        self.retain(frame);
        if let Some(old) = self.spaces[space][page].replace(frame) {
            self.release(old, false);
        }
    }

    fn mapped(&self, space: usize) -> Vec<(usize, usize)> {
        let slots = self.spaces[space].iter().enumerate();
        slots.filter_map(|(page, f)| f.map(|f| (page, f))).collect()
    }

    /// `consume`: the caller's reference on each frame becomes the pin
    /// (`from_mapped`); otherwise a pin is added (`capture`).
    fn seal(&mut self, frames: Vec<(usize, usize)>, consume: bool) {
        for &(_, f) in &frames {
            self.pin(f);
            if consume {
                self.release(f, false);
            }
        }
        let checksums = frames.iter().map(|(_, f)| self.frames[f].checksum());
        let checksums = checksums.collect();
        self.snapshots.push(ModelSnapshot { frames, checksums });
    }

    fn restore(&mut self, snapshot: usize) {
        self.spaces.push(vec![None; PAGES]);
        let space = self.spaces.len() - 1;
        for (page, frame) in self.snapshots[snapshot].frames.clone() {
            self.map_shared(space, page, frame);
        }
    }

    fn drop_space(&mut self, space: usize) {
        for frame in self.spaces.swap_remove(space).into_iter().flatten() {
            self.release(frame, false);
        }
    }

    fn drop_snapshot(&mut self, snapshot: usize) {
        for (_, frame) in self.snapshots.swap_remove(snapshot).frames {
            self.release(frame, true);
        }
    }

    fn corrupt_page(&mut self, snapshot: usize, index: usize) {
        let frame = self.snapshots[snapshot].frames[index].1;
        let e = self.frames.get_mut(&frame).expect("live frame");
        e.data.get_or_insert_with(|| vec![0u8; PAGE_SIZE])[0] ^= 0xff;
    }

    /// Index of the first page whose stored bytes no longer checksum.
    fn verify(&self, snapshot: usize) -> Option<usize> {
        let snap = &self.snapshots[snapshot];
        let sums = snap.frames.iter().zip(&snap.checksums);
        sums.map(|((_, f), sum)| self.frames[f].checksum() == *sum)
            .position(|clean| !clean)
    }

    /// The accounting scan: pages counted per mappers value, then each
    /// page's `⌊PAGE_SIZE·2³² / mappers⌋` summed and rounded half up once.
    fn sharing_stats(&self, space: usize) -> SharingStats {
        let mut pages = BTreeMap::<u32, u128>::new();
        for (_, frame) in self.mapped(space) {
            *pages.entry(self.mappers(frame).max(1)).or_default() += 1;
        }
        let fixed: u128 = pages
            .iter()
            .map(|(&mappers, &n)| n * (((PAGE_SIZE as u128) << 32) / u128::from(mappers)))
            .sum();
        SharingStats {
            shared_pages: pages.range(2..).map(|(_, &n)| n as usize).sum(),
            private_pages: pages.get(&1).map_or(0, |&n| n as usize),
            pss_bytes: ((fixed + (1 << 31)) >> 32) as u64,
        }
    }
}

/// The implementation under test, holding the same objects at the same
/// indices as the model.
struct Real {
    clock: Clock,
    host: HostMemory,
    spaces: Vec<AddressSpace>,
    snapshots: Vec<SnapshotFile>,
    /// Raw references taken with `retain`, with the model's frame id.
    raw: Vec<(FrameId, usize)>,
}

/// Everything observable, compared after every operation. Frame ids
/// differ between the two sides (the free lists recycle differently), so
/// frames are matched through the page tables: model and real must map
/// the same pages, through one consistent bijection of frame ids.
fn compare(model: &Model, real: &Real) -> Result<(), String> {
    let mut to_real: BTreeMap<usize, FrameId> = BTreeMap::new();
    let mut to_model: HashMap<FrameId, usize> = HashMap::new();
    let mut pair = |m: usize, r: FrameId| {
        let matched = *to_real.entry(m).or_insert(r) == r && *to_model.entry(r).or_insert(m) == m;
        let broken = || format!("frame {m} ↔ {r:?} breaks the bijection");
        matched.then_some(()).ok_or_else(broken)
    };
    for (i, space) in real.spaces.iter().enumerate() {
        // The overlay is sorted, disjoint and merged: no extent is empty
        // or continued by the next.
        let over = space.overlay();
        let merged = |w: &[Extent]| w[0].page + w[0].len <= w[1].page && !w[0].continued_by(&w[1]);
        prop_assert!(over.iter().all(|e| e.len > 0), "space {} {:?}", i, over);
        prop_assert!(over.windows(2).all(merged), "space {} {:?}", i, over);
        let (want, got): (Vec<_>, Vec<_>) = (model.mapped(i), space.mapped().collect());
        prop_assert_eq!(want.len(), got.len(), "space {} mapped pages", i);
        for ((page, m), (real_page, r)) in want.iter().zip(&got) {
            prop_assert_eq!(page, real_page, "space {} page order", i);
            pair(*m, *r)?;
            let mut bytes = [0u8; WINDOW];
            space.read((page * PAGE_SIZE) as u64, &mut bytes);
            let stored = model.frames[m].data.as_deref();
            prop_assert_eq!(
                &bytes[..],
                stored.map_or(&[0u8; WINDOW][..], |d| &d[..WINDOW])
            );
        }
        let stats = model.sharing_stats(i);
        prop_assert_eq!(space.sharing_stats(), stats, "space {}", i);
        prop_assert_eq!(space.pss_bytes(), stats.pss_bytes);
        prop_assert_eq!(space.resident_pages(), stats.resident_pages());
        prop_assert_eq!(space.rss_bytes(), (want.len() * PAGE_SIZE) as u64);
    }
    for (i, snap) in real.snapshots.iter().enumerate() {
        let want = &model.snapshots[i].frames;
        prop_assert_eq!(snap.pages(), want.len());
        for ((page, m), (real_page, r)) in want.iter().zip(&snap.frames()) {
            prop_assert_eq!(page, real_page, "snapshot {} page order", i);
            pair(*m, *r)?;
        }
        // Twice: the second answer may come from the verify-once record.
        for _ in 0..2 {
            let failed = snap.verify().err().map(|e| e.page);
            prop_assert_eq!(failed, model.verify(i), "snapshot {} verify", i);
        }
    }
    for (r, m) in &real.raw {
        pair(*m, *r)?;
    }
    for (m, r) in &to_real {
        prop_assert_eq!(
            real.host.mappers(*r),
            model.mappers(*m),
            "mappers of frame {}",
            m
        );
    }
    let stats = real.host.stats();
    prop_assert_eq!(stats.live_frames, model.frames.len());
    prop_assert_eq!(real.host.live_frames(), model.frames.len());
    prop_assert_eq!(
        (stats.cow_faults, stats.zero_fills),
        (model.cow_faults, model.zero_fills)
    );
    let costs = MemCosts::default();
    let charged = costs.cow_fault * model.cow_faults + costs.zero_fill * model.zero_fills;
    prop_assert_eq!(real.clock.now(), charged);
    Ok(())
}

/// Applies operation `(kind, x, y)` to both sides.
fn apply(model: &mut Model, real: &mut Real, (kind, x, y): (u8, u16, u16)) {
    let (x, y) = (x as usize, y as usize);
    if real.spaces.is_empty() {
        real.spaces
            .push(AddressSpace::new(real.host.clone(), SPACE_BYTES));
        model.spaces.push(vec![None; PAGES]);
    }
    let s = x % real.spaces.len();
    let page = y % PAGES;
    match kind {
        0 => {
            let (offset, bytes) = (x % (WINDOW - 2), [y as u8, x as u8]);
            real.spaces[s].write((page * PAGE_SIZE + offset) as u64, &bytes);
            model.write(s, page, offset, &bytes);
        }
        1 | 12 => {
            // Short touches, and long ones whose unmapped pages form runs.
            let pages = (1 + x % if kind == 1 { 5 } else { 24 }).min(PAGES - page);
            real.spaces[s].touch_dirty((page * PAGE_SIZE) as u64, (pages * PAGE_SIZE) as u64);
            (page..page + pages).for_each(|p| _ = model.frame_for_write(s, p));
        }
        2 => {
            // Map one of a sibling's frames at the same page.
            let src = y % real.spaces.len();
            let picked = real.spaces[src].mapped().nth(x % PAGES);
            if let (true, Some((page, frame))) = (src != s, picked) {
                real.spaces[s].map_shared(page, frame);
                let frame = model.spaces[src][page].expect("same page tables");
                model.map_shared(s, page, frame);
            }
        }
        3 => {
            real.snapshots
                .push(SnapshotFile::capture(&real.spaces[s], Vec::new()));
            model.seal(model.mapped(s), false);
        }
        4 if !real.snapshots.is_empty() => {
            let snap = y % real.snapshots.len();
            real.spaces.push(real.snapshots[snap].restore(&real.host));
            model.restore(snap);
        }
        5 => {
            drop(real.spaces.swap_remove(s));
            model.drop_space(s);
        }
        6 if !real.snapshots.is_empty() => {
            // Dropping the file before its clones is the point.
            let snap = y % real.snapshots.len();
            drop(real.snapshots.swap_remove(snap));
            model.drop_snapshot(snap);
        }
        7 if !real.snapshots.is_empty() => {
            // A twin image over the same frames, as a dedup store builds.
            let snap = &real.snapshots[y % real.snapshots.len()];
            let extents: Vec<Extent> = snap.extents().collect();
            extents.iter().for_each(|e| real.host.retain_extent(e));
            let twin = SnapshotFile::from_mapped(&real.host, SPACE_BYTES, extents, Vec::new());
            real.snapshots.push(twin);
            let frames = model.snapshots[y % model.snapshots.len()].frames.clone();
            frames.iter().for_each(|(_, f)| model.retain(*f));
            model.seal(frames, true);
        }
        8 if !real.snapshots.is_empty() => {
            let snap = y % real.snapshots.len();
            if real.snapshots[snap].pages() > 0 {
                let index = x % real.snapshots[snap].pages();
                real.snapshots[snap].corrupt_page(index);
                model.corrupt_page(snap, index);
            }
        }
        9 => {
            // A raw reference on a mapped frame: an explicit mapper that
            // no page table shows, outliving the space it was found in.
            if let Some((page, frame)) = real.spaces[s].mapped().nth(y % PAGES) {
                let m = model.spaces[s][page].expect("same page tables");
                real.host.retain(frame);
                model.retain(m);
                real.raw.push((frame, m));
            }
        }
        10 if !real.raw.is_empty() => {
            let (frame, m) = real.raw.swap_remove(y % real.raw.len());
            real.host.release(frame);
            model.release(m, false);
        }
        11 if !real.snapshots.is_empty() => {
            // A partial, shifted co-lister, as a dedup store builds from
            // shared chunks: a sub-run of an image's frames at their own
            // pages, behind fresh frames, so the positions differ.
            let snap = y % real.snapshots.len();
            let pages = real.snapshots[snap].pages();
            if pages > 0 {
                let from = x % pages;
                let to = from + 1 + (y / 7) % (pages - from);
                let fresh = (x / 3) % (real.snapshots[snap].frames()[from].0 + 1);
                let mut frames: Vec<_> = (0..fresh).map(|p| (p, real.host.alloc_zero())).collect();
                let run = &real.snapshots[snap].frames()[from..to];
                run.iter().for_each(|(_, f)| real.host.retain(*f));
                frames.extend_from_slice(run);
                let frames = frames.into_iter().map(|(page, frame)| Extent {
                    page,
                    frame,
                    len: 1,
                });
                let frames = frames.collect();
                let co = SnapshotFile::from_mapped(&real.host, SPACE_BYTES, frames, Vec::new());
                real.snapshots.push(co);
                model.zero_fills += fresh as u64;
                let mut frames: Vec<_> = (0..fresh).map(|p| (p, model.alloc(None))).collect();
                let run = model.snapshots[snap].frames[from..to].to_vec();
                run.iter().for_each(|(_, f)| model.retain(*f));
                frames.extend(run);
                model.seal(frames, true);
            }
        }
        13 | 14 => {
            // One frame of a run diverges: a reference taken and dropped
            // again (the run is cut, then whole again), or a poke.
            if let Some((page, frame)) = real.spaces[s].mapped().nth(y % PAGES) {
                let m = model.spaces[s][page].expect("same page tables");
                if kind == 13 {
                    real.host.retain(frame);
                    real.host.release(frame);
                } else {
                    let mut byte = [0u8];
                    real.host.read_frame(frame, 0, &mut byte);
                    real.host.poke_frame(frame, 0, &[byte[0] ^ 0xff]);
                    let e = model.frames.get_mut(&m).expect("live frame");
                    e.data.get_or_insert_with(|| vec![0u8; PAGE_SIZE])[0] ^= 0xff;
                }
            }
        }
        15 => {
            // An image over frames that are not consecutive: frames the
            // free list hands out one by one, then a run's frames listed
            // backwards.
            let n = 1 + x % 8;
            let mut run = AddressSpace::new(real.host.clone(), SPACE_BYTES);
            run.touch_dirty(0, (n * PAGE_SIZE) as u64);
            let mut backwards: Vec<FrameId> = run.mapped().map(|(_, f)| f).collect();
            backwards.reverse();
            backwards.iter().for_each(|f| real.host.retain(*f));
            drop(run);
            let fresh = (0..n).map(|_| real.host.alloc_zero()).chain(backwards);
            let frames = fresh.enumerate().map(|(page, frame)| Extent {
                page,
                frame,
                len: 1,
            });
            let listed =
                SnapshotFile::from_mapped(&real.host, SPACE_BYTES, frames.collect(), Vec::new());
            real.snapshots.push(listed);
            model.zero_fills += 2 * n as u64;
            let frames = (0..2 * n).map(|page| (page, model.alloc(None))).collect();
            model.seal(frames, true);
        }
        16 => {
            // A sibling's frames over a stretch of pages, at the same
            // pages: where they are consecutive (a run, or a sibling
            // clone's base) and this space is a clone, one extent covers
            // several base positions.
            let src = y % real.spaces.len();
            let stretch = page..page + 1 + x % 12;
            let picked = real.spaces[src]
                .mapped()
                .filter(|(p, _)| stretch.contains(p));
            let picked: Vec<(usize, FrameId)> = picked.collect();
            for (page, frame) in picked.into_iter().filter(|_| src != s) {
                real.spaces[s].map_shared(page, frame);
                let frame = model.spaces[src][page].expect("same page tables");
                model.map_shared(s, page, frame);
            }
        }
        17 => {
            // A touch from inside one overlay extent to inside another (or
            // the same one), over whatever lies between.
            let over = real.spaces[s].overlay();
            if !over.is_empty() {
                let (a, b) = (over[y % over.len()], over[(x + y) % over.len()]);
                let (p, q) = (a.page + x % a.len, b.page + y % b.len);
                let (first, last) = (p.min(q), p.max(q));
                let (addr, len) = (first * PAGE_SIZE, (last + 1 - first) * PAGE_SIZE);
                real.spaces[s].touch_dirty(addr as u64, len as u64);
                (first..=last).for_each(|p| _ = model.frame_for_write(s, p));
            }
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Model and implementation agree on everything observable after
    /// every step of a random interleaving of writes, accounting-only
    /// touches (short, and long enough that runs form), shared mappings,
    /// captures (of booted spaces and of restored clones), `from_mapped`
    /// twins, partial shifted co-listers and lists of frames that are not
    /// consecutive, restores, raw references, one frame of a run
    /// diverging (a reference taken and dropped, a poke), corruption, a
    /// sibling's stretch of frames mapped over a clone's base, touches
    /// that start and end inside overlay extents, and drops of files and
    /// clones in any order.
    #[test]
    fn lazy_groups_match_the_eager_model(
        base_pages in 1usize..PAGES,
        ops in proptest::collection::vec((0u8..18, any::<u16>(), any::<u16>()), 1..64),
    ) {
        let clock = Clock::new();
        let host = HostMemory::new(clock.clone(), 1 << 32);
        let (spaces, snapshots, raw) = (Vec::new(), Vec::new(), Vec::new());
        let mut real = Real { clock, host, spaces, snapshots, raw };
        let mut model = Model::default();
        // Start where the platform lives: a booted image (runs of up to 24
        // untouched pages, one page written) with two clones and (two
        // cases in three) the booted VM already gone.
        let boot = (0..base_pages).step_by(24).map(|page| (12, 23, page as u16));
        let written = (0, 7, (base_pages / 2) as u16);
        let source = if base_pages % 3 == 0 { 11 } else { 5 };
        let captured = [written, (3, 0, 0), (4, 0, 0), (4, 0, 0), (source, 0, 0)];
        for op in boot.chain(captured) {
            apply(&mut model, &mut real, op);
        }
        compare(&model, &real)?;
        for op in ops {
            apply(&mut model, &mut real, op);
            compare(&model, &real)?;
        }
        // Tear down, files and clones interleaved; nothing may leak.
        for step in 0.. {
            let kind = match (real.raw.is_empty(), real.spaces.len(), real.snapshots.len()) {
                (false, ..) => 10,
                (true, 0, 0) => break,
                (true, spaces, files) if files == 0 || (spaces > 0 && step % 2 == 0) => 5,
                _ => 6,
            };
            apply(&mut model, &mut real, (kind, step, step));
            compare(&model, &real)?;
        }
        prop_assert_eq!(real.host.live_frames(), 0);
    }
}
