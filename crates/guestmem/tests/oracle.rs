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
    AddressSpace, FrameId, HostMemory, SharingStats, SnapshotFile, PAGE_SIZE,
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

    /// The accounting scan, verbatim from the eager `AddressSpace`.
    fn sharing_stats(&self, space: usize) -> SharingStats {
        let mut stats = SharingStats::default();
        let mut pss = 0.0f64;
        for (_, frame) in self.mapped(space) {
            let mappers = self.mappers(frame);
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
        for ((page, m), (real_page, r)) in want.iter().zip(snap.frames()) {
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
        1 => {
            let pages = (1 + x % 5).min(PAGES - page);
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
            let frames = snap.frames().to_vec();
            frames.iter().for_each(|(_, f)| real.host.retain(*f));
            let twin = SnapshotFile::from_mapped(&real.host, SPACE_BYTES, frames, Vec::new());
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
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Model and implementation agree on everything observable after
    /// every step of a random interleaving of writes, accounting-only
    /// touches, shared mappings, captures (of booted spaces and of
    /// restored clones), `from_mapped` twins and partial shifted
    /// co-listers, restores, raw references, corruption, and drops of
    /// files and clones in any order.
    #[test]
    fn lazy_groups_match_the_eager_model(
        base_pages in 1usize..PAGES,
        ops in proptest::collection::vec((0u8..12, any::<u16>(), any::<u16>()), 1..64),
    ) {
        let clock = Clock::new();
        let host = HostMemory::new(clock.clone(), 1 << 32, 60);
        let (spaces, snapshots, raw) = (Vec::new(), Vec::new(), Vec::new());
        let mut real = Real { clock, host, spaces, snapshots, raw };
        let mut model = Model::default();
        // Start where the platform lives: a booted image with two clones
        // and (two cases in three) the booted VM already gone.
        let boot = (0..base_pages).step_by(5).map(|page| (1, 4, page as u16));
        let source = if base_pages % 3 == 0 { 11 } else { 5 };
        for op in boot.chain([(3, 0, 0), (4, 0, 0), (4, 0, 0), (source, 0, 0)]) {
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
