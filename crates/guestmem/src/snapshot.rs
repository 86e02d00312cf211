//! Snapshot files: pinned frame sets (one mapping group each) plus device
//! state, with per-page checksums so stored-page corruption is detected
//! at restore time — by one full pass, then remembered until a poke — and
//! content-addressed manifests so snapshots can be deduplicated and
//! shipped between hosts chunk by chunk.

use std::fmt;
use std::rc::Rc;

use fireworks_sim::hash;

use crate::addr::AddressSpace;
use crate::host::{FrameId, HostMemory, PAGE_SIZE};
use crate::image::Image;

/// Identity of a whole snapshot: the capture-time digest (page numbers
/// folded with page checksums, FNV-1a). Two snapshots with the same id
/// store byte-identical guest memory at identical guest addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotId(u64);

impl SnapshotId {
    /// Wraps a raw digest value.
    pub fn from_raw(raw: u64) -> Self {
        SnapshotId(raw)
    }

    /// The raw digest value (for JSON output and log labels).
    pub fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snap:{:016x}", self.0)
    }
}

/// Content hash of one snapshot chunk: FNV-1a folded over the chunk's
/// (guest page number, page checksum) pairs. Two chunks with equal
/// hashes carry the same bytes at the same guest addresses, so a store
/// may keep a single copy and map it into any snapshot that wants it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkHash(u64);

impl ChunkHash {
    /// Wraps a raw hash value.
    pub fn from_raw(raw: u64) -> Self {
        ChunkHash(raw)
    }

    /// The raw hash value (for JSON output and log labels).
    pub fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk:{:016x}", self.0)
    }
}

/// One chunk of a snapshot manifest: a fixed-size run of the snapshot's
/// frame list (the last chunk may be short).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ChunkRef {
    /// Content hash of the run.
    pub hash: ChunkHash,
    /// Pages covered by this chunk.
    pub pages: usize,
    /// Bytes covered by this chunk (`pages * PAGE_SIZE`).
    pub bytes: u64,
}

/// A content-addressed description of a snapshot: its identity plus the
/// ordered chunk list. A host holding every chunk of a manifest can
/// reconstruct the snapshot without touching the source function, and a
/// host holding only some chunks knows exactly how many bytes it is
/// missing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SnapshotManifest {
    /// Identity of the snapshot this manifest describes.
    pub id: SnapshotId,
    /// Guest address-space size the snapshot restores into.
    pub size_bytes: u64,
    /// Chunk granularity in pages every full-size chunk uses.
    pub chunk_pages: usize,
    /// Ordered chunk list covering the snapshot's frame list.
    pub chunks: Vec<ChunkRef>,
    /// Device-state blob carried alongside guest memory.
    pub device_state: Vec<u8>,
}

impl SnapshotManifest {
    /// Total guest-memory bytes described by the manifest.
    pub fn total_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.bytes).sum()
    }

    /// Total pages described by the manifest.
    pub fn total_pages(&self) -> usize {
        self.chunks.iter().map(|c| c.pages).sum()
    }
}

/// A snapshot failed checksum verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotIntegrityError {
    /// Index (within the snapshot's frame list) of the first bad page.
    pub page: usize,
    /// Checksum recorded at capture time.
    pub expected: u64,
    /// Checksum of the page as stored now.
    pub actual: u64,
}

impl fmt::Display for SnapshotIntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot page {} corrupt: checksum {:#018x}, expected {:#018x}",
            self.page, self.actual, self.expected
        )
    }
}

impl std::error::Error for SnapshotIntegrityError {}

/// A VM memory snapshot "file".
///
/// Creating a snapshot pins the source address space's current frames (the
/// page-cache residency of the snapshot file), registers the frame list
/// with the host's frame table as a *mapping group*, and records an opaque
/// device-state blob. Restoring joins that group: the fresh
/// [`AddressSpace`] maps every stored frame shared without touching one,
/// and guests then CoW pages as they write, so any number of clones share
/// unmodified pages — the mechanism behind the paper's Fig. 4 and its
/// memory results.
///
/// # Examples
///
/// ```
/// use fireworks_guestmem::{AddressSpace, HostMemory, SnapshotFile};
/// use fireworks_sim::Clock;
///
/// let host = HostMemory::new(Clock::new(), 1 << 30, 60);
/// let mut vm = AddressSpace::new(host.clone(), 1 << 20);
/// vm.write(0, b"jitted code");
/// let snap = SnapshotFile::capture(&vm, vec![1, 2, 3]);
/// let clone = snap.restore(&host);
/// let mut buf = [0u8; 11];
/// clone.read(0, &mut buf);
/// assert_eq!(&buf, b"jitted code");
/// ```
#[derive(Debug)]
pub struct SnapshotFile {
    host: HostMemory,
    size_bytes: u64,
    image: Rc<Image>,
    /// The frame list's mapping group in `host`'s frame table.
    group: u32,
    checksums: Vec<u64>,
    digest: u64,
    device_state: Vec<u8>,
}

impl SnapshotFile {
    /// Captures the current state of `space` together with a device-state
    /// blob (VM configuration, vCPU state, runtime state handle). Every
    /// stored page is checksummed at capture time so later corruption is
    /// detectable via [`SnapshotFile::verify`].
    pub fn capture(space: &AddressSpace, device_state: Vec<u8>) -> Self {
        let mut frames = Vec::with_capacity(space.resident_pages());
        space.mapped_into(&mut frames);
        Self::seal(
            space.host(),
            space.size_bytes(),
            frames,
            device_state,
            false,
        )
    }

    /// Pins, registers and checksums `frames` in one pass over them;
    /// `consume` turns the caller's reference on each into the pin.
    fn seal(
        host: &HostMemory,
        size_bytes: u64,
        frames: Vec<(usize, FrameId)>,
        device_state: Vec<u8>,
        consume: bool,
    ) -> Self {
        let image = Rc::new(Image::new(frames));
        let (group, checksums) = host.register(&image, consume);
        SnapshotFile {
            host: host.clone(),
            size_bytes,
            digest: Self::fold_digest(&image.frames, &checksums),
            image,
            group,
            checksums,
            device_state,
        }
    }

    /// Folds page numbers and page checksums into one digest: the id of
    /// a whole snapshot, or the hash of one chunk of it.
    fn fold_digest(frames: &[(usize, FrameId)], checksums: &[u64]) -> u64 {
        frames
            .iter()
            .zip(checksums)
            .fold(hash::OFFSET, |h, ((page, _), sum)| {
                hash::mix(hash::mix(h, *page as u64), *sum)
            })
    }

    /// Rebuilds a snapshot from an explicit frame list — the delta-fetch
    /// path: a host that has assembled every frame of a remote snapshot
    /// (from deduplicated chunks plus transferred ones) turns them back
    /// into a restorable snapshot file. Frames are re-checksummed exactly
    /// as [`SnapshotFile::capture`] would, so a faithful reconstruction
    /// reproduces the source snapshot's [`SnapshotId`].
    ///
    /// Unlike `capture` (which pins on top of the source address space's
    /// mappings), this *consumes* one owner reference per frame: the
    /// caller's reference becomes the snapshot-file pin, and dropping the
    /// snapshot frees frames nothing else maps.
    ///
    /// `frames` must be sorted by guest page number (ascending), as
    /// `capture` records them, and name each frame once.
    pub fn from_mapped(
        host: &HostMemory,
        size_bytes: u64,
        frames: Vec<(usize, FrameId)>,
        device_state: Vec<u8>,
    ) -> Self {
        debug_assert!(
            frames.windows(2).all(|w| w[0].0 < w[1].0),
            "frame list must be sorted by guest page"
        );
        Self::seal(host, size_bytes, frames, device_state, true)
    }

    /// The snapshot's content identity (typed wrapper over
    /// [`SnapshotFile::digest`]).
    pub fn id(&self) -> SnapshotId {
        SnapshotId::from_raw(self.digest)
    }

    /// The stored frame list: (guest page, host frame) pairs in ascending
    /// guest-page order. Chunk stores slice this in the same fixed runs
    /// [`SnapshotFile::manifest`] hashes.
    pub fn frames(&self) -> &[(usize, FrameId)] {
        &self.image.frames
    }

    /// Guest address-space size the snapshot restores into.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Computes the snapshot's content-addressed manifest at `chunk_pages`
    /// granularity: the frame list is cut into fixed runs of `chunk_pages`
    /// positions (the last run may be short) and each run is hashed by
    /// FNV-1a folding its (guest page, page checksum) pairs. Runs with
    /// identical guest layout and identical bytes — the common case for
    /// the OS image and runtime/JIT regions shared across functions —
    /// therefore collide on purpose, which is what lets a chunk store keep
    /// one copy.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_pages` is zero.
    pub fn manifest(&self, chunk_pages: usize) -> SnapshotManifest {
        assert!(chunk_pages > 0, "chunk granularity must be positive");
        let mut chunks = Vec::with_capacity(self.image.frames.len().div_ceil(chunk_pages));
        for start in (0..self.image.frames.len()).step_by(chunk_pages) {
            let end = (start + chunk_pages).min(self.image.frames.len());
            let run = &self.image.frames[start..end];
            let h = Self::fold_digest(run, &self.checksums[start..end]);
            chunks.push(ChunkRef {
                hash: ChunkHash::from_raw(h),
                pages: run.len(),
                bytes: (run.len() * PAGE_SIZE) as u64,
            });
        }
        SnapshotManifest {
            id: self.id(),
            size_bytes: self.size_bytes,
            chunk_pages,
            chunks,
            device_state: self.device_state.clone(),
        }
    }

    /// Restores the snapshot into a new address space on `host`, mapping
    /// every snapshot frame shared — lazily: the clone joins the file's
    /// mapping group, whatever the snapshot's size.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not the host the snapshot was captured on (frame
    /// ids are host-local).
    pub fn restore(&self, host: &HostMemory) -> AddressSpace {
        assert!(
            self.host.is_same_host(host),
            "snapshot restored on a host it was not captured on"
        );
        self.host.attach(self.group);
        AddressSpace::restored(
            host.clone(),
            self.size_bytes,
            self.group,
            self.image.clone(),
        )
    }

    /// Re-checksums one stored page (by index in the frame list) against
    /// its capture-time checksum — the per-page check REAP-style prefetch
    /// performs as it reads pages.
    pub fn verify_page(&self, index: usize) -> Result<(), SnapshotIntegrityError> {
        let (_, frame) = self.image.frames[index];
        let actual = self.host.checksum_frame(frame);
        let expected = self.checksums[index];
        if actual == expected {
            Ok(())
        } else {
            Err(SnapshotIntegrityError {
                page: index,
                expected,
                actual,
            })
        }
    }

    /// Re-checksums the stored copy of guest page `page`, if the snapshot
    /// contains it (no-op otherwise). REAP-style prefetch calls this for
    /// each working-set page it reads from the snapshot file.
    pub fn verify_guest_page(&self, page: usize) -> Result<(), SnapshotIntegrityError> {
        match self.image.locate(page) {
            Ok(index) => self.verify_page(index),
            Err(_) => Ok(()),
        }
    }

    /// Checks every stored page against the capture-time checksums,
    /// reporting the first corrupt page. Restore paths call this before
    /// mapping the snapshot so clones never execute damaged pages.
    ///
    /// One clean pass is remembered: stored pages change only through
    /// [`HostMemory::poke_frame`] (and so [`SnapshotFile::corrupt_page`]),
    /// which makes every image listing the frame forget, so until then a
    /// repeat call answers from the record. A damaged image re-checksums
    /// on every call.
    pub fn verify(&self) -> Result<(), SnapshotIntegrityError> {
        if !self.host.verified(self.group) {
            for index in 0..self.image.frames.len() {
                self.verify_page(index)?;
            }
            self.host.mark_verified(self.group);
        }
        Ok(())
    }

    /// The whole-snapshot digest computed at capture time (page numbers
    /// folded with page checksums).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Deliberately flips bytes in the stored copy of page `index`
    /// (bit-rot on the snapshot "file"). Fault-injection helper: the
    /// damage is visible to every later restore until the snapshot is
    /// rebuilt, and [`SnapshotFile::verify`] detects it.
    pub fn corrupt_page(&self, index: usize) {
        let (_, frame) = self.image.frames[index];
        let mut byte = [0u8];
        self.host.read_frame(frame, 0, &mut byte);
        self.host.poke_frame(frame, 0, &[byte[0] ^ 0xff]);
    }

    /// The device-state blob stored with the snapshot.
    pub fn device_state(&self) -> &[u8] {
        &self.device_state
    }

    /// Number of guest pages stored in the snapshot.
    pub fn pages(&self) -> usize {
        self.image.frames.len()
    }

    /// On-disk size of the snapshot memory file in bytes.
    pub fn file_bytes(&self) -> u64 {
        (self.image.frames.len() * PAGE_SIZE) as u64 + self.device_state.len() as u64
    }
}

impl Drop for SnapshotFile {
    fn drop(&mut self) {
        self.host.drop_file(self.group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_sim::Clock;

    fn host() -> HostMemory {
        HostMemory::new(Clock::new(), 1 << 30, 60)
    }

    fn space_with_pages(host: &HostMemory, pages: usize) -> AddressSpace {
        let mut s = AddressSpace::new(host.clone(), 1 << 20);
        s.touch_dirty(0, (pages * PAGE_SIZE) as u64);
        s
    }

    #[test]
    fn restore_shares_all_frames() {
        let h = host();
        let src = space_with_pages(&h, 8);
        let snap = SnapshotFile::capture(&src, Vec::new());
        drop(src);
        // Source gone, snapshot pins keep the frames alive.
        assert_eq!(h.live_frames(), 8);

        let a = snap.restore(&h);
        let b = snap.restore(&h);
        assert_eq!(h.live_frames(), 8, "clones share, no copies yet");
        assert_eq!(a.resident_pages(), 8);
        // PSS: 8 pages / 2 mappers (pins don't count).
        assert_eq!(a.pss_bytes(), 4 * PAGE_SIZE as u64);
        assert_eq!(b.pss_bytes(), 4 * PAGE_SIZE as u64);
    }

    #[test]
    fn clone_writes_do_not_leak_between_clones() {
        let h = host();
        let mut src = AddressSpace::new(h.clone(), 1 << 20);
        src.write(100, b"base");
        let snap = SnapshotFile::capture(&src, Vec::new());

        let mut a = snap.restore(&h);
        let mut b = snap.restore(&h);
        a.write(100, b"AAAA");
        b.write(100, b"BBBB");
        let mut buf = [0u8; 4];
        src.read(100, &mut buf);
        assert_eq!(&buf, b"base");
        a.read(100, &mut buf);
        assert_eq!(&buf, b"AAAA");
        b.read(100, &mut buf);
        assert_eq!(&buf, b"BBBB");
    }

    #[test]
    fn dropping_snapshot_releases_pins() {
        let h = host();
        let src = space_with_pages(&h, 4);
        let snap = SnapshotFile::capture(&src, Vec::new());
        drop(src);
        assert_eq!(h.live_frames(), 4);
        drop(snap);
        assert_eq!(h.live_frames(), 0);
    }

    #[test]
    fn snapshot_is_point_in_time() {
        let h = host();
        let mut src = AddressSpace::new(h.clone(), 1 << 20);
        src.write(0, b"before");
        let snap = SnapshotFile::capture(&src, Vec::new());
        src.write(0, b"after!");
        let clone = snap.restore(&h);
        let mut buf = [0u8; 6];
        clone.read(0, &mut buf);
        assert_eq!(&buf, b"before");
    }

    #[test]
    fn pristine_snapshot_verifies() {
        let h = host();
        let mut src = AddressSpace::new(h.clone(), 1 << 20);
        src.write(0, b"post-jit state");
        let snap = SnapshotFile::capture(&src, Vec::new());
        assert!(snap.verify().is_ok());
        assert!(snap.verify_page(0).is_ok());
    }

    #[test]
    fn corruption_is_detected_and_reported_per_page() {
        let h = host();
        let src = space_with_pages(&h, 4);
        let snap = SnapshotFile::capture(&src, Vec::new());
        snap.corrupt_page(2);
        let err = snap.verify().expect_err("corruption must be detected");
        assert_eq!(err.page, 2);
        assert_ne!(err.actual, err.expected);
        assert!(snap.verify_page(2).is_err());
        assert!(snap.verify_page(0).is_ok(), "other pages stay good");
        // The error formats with the page number.
        assert!(err.to_string().contains("page 2"));
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let h = host();
        let mut a_src = AddressSpace::new(h.clone(), 1 << 20);
        a_src.write(0, b"same bytes");
        let a = SnapshotFile::capture(&a_src, Vec::new());
        let b = SnapshotFile::capture(&a_src, Vec::new());
        assert_eq!(a.digest(), b.digest(), "same content, same digest");

        let mut c_src = AddressSpace::new(h.clone(), 1 << 20);
        c_src.write(0, b"diff bytes");
        let c = SnapshotFile::capture(&c_src, Vec::new());
        assert_ne!(a.digest(), c.digest(), "different content, new digest");
    }

    #[test]
    fn guest_cow_writes_do_not_trip_verification() {
        // A clone dirtying its own CoW copy must not look like snapshot
        // corruption: checksums cover the stored frames, and guest writes
        // move the clone off them.
        let h = host();
        let mut src = AddressSpace::new(h.clone(), 1 << 20);
        src.write(0, b"base");
        let snap = SnapshotFile::capture(&src, Vec::new());
        drop(src);
        let mut clone = snap.restore(&h);
        clone.write(0, b"dirty");
        assert!(snap.verify().is_ok());
    }

    #[test]
    fn manifest_chunks_cover_every_page_and_dedup_identical_runs() {
        let h = host();
        let src = space_with_pages(&h, 10);
        let snap = SnapshotFile::capture(&src, Vec::new());
        let m = snap.manifest(4);
        assert_eq!(m.id, snap.id());
        assert_eq!(m.chunk_pages, 4);
        // 10 pages at 4/chunk: 4 + 4 + 2.
        assert_eq!(m.chunks.len(), 3);
        assert_eq!(m.total_pages(), 10);
        assert_eq!(m.total_bytes(), 10 * PAGE_SIZE as u64);
        assert_eq!(m.chunks[2].pages, 2);
        // All pages are untouched zeroes but at different guest addresses,
        // so the two full-size chunks differ (layout is part of the hash)…
        assert_ne!(m.chunks[0].hash, m.chunks[1].hash);
        // …while a second identical snapshot produces identical hashes.
        let again = SnapshotFile::capture(&src, Vec::new());
        assert_eq!(again.manifest(4).chunks, m.chunks);
    }

    #[test]
    fn manifest_hash_tracks_content() {
        let h = host();
        let mut a = AddressSpace::new(h.clone(), 1 << 20);
        a.write(0, b"shared runtime image");
        let snap_a = SnapshotFile::capture(&a, Vec::new());
        let mut b = AddressSpace::new(h.clone(), 1 << 20);
        b.write(0, b"shared runtime image");
        let snap_b = SnapshotFile::capture(&b, Vec::new());
        assert_eq!(
            snap_a.manifest(64).chunks[0].hash,
            snap_b.manifest(64).chunks[0].hash,
            "same bytes at same addresses collide across snapshots"
        );
        let mut c = AddressSpace::new(h.clone(), 1 << 20);
        c.write(0, b"private user state...");
        let snap_c = SnapshotFile::capture(&c, Vec::new());
        assert_ne!(
            snap_a.manifest(64).chunks[0].hash,
            snap_c.manifest(64).chunks[0].hash
        );
    }

    #[test]
    fn from_mapped_reproduces_identity_and_contents() {
        let h = host();
        let mut src = AddressSpace::new(h.clone(), 1 << 20);
        src.write(0, b"jitted code");
        let snap = SnapshotFile::capture(&src, vec![9, 9]);

        // A "receiving host" assembles the same frames (here: copied
        // within one table, as a chunk transfer would) and rebuilds.
        let frames: Vec<(usize, FrameId)> = snap
            .frames()
            .iter()
            .map(|(page, f)| (*page, h.clone_frame_from(&h, *f)))
            .collect();
        let rebuilt = SnapshotFile::from_mapped(&h, snap.size_bytes(), frames, vec![9, 9]);
        assert_eq!(rebuilt.id(), snap.id(), "faithful copy keeps the id");
        assert_eq!(rebuilt.pages(), snap.pages());
        assert!(rebuilt.verify().is_ok());
        let clone = rebuilt.restore(&h);
        let mut buf = [0u8; 11];
        clone.read(0, &mut buf);
        assert_eq!(&buf, b"jitted code");
        // from_mapped owns its frames: dropping it releases them.
        drop(clone);
        let live = h.live_frames();
        drop(rebuilt);
        assert!(h.live_frames() < live);
    }

    #[test]
    fn snapshot_and_chunk_ids_format_distinctly() {
        let id = SnapshotId::from_raw(0xabc);
        let ch = ChunkHash::from_raw(0xabc);
        assert_eq!(id.as_raw(), ch.as_raw());
        assert!(id.to_string().starts_with("snap:"));
        assert!(ch.to_string().starts_with("chunk:"));
    }

    #[test]
    fn device_state_round_trips() {
        let h = host();
        let src = space_with_pages(&h, 1);
        let snap = SnapshotFile::capture(&src, vec![0xde, 0xad]);
        assert_eq!(snap.device_state(), &[0xde, 0xad]);
        assert_eq!(snap.pages(), 1);
        assert_eq!(snap.file_bytes(), PAGE_SIZE as u64 + 2);
    }

    #[test]
    #[should_panic(expected = "not captured on")]
    fn restoring_on_a_foreign_host_panics() {
        let h = host();
        let snap = SnapshotFile::capture(&space_with_pages(&h, 2), Vec::new());
        let _ = snap.restore(&host());
    }

    #[test]
    fn verify_passes_once_then_remembers_until_a_poke() {
        let h = host();
        let snap = SnapshotFile::capture(&space_with_pages(&h, 4), Vec::new());
        assert!(!h.verified(snap.group), "nothing verified yet");
        assert!(snap.verify().is_ok());
        assert!(h.verified(snap.group));
        // Guest activity — restores, CoW writes, drops — changes no stored
        // page and keeps the record.
        let mut clone = snap.restore(&h);
        clone.write(0, b"dirty");
        drop(clone);
        assert!(h.verified(snap.group));
        // Damage is found on every call until the image is rebuilt.
        snap.corrupt_page(1);
        assert!(!h.verified(snap.group));
        for _ in 0..3 {
            assert_eq!(snap.verify().expect_err("damaged").page, 1);
        }
        let rebuilt = SnapshotFile::capture(&space_with_pages(&h, 4), Vec::new());
        assert!(rebuilt.verify().is_ok());
    }

    #[test]
    fn poking_a_frame_two_images_hold_fails_both() {
        // The dedup layout: a second image over the first one's frames.
        let h = host();
        let first = SnapshotFile::capture(&space_with_pages(&h, 4), Vec::new());
        first.frames().iter().for_each(|(_, f)| h.retain(*f));
        let twin = SnapshotFile::from_mapped(&h, 1 << 20, first.frames().to_vec(), Vec::new());
        // The receive side of a delta fetch starts unverified and pays
        // its full pass once.
        assert!(!h.verified(twin.group));
        assert!(first.verify().is_ok() && twin.verify().is_ok());
        assert!(h.verified(first.group) && h.verified(twin.group));
        h.poke_frame(twin.frames()[2].1, 7, &[0x5a]);
        assert_eq!(first.verify().expect_err("shared damage").page, 2);
        assert_eq!(twin.verify().expect_err("shared damage").page, 2);
    }

    #[test]
    fn clones_outlive_their_file_with_every_frame_they_map() {
        let h = host();
        let snap = SnapshotFile::capture(&space_with_pages(&h, 8), Vec::new());
        let mut a = snap.restore(&h);
        let b = snap.restore(&h);
        a.touch_dirty(0, 3 * PAGE_SIZE as u64);
        assert_eq!(h.live_frames(), 11);
        drop(snap);
        // Pages 0..3 are still mapped by `b`, the rest by both.
        assert_eq!(h.live_frames(), 11);
        assert_eq!(h.mappers(b.mapped().next().expect("mapped").1), 1);
        assert_eq!(h.mappers(b.mapped().last().expect("mapped").1), 2);
        assert_eq!(b.pss_bytes(), (3 * PAGE_SIZE + 5 * PAGE_SIZE / 2) as u64);
        drop(b);
        assert_eq!(h.live_frames(), 8, "a's three copies and five base pages");
        // The only owner left writes in place: no CoW fault.
        let faults = h.stats().cow_faults;
        a.touch_dirty(4 * PAGE_SIZE as u64, 1);
        assert_eq!(h.stats().cow_faults, faults);
        drop(a);
        assert_eq!(h.live_frames(), 0);
    }

    #[test]
    fn image_spans_cover_runs_and_gaps() {
        let h = host();
        let mut s = AddressSpace::new(h.clone(), 1 << 20);
        s.touch_dirty(2 * PAGE_SIZE as u64, 3 * PAGE_SIZE as u64); // pages 2..5
        s.touch_dirty(9 * PAGE_SIZE as u64, PAGE_SIZE as u64); // page 9
        let snap = SnapshotFile::capture(&s, Vec::new());
        let image = &snap.image;
        assert_eq!(image.span(0), (0..2, Err(0)));
        assert_eq!(image.span(3), (2..5, Ok(0)));
        assert_eq!(image.span(6), (5..9, Err(3)));
        assert_eq!(image.span(9), (9..10, Ok(3)));
        assert_eq!(image.span(200), (10..usize::MAX, Err(4)));
        let pages = [0, 2, 4, 5, 9, 10];
        let located = pages.map(|p| image.locate(p));
        assert_eq!(located, [Err(0), Ok(0), Ok(2), Err(3), Ok(3), Err(4)]);
        for page in 0..12 {
            let searched = snap.frames().binary_search_by_key(&page, |(p, _)| *p);
            assert_eq!(image.locate(page), searched);
        }
    }

    /// Mappers and PSS of every page of `spaces` against a recount of
    /// the spaces mapping each frame (no other owner maps one here).
    fn assert_recount(h: &HostMemory, spaces: &[AddressSpace]) {
        let mut mapping = std::collections::HashMap::new();
        for (_, frame) in spaces.iter().flat_map(|s| s.mapped()) {
            *mapping.entry(frame).or_insert(0u32) += 1;
        }
        for space in spaces {
            let mut pss = 0.0;
            for (page, frame) in space.mapped() {
                assert_eq!(h.mappers(frame), mapping[&frame], "page {page}");
                pss += PAGE_SIZE as f64 / f64::from(mapping[&frame]);
            }
            assert_eq!(space.pss_bytes(), pss.round() as u64);
        }
    }

    #[test]
    fn co_listed_and_orphaned_clones_map_without_touching_refs() {
        // Lazy and eager clones compute the same numbers (the oracle test
        // cannot tell them apart); only the frames' `refs` say which ran.
        let h = host();
        let refs = |frames: &[(usize, FrameId)]| frames.iter().map(|(_, f)| h.refs(*f)).collect();
        let first = SnapshotFile::capture(&space_with_pages(&h, 8), Vec::new());
        // A partial, shifted co-lister (the Dedup layout): pages 3..8 of
        // `first` behind two fresh frames, so positions differ by one.
        let mut listed = vec![(0, h.alloc_zero()), (1, h.alloc_zero())];
        listed.extend(first.frames()[3..].iter().inspect(|(_, f)| h.retain(*f)));
        let second = SnapshotFile::from_mapped(&h, 1 << 20, listed, Vec::new());
        let (first_refs, second_refs): (Vec<u32>, Vec<u32>) =
            (refs(first.frames()), refs(second.frames()));
        let mut clones = vec![first.restore(&h), second.restore(&h), second.restore(&h)];
        clones[0].touch_dirty(2 * PAGE_SIZE as u64, 3 * PAGE_SIZE as u64);
        clones[1].write(PAGE_SIZE as u64, b"fresh");
        clones[2].write(6 * PAGE_SIZE as u64, b"shared");
        assert_eq!(refs(first.frames()), first_refs);
        assert_eq!(refs(second.frames()), second_refs);
        assert_recount(&h, &clones);
        // The file goes first: its clones keep mapping the frames lazily.
        let frames = second.frames().to_vec();
        drop(second);
        assert_eq!(refs(&frames[..2]), [0, 0], "no pin, no eager reference");
        assert_recount(&h, &clones);
        // A CoW out of the orphan: page 0 has a second lazy mapper, page 1
        // is this clone's alone and is taken over without a copy.
        let faults = h.stats().cow_faults;
        clones[2].write(0, b"a");
        clones[2].write(PAGE_SIZE as u64, b"b");
        assert_eq!(h.stats().cow_faults, faults + 1);
        assert_recount(&h, &clones);
        let live = h.live_frames();
        drop(clones.remove(1));
        assert_eq!(h.live_frames(), live - 2, "page 0 and the copy of page 1");
        assert_eq!(refs(first.frames()), [1; 8], "only the first file's pins");
        assert_recount(&h, &clones);
        drop(first);
        assert_recount(&h, &clones);
        drop(clones);
        assert_eq!(h.live_frames(), 0);
    }
}
