//! Snapshot files: pinned frame sets plus device state, with per-page
//! checksums so stored-page corruption is detected at restore time, and
//! content-addressed manifests so snapshots can be deduplicated and
//! shipped between hosts chunk by chunk.

use std::fmt;

use fireworks_sim::hash;

use crate::addr::AddressSpace;
use crate::host::{FrameId, HostMemory, PAGE_SIZE};

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

/// Checksum of one stored page (delegates to the host's frame table,
/// which shortcuts unmaterialised frames).
fn page_checksum(host: &HostMemory, frame: FrameId) -> u64 {
    host.checksum_frame(frame)
}

/// A VM memory snapshot "file".
///
/// Creating a snapshot pins the source address space's current frames (the
/// page-cache residency of the snapshot file) and records an opaque
/// device-state blob. Restoring maps every pinned frame *shared* into a
/// fresh [`AddressSpace`]; guests then CoW pages as they write, so any
/// number of clones share unmodified pages — the mechanism behind the
/// paper's Fig. 4 and its memory results.
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
    frames: Vec<(usize, FrameId)>,
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
        let host = space.host().clone();
        let frames: Vec<(usize, FrameId)> = space.mapped().collect();
        for (_, frame) in &frames {
            host.pin(*frame);
        }
        let checksums: Vec<u64> = frames
            .iter()
            .map(|(_, frame)| page_checksum(&host, *frame))
            .collect();
        let digest = Self::fold_digest(&frames, &checksums);
        SnapshotFile {
            host,
            size_bytes: space.size_bytes(),
            frames,
            checksums,
            digest,
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
    /// `frames` must be sorted by guest page number (ascending), matching
    /// the order `capture` records.
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
        for (_, frame) in &frames {
            // Turn the caller's owner reference into a snapshot pin.
            host.pin(*frame);
            host.release(*frame);
        }
        let checksums: Vec<u64> = frames
            .iter()
            .map(|(_, frame)| page_checksum(host, *frame))
            .collect();
        let digest = Self::fold_digest(&frames, &checksums);
        SnapshotFile {
            host: host.clone(),
            size_bytes,
            frames,
            checksums,
            digest,
            device_state,
        }
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
        &self.frames
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
        let mut chunks = Vec::with_capacity(self.frames.len().div_ceil(chunk_pages));
        for start in (0..self.frames.len()).step_by(chunk_pages) {
            let end = (start + chunk_pages).min(self.frames.len());
            let run = &self.frames[start..end];
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
    /// every snapshot frame shared.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not the host the snapshot was captured on (frame
    /// ids are host-local).
    pub fn restore(&self, host: &HostMemory) -> AddressSpace {
        let mut space = AddressSpace::new(host.clone(), self.size_bytes);
        for (page, frame) in &self.frames {
            space.map_shared(*page, *frame);
        }
        space
    }

    /// Re-checksums one stored page (by index in the frame list) against
    /// its capture-time checksum — the per-page check REAP-style prefetch
    /// performs as it reads pages.
    pub fn verify_page(&self, index: usize) -> Result<(), SnapshotIntegrityError> {
        let (_, frame) = self.frames[index];
        let actual = page_checksum(&self.host, frame);
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
        // `capture` collects frames in ascending page order.
        match self.frames.binary_search_by_key(&page, |(p, _)| *p) {
            Ok(index) => self.verify_page(index),
            Err(_) => Ok(()),
        }
    }

    /// Re-checksums every stored page against the capture-time checksums,
    /// reporting the first corrupt page. Restore paths call this before
    /// mapping the snapshot so clones never execute damaged pages.
    pub fn verify(&self) -> Result<(), SnapshotIntegrityError> {
        for index in 0..self.frames.len() {
            self.verify_page(index)?;
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
        let (_, frame) = self.frames[index];
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
        self.frames.len()
    }

    /// On-disk size of the snapshot memory file in bytes.
    pub fn file_bytes(&self) -> u64 {
        (self.frames.len() * PAGE_SIZE) as u64 + self.device_state.len() as u64
    }
}

impl Drop for SnapshotFile {
    fn drop(&mut self) {
        for (_, frame) in &self.frames {
            self.host.unpin(*frame);
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
}
