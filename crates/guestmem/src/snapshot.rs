//! Snapshot files: pinned frame sets (one mapping group each) plus device
//! state, with per-page checksums so stored-page corruption is detected
//! at restore time — by one full pass, then remembered until a poke — and
//! content-addressed manifests so snapshots can be deduplicated and
//! shipped between hosts chunk by chunk.

use std::cell::OnceCell;
use std::fmt;
use std::rc::Rc;

use fireworks_sim::hash;

use crate::addr::AddressSpace;
use crate::host::{Extent, FrameId, HostMemory, PAGE_SIZE, ZERO_PAGE_FNV};
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
/// let host = HostMemory::new(Clock::new(), 1 << 30);
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
    /// `(position, checksum)` of each page that held data at capture, in
    /// position order; every other page checksummed as a zero page.
    checksums: Vec<(u32, u64)>,
    /// The digest, folded on first use.
    digest: OnceCell<u64>,
    device_state: Vec<u8>,
}

impl SnapshotFile {
    /// Captures the current state of `space` together with a device-state
    /// blob (VM configuration, vCPU state, runtime state handle). Every
    /// stored page is checksummed at capture time so later corruption is
    /// detectable via [`SnapshotFile::verify`].
    pub fn capture(space: &AddressSpace, device_state: Vec<u8>) -> Self {
        let (host, size) = (space.host(), space.size_bytes());
        Self::seal(host, size, space.extents(), device_state, false)
    }

    /// Pins, registers and checksums `extents` a piece at a time;
    /// `consume` turns the caller's reference on each frame into the pin.
    fn seal(
        host: &HostMemory,
        size_bytes: u64,
        extents: Vec<Extent>,
        device_state: Vec<u8>,
        consume: bool,
    ) -> Self {
        let image = Rc::new(Image::new(extents));
        let (group, checksums) = host.register(&image, consume);
        SnapshotFile {
            host: host.clone(),
            size_bytes,
            checksums,
            digest: OnceCell::new(),
            image,
            group,
            device_state,
        }
    }

    /// Folds page numbers and page checksums, in page-list order, into a
    /// digest per run of `chunk` pages, handed to `done` with its length:
    /// the chunks of a manifest, or the id of the whole snapshot. Each run
    /// of zero pages is one tight loop.
    fn fold_pages(&self, chunk: usize, mut done: impl FnMut(u64, usize)) {
        let (mut sums, mut h, mut n) = (self.checksums.iter().peekable(), hash::OFFSET, 0);
        for &(at, e) in self.image.runs() {
            let mut k = 0;
            while k < e.len {
                // A page that holds data, or the zero pages up to the next.
                let next = sums
                    .peek()
                    .map_or(usize::MAX, |(idx, _)| *idx as usize - at);
                let (sum, end) = match sums.next_if(|_| next == k) {
                    Some(&(_, sum)) => (sum, k + 1),
                    None => (
                        ZERO_PAGE_FNV,
                        next.min(e.len).min(k.saturating_add(chunk - n)),
                    ),
                };
                h = (k..end).fold(h, |h, k| hash::mix(hash::mix(h, (e.page + k) as u64), sum));
                (k, n) = (end, n + end - k);
                if n == chunk {
                    done(h, n);
                    (h, n) = (hash::OFFSET, 0);
                }
            }
        }
        if n > 0 {
            done(h, n);
        }
    }

    /// Compares `actual`, the checksum of position `index` now, with the
    /// one recorded at capture.
    fn check(&self, index: usize, actual: u64) -> Result<(), SnapshotIntegrityError> {
        let expected = checksum_at(&self.checksums, index as u32);
        if actual == expected {
            return Ok(());
        }
        Err(SnapshotIntegrityError {
            page: index,
            expected,
            actual,
        })
    }

    /// Rebuilds a snapshot from an explicit page list — the delta-fetch
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
    /// `extents` must be sorted by guest page (ascending) without overlap,
    /// as [`SnapshotFile::extents`] lists them, and name each frame once.
    pub fn from_mapped(
        host: &HostMemory,
        size_bytes: u64,
        extents: Vec<Extent>,
        device_state: Vec<u8>,
    ) -> Self {
        debug_assert!(
            extents
                .windows(2)
                .all(|w| w[0].page + w[0].len <= w[1].page),
            "extents must be sorted by guest page"
        );
        Self::seal(host, size_bytes, extents, device_state, true)
    }

    /// The snapshot's content identity (typed wrapper over
    /// [`SnapshotFile::digest`]).
    pub fn id(&self) -> SnapshotId {
        SnapshotId::from_raw(self.digest())
    }

    /// The stored page list as runs, in ascending guest-page order. Chunk
    /// stores cut this into the same fixed runs of pages
    /// [`SnapshotFile::manifest`] hashes.
    pub fn extents(&self) -> impl Iterator<Item = Extent> + '_ {
        self.image.runs().iter().map(|&(_, e)| e)
    }

    /// The stored page list page by page: (guest page, host frame) pairs
    /// in ascending guest-page order.
    pub fn frames(&self) -> Vec<(usize, FrameId)> {
        self.extents().flat_map(Extent::frames).collect()
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
        let mut chunks = Vec::with_capacity(self.image.pages().div_ceil(chunk_pages));
        self.fold_pages(chunk_pages, |h, pages| {
            let (hash, bytes) = (ChunkHash::from_raw(h), (pages * PAGE_SIZE) as u64);
            chunks.push(ChunkRef { hash, pages, bytes });
        });
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
    fn verify_page(&self, index: usize) -> Result<(), SnapshotIntegrityError> {
        self.check(index, self.host.checksum_frame(self.image.frame_at(index)))
    }

    /// Re-checksums the stored copy of guest page `page`, if the snapshot
    /// contains it (no-op otherwise). REAP-style prefetch calls this for
    /// each working-set page it reads from the snapshot file.
    pub fn verify_guest_page(&self, page: usize) -> Result<(), SnapshotIntegrityError> {
        match self.image.locate(page) {
            Ok((index, _)) => self.verify_page(index),
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
    /// on every call. A pass checks the pages that hold data now or did
    /// at capture: every other page was and is a zero page.
    pub fn verify(&self) -> Result<(), SnapshotIntegrityError> {
        if !self.host.verified(self.group) {
            let now = self.host.data_sums(&self.image);
            let mut pages: Vec<u32> = now.iter().chain(&self.checksums).map(|s| s.0).collect();
            pages.sort_unstable();
            for index in pages {
                self.check(index as usize, checksum_at(&now, index))?;
            }
            self.host.mark_verified(self.group);
        }
        Ok(())
    }

    /// The whole-snapshot digest (page numbers folded with page
    /// checksums), fixed at capture.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut digest = hash::OFFSET;
            self.fold_pages(usize::MAX, |h, _| digest = h);
            digest
        })
    }

    /// Deliberately flips bytes in the stored copy of page `index`
    /// (bit-rot on the snapshot "file"). Fault-injection helper: the
    /// damage is visible to every later restore until the snapshot is
    /// rebuilt, and [`SnapshotFile::verify`] detects it.
    pub fn corrupt_page(&self, index: usize) {
        let frame = self.image.frame_at(index);
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
        self.image.pages()
    }

    /// On-disk size of the snapshot memory file in bytes.
    pub fn file_bytes(&self) -> u64 {
        (self.image.pages() * PAGE_SIZE) as u64 + self.device_state.len() as u64
    }
}

/// The checksum at position `index` of a sparse `(position, checksum)`
/// list: a zero page's where it lists none.
fn checksum_at(sums: &[(u32, u64)], index: u32) -> u64 {
    let found = sums.binary_search_by_key(&index, |(at, _)| *at);
    found.map_or(ZERO_PAGE_FNV, |i| sums[i].1)
}

impl Drop for SnapshotFile {
    fn drop(&mut self) {
        self.host.drop_file(self.group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::tests::refs as host_refs;
    use fireworks_sim::Clock;

    fn host() -> HostMemory {
        HostMemory::new(Clock::new(), 1 << 30)
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
        let copied = snap.extents().map(|e| h.copy_extent_from(&h, e)).collect();
        let rebuilt = SnapshotFile::from_mapped(&h, snap.size_bytes(), copied, vec![9, 9]);
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
        first.extents().for_each(|e| h.retain_extent(&e));
        let twin = SnapshotFile::from_mapped(&h, 1 << 20, first.extents().collect(), Vec::new());
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
        let (image, frames) = (&snap.image, snap.frames());
        let span = |page| {
            let (span, first) = image.span(page);
            (span, first.map(|(at, frame)| (at, frames[at].1 == frame)))
        };
        assert_eq!(span(0), (0..2, Err(0)));
        assert_eq!(span(3), (2..5, Ok((0, true))));
        assert_eq!(span(6), (5..9, Err(3)));
        assert_eq!(span(9), (9..10, Ok((3, true))));
        assert_eq!(span(200), (10..usize::MAX, Err(4)));
        for page in 0..12 {
            let searched = frames.binary_search_by_key(&page, |(p, _)| *p);
            assert_eq!(image.locate(page), searched.map(|at| (at, frames[at].1)));
        }
    }

    const MIB: u64 = 1 << 20;

    /// `runtime::layout`'s regions as a booted, launched and warmed guest
    /// grows them: (base, bytes of each `touch_dirty`).
    const REGIONS: [(u64, &[u64]); 7] = [
        (0, &[72 * MIB]),
        (96 * MIB, &[40 * MIB]),
        (160 * MIB, &[MIB, 200 << 10]),
        (176 * MIB, &[2 * MIB, MIB]),
        (208 * MIB, &[16 * MIB, 4 * MIB, 2 * MIB]),
        (296 * MIB, &[3 * MIB]),
        (320 * MIB, &[5 * MIB, 2 * MIB + (12 << 10)]),
    ];

    /// FNV-1a over a manifest's chunk hashes.
    fn fold_chunks(m: &SnapshotManifest) -> u64 {
        m.chunks
            .iter()
            .fold(hash::OFFSET, |h, c| hash::mix(h, c.hash.as_raw()))
    }

    #[test]
    fn an_untouched_image_costs_its_regions_and_keeps_its_identity() {
        let h = host();
        let mut s = AddressSpace::new(h.clone(), 512 * MIB);
        for (base, steps) in REGIONS {
            steps.iter().fold(base, |at, bytes| {
                s.touch_dirty(at, *bytes);
                at + bytes
            });
        }
        let snap = SnapshotFile::capture(&s, Vec::new());
        // One written page on each side of a run boundary in the copy.
        s.write(176 * MIB + 5 * PAGE_SIZE as u64 + 7, b"jitted");
        s.write(211 * MIB, b"heap");
        let written = SnapshotFile::capture(&s, Vec::new());
        drop(s);
        let touches = REGIONS.iter().map(|(_, steps)| steps.len()).sum::<usize>();
        assert_eq!(snap.pages(), 37_941);
        assert_eq!(snap.image.runs().len(), touches);
        assert!(written.image.runs().len() <= touches + 4);
        // Every touch is one entry in one piece. The two copies add one
        // entry each, and cut the frame they copy out of its run: only
        // the first image still lists it.
        let (entries, pieces) = crate::host::tests::entries(&h);
        assert_eq!((entries, pieces), (touches + 2, touches + 2 + 2 * 2));
        // The same ids and chunk hashes as when every page had an entry.
        let m = snap.manifest(16);
        assert_eq!(snap.id().as_raw(), 0x4da3_396d_ea49_0780);
        assert_eq!(
            (m.chunks.len(), fold_chunks(&m)),
            (2_372, 0x8c36_2d19_2754_b952)
        );
        assert_eq!(m.chunks[0].hash.as_raw(), 0x989a_e6e7_8fe1_7215);
        let m = written.manifest(16);
        assert_eq!(written.id().as_raw(), 0xc78d_d1de_ba13_b646);
        assert_eq!(fold_chunks(&m), 0x56bb_524a_9e27_3744);
        assert!(snap.verify().is_ok() && written.verify().is_ok());
    }

    /// Mappers and PSS of every page of `spaces` against a recount of
    /// the spaces mapping each frame (no other owner maps one here).
    fn assert_recount(h: &HostMemory, spaces: &[AddressSpace]) {
        let mut mapping = std::collections::HashMap::new();
        for (_, frame) in spaces.iter().flat_map(|s| s.mapped()) {
            *mapping.entry(frame).or_insert(0u32) += 1;
        }
        for space in spaces {
            // Pages per mappers value, then the fixed-point PSS rule.
            let mut pages = std::collections::BTreeMap::<u32, u128>::new();
            for (page, frame) in space.mapped() {
                assert_eq!(h.mappers(frame), mapping[&frame], "page {page}");
                *pages.entry(mapping[&frame]).or_default() += 1;
            }
            let fixed: u128 = pages
                .iter()
                .map(|(&m, &n)| n * (((PAGE_SIZE as u128) << 32) / u128::from(m)))
                .sum();
            assert_eq!(space.pss_bytes(), ((fixed + (1 << 31)) >> 32) as u64);
        }
    }

    #[test]
    fn co_listed_and_orphaned_clones_map_without_touching_refs() {
        // Lazy and eager clones compute the same numbers (the oracle test
        // cannot tell them apart); only the frames' `refs` say which ran.
        let h = host();
        let refs =
            |frames: &[(usize, FrameId)]| frames.iter().map(|(_, f)| host_refs(&h, *f)).collect();
        let first = SnapshotFile::capture(&space_with_pages(&h, 8), Vec::new());
        // A partial, shifted co-lister (the Dedup layout): pages 3..8 of
        // `first` behind two fresh frames, so positions differ by one.
        let mut listed = vec![(0, h.alloc_zero()), (1, h.alloc_zero())];
        listed.extend(first.frames()[3..].iter().inspect(|(_, f)| h.retain(*f)));
        let listed = listed.into_iter().map(|(page, frame)| Extent {
            page,
            frame,
            len: 1,
        });
        let listed = listed.collect();
        let second = SnapshotFile::from_mapped(&h, 1 << 20, listed, Vec::new());
        let (first_refs, second_refs): (Vec<u32>, Vec<u32>) =
            (refs(&first.frames()), refs(&second.frames()));
        let mut clones = vec![first.restore(&h), second.restore(&h), second.restore(&h)];
        clones[0].touch_dirty(2 * PAGE_SIZE as u64, 3 * PAGE_SIZE as u64);
        clones[1].write(PAGE_SIZE as u64, b"fresh");
        clones[2].write(6 * PAGE_SIZE as u64, b"shared");
        assert_eq!(refs(&first.frames()), first_refs);
        assert_eq!(refs(&second.frames()), second_refs);
        assert_recount(&h, &clones);
        // The file goes first: its clones keep mapping the frames lazily.
        let frames = second.frames();
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
        assert_eq!(refs(&first.frames()), [1; 8], "only the first file's pins");
        assert_recount(&h, &clones);
        drop(first);
        assert_recount(&h, &clones);
        drop(clones);
        assert_eq!(h.live_frames(), 0);
    }
}
