//! The content-addressed snapshot chunk store.
//!
//! REAP-style observation: most snapshot bytes are shared across
//! functions (OS image, runtime, JIT scaffolding), so storing each
//! distinct chunk once — keyed by [`ChunkHash`] — collapses a fleet of
//! per-function snapshots into a much smaller set of unique bytes, and a
//! host that already holds a snapshot's common chunks only needs the
//! *missing* ones shipped to reconstruct it.
//!
//! One `ChunkStore` serves one host: canonical chunk frames are pinned in
//! that host's frame table, reference-counted by the manifests ingested,
//! and freed when the last manifest referencing them is released
//! (cache eviction). All state is `BTreeMap`-ordered so walks are
//! byte-deterministic.
//!
//! Residency is asked far more often than the store changes: a router
//! probes every host's store on every placement, while chunks arrive and
//! leave only on ingest, delta fetch and eviction. So
//! [`ChunkStore::missing_bytes`] answers from a memo keyed by
//! `(manifest id, chunk granularity)` and scans a manifest only on a
//! miss. The key is sound because a [`fireworks_guestmem::SnapshotId`] is
//! the capture-time content digest: equal ids cut at equal granularity
//! give equal chunk lists (under the same 64-bit-hash trust the store
//! places in [`ChunkHash`]). The memo is cleared exactly where the set of
//! present hashes changes — a chunk inserted or a chunk's last reference
//! released — and survives reference-count-only changes.

use std::cell::RefCell;
use std::collections::BTreeMap;

use fireworks_guestmem::{
    ChunkHash, ChunkRef, Extent, HostMemory, SnapshotFile, SnapshotId, SnapshotManifest, PAGE_SIZE,
};
use fireworks_obs::Obs;

/// One stored chunk: the canonical pages (as runs of frames) plus its
/// manifest reference count.
#[derive(Debug)]
struct ChunkEntry {
    /// Canonical frames, pinned in the store's host frame table.
    frames: Vec<Extent>,
    /// Bytes this chunk covers.
    bytes: u64,
    /// How many ingested manifests reference this chunk.
    refs: u32,
}

/// Aggregate chunk-store counters, for tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkStoreStats {
    /// Distinct chunks currently stored.
    pub unique_chunks: usize,
    /// Bytes of distinct chunks currently stored (what the host pays).
    pub unique_bytes: u64,
    /// Bytes all ingested manifests describe (what flat storage would pay).
    pub logical_bytes: u64,
    /// Chunk ingests that hit an already-stored chunk.
    pub dedup_hits: u64,
    /// Chunk ingests that stored a new chunk.
    pub inserts: u64,
}

/// A per-host content-addressed chunk store.
///
/// Ingesting a snapshot registers its manifest and stores each chunk
/// once; re-ingesting chunks already present only bumps reference
/// counts. [`ChunkStore::missing_bytes`] tells a router (or a delta
/// fetcher) exactly how far this host is from holding a snapshot.
#[derive(Debug)]
pub struct ChunkStore {
    host: HostMemory,
    chunks: BTreeMap<ChunkHash, ChunkEntry>,
    /// `missing_bytes` answers since the set of stored hashes last
    /// changed, keyed by `(manifest.id, manifest.chunk_pages)`. Behind a
    /// `RefCell` because probes borrow the store shared.
    missing: RefCell<BTreeMap<(SnapshotId, usize), u64>>,
    dedup_hits: u64,
    inserts: u64,
    obs: Option<Obs>,
}

impl ChunkStore {
    /// Creates an empty store pinning canonical frames on `host`.
    pub fn new(host: HostMemory) -> Self {
        ChunkStore {
            host,
            chunks: BTreeMap::new(),
            missing: RefCell::default(),
            dedup_hits: 0,
            inserts: 0,
            obs: None,
        }
    }

    /// Attaches an observability plane; ingest/release then record chunk
    /// hit and dedup metrics.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    fn count(&self, name: &'static str, delta: u64) {
        if let Some(obs) = &self.obs {
            obs.metrics().add(name, &[], delta);
        }
    }

    fn record_gauges(&self) {
        if let Some(obs) = &self.obs {
            let stats = self.stats();
            obs.metrics()
                .gauge_set("store.chunks.unique_bytes", &[], stats.unique_bytes as i64);
            obs.metrics().gauge_set(
                "store.chunks.logical_bytes",
                &[],
                stats.logical_bytes as i64,
            );
        }
    }

    /// Ingests a captured snapshot at `chunk_pages` granularity: registers
    /// its manifest, stores every chunk not yet present (pinning the
    /// snapshot's frames as the canonical copy), and bumps reference
    /// counts on chunks already stored.
    ///
    /// Returns the manifest together with a *canonical page list* — the
    /// snapshot's page layout remapped onto the store's canonical frames,
    /// as runs, with one owner reference per frame held for the caller.
    /// Feeding that list to [`SnapshotFile::from_mapped`] yields a
    /// snapshot backed entirely by store chunks, so dropping the
    /// originally captured file physically deduplicates host memory.
    pub fn ingest_snapshot(
        &mut self,
        snap: &SnapshotFile,
        chunk_pages: usize,
    ) -> (SnapshotManifest, Vec<Extent>) {
        let manifest = snap.manifest(chunk_pages);
        let (mut canonical, mut pinned) = (Vec::new(), Vec::new());
        let (mut extents, mut rest) = (snap.extents(), None::<Extent>);
        let mut hits = 0u64;
        let mut inserts = 0u64;
        for chunk in &manifest.chunks {
            // The chunk's pages: the next `chunk.pages` of the list.
            let (mut run, mut need) = (Vec::new(), chunk.pages);
            while need > 0 {
                let mut e = rest
                    .take()
                    .or_else(|| extents.next())
                    .expect("chunks cover the list");
                let head = e.take_front(need.min(e.len));
                need -= head.len;
                run.push(head);
                rest = Some(e).filter(|e| e.len > 0);
            }
            match self.chunks.entry(chunk.hash) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().refs += 1;
                    hits += 1;
                    append_joined(&mut canonical, &e.get().frames);
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    append_joined(&mut pinned, &run);
                    append_joined(&mut canonical, &run);
                    self.missing.get_mut().clear();
                    v.insert(ChunkEntry {
                        frames: run,
                        bytes: chunk.bytes,
                        refs: 1,
                    });
                    inserts += 1;
                }
            }
        }
        self.dedup_hits += hits;
        self.inserts += inserts;
        if hits > 0 {
            self.count("store.chunks.dedup_hits", hits);
        }
        if inserts > 0 {
            self.count("store.chunks.inserts", inserts);
        }
        // A run of chunks is pinned, and handed out, as one extent.
        pinned.iter().for_each(|e| self.host.pin_extent(e));
        canonical.iter().for_each(|e| self.host.retain_extent(e));
        self.record_gauges();
        (manifest, canonical)
    }

    /// Adds one manifest reference to an already-present chunk (the
    /// delta-fetch destination does this for the chunks it did *not*
    /// need shipped). Returns `false` — and changes nothing — when the
    /// chunk is absent.
    pub fn retain_chunk(&mut self, hash: ChunkHash) -> bool {
        match self.chunks.get_mut(&hash) {
            Some(e) => {
                e.refs += 1;
                self.dedup_hits += 1;
                self.count("store.chunks.dedup_hits", 1);
                true
            }
            None => false,
        }
    }

    /// Indices (into `manifest.chunks`) of the chunks this store lacks.
    pub fn missing_chunks(&self, manifest: &SnapshotManifest) -> Vec<usize> {
        manifest
            .chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| !self.chunks.contains_key(&c.hash))
            .map(|(i, _)| i)
            .collect()
    }

    /// Bytes of `manifest` this store does not hold — the router's
    /// transfer-cost signal and the delta fetcher's shopping list.
    ///
    /// A lookup between changes to the set of stored chunks: the answer
    /// is memoised under `(manifest.id, manifest.chunk_pages)`, which
    /// determines the chunk list, and the memo is cleared whenever a
    /// chunk enters or leaves the store (see the module doc). Debug
    /// builds check every memoised answer against a fresh scan.
    pub fn missing_bytes(&self, manifest: &SnapshotManifest) -> u64 {
        let key = (manifest.id, manifest.chunk_pages);
        if let Some(&missing) = self.missing.borrow().get(&key) {
            debug_assert_eq!(missing, self.scan_missing_bytes(manifest));
            return missing;
        }
        let missing = self.scan_missing_bytes(manifest);
        self.missing.borrow_mut().insert(key, missing);
        missing
    }

    /// [`ChunkStore::missing_bytes`] by looking up every chunk.
    fn scan_missing_bytes(&self, manifest: &SnapshotManifest) -> u64 {
        manifest
            .chunks
            .iter()
            .filter(|c| !self.chunks.contains_key(&c.hash))
            .map(|c| c.bytes)
            .sum()
    }

    /// The canonical pages stored for `hash`, as runs of frames (the
    /// transfer source reads these frames to ship the chunk).
    pub fn chunk_frames(&self, hash: ChunkHash) -> Option<&[Extent]> {
        self.chunks.get(&hash).map(|e| e.frames.as_slice())
    }

    /// Stores a chunk received from a peer. `frames` carry one owner
    /// reference each (e.g. fresh from
    /// [`HostMemory::copy_extent_from`]); the store converts those into
    /// canonical pins. If the chunk raced in by another path, the
    /// caller's copies are simply released and the stored copy gains a
    /// reference.
    pub fn ingest_remote_chunk(&mut self, hash: ChunkHash, frames: Vec<Extent>) {
        let hit = match self.chunks.entry(hash) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().refs += 1;
                frames.iter().for_each(|e| self.host.release_extent(e));
                true
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                let pages: usize = frames.iter().map(|e| e.len).sum();
                let bytes = (pages * PAGE_SIZE) as u64;
                self.missing.get_mut().clear();
                for e in &frames {
                    // Convert the caller's owner reference into a pin.
                    self.host.pin_extent(e);
                    self.host.release_extent(e);
                }
                v.insert(ChunkEntry {
                    frames,
                    bytes,
                    refs: 1,
                });
                false
            }
        };
        if hit {
            self.dedup_hits += 1;
            self.count("store.chunks.dedup_hits", 1);
        } else {
            self.inserts += 1;
            self.count("store.chunks.inserts", 1);
        }
        self.record_gauges();
    }

    /// Takes one reference on every chunk of `manifest`, copying the
    /// chunks this store lacks out of `donor` — the receive side of a
    /// cross-host snapshot transfer. All or nothing: missing chunks are
    /// first *staged* (copied into fresh frames on this store's host, in
    /// manifest order), and only when every one has arrived does the
    /// manifest take its references — present chunks retained, staged
    /// ones adopted. `per_chunk` is asked before each missing chunk is
    /// copied (the caller's wire cost and fault draws live there); if it
    /// answers `false`, or the donor turns out not to hold a chunk, the
    /// staged frames are released, no reference count has moved, and the
    /// result is `false`.
    pub fn adopt_manifest(
        &mut self,
        donor: &ChunkStore,
        manifest: &SnapshotManifest,
        mut per_chunk: impl FnMut(&ChunkRef) -> bool,
    ) -> bool {
        let missing = self.missing_chunks(manifest);
        let mut staged: Vec<(ChunkHash, Vec<Extent>)> = Vec::new();
        for &idx in &missing {
            let chunk = &manifest.chunks[idx];
            let run = per_chunk(chunk)
                .then(|| donor.chunk_frames(chunk.hash))
                .flatten();
            let Some(run) = run else {
                for e in staged.iter().flat_map(|(_, frames)| frames) {
                    self.host.release_extent(e);
                }
                return false;
            };
            let frames = run
                .iter()
                .map(|e| self.host.copy_extent_from(&donor.host, *e))
                .collect();
            staged.push((chunk.hash, frames));
        }
        for (i, chunk) in manifest.chunks.iter().enumerate() {
            // `missing` is ascending.
            if missing.binary_search(&i).is_err() {
                self.retain_chunk(chunk.hash);
            }
        }
        for (hash, frames) in staged {
            self.ingest_remote_chunk(hash, frames);
        }
        true
    }

    /// Assembles the full page list for a registered manifest from
    /// stored chunks, as runs of frames, giving the caller one owner
    /// reference per frame (for [`SnapshotFile::from_mapped`]). Returns
    /// `None` if any chunk is still missing.
    pub fn claim_manifest_frames(&self, manifest: &SnapshotManifest) -> Option<Vec<Extent>> {
        let mut frames = Vec::new();
        for chunk in &manifest.chunks {
            append_joined(&mut frames, &self.chunks.get(&chunk.hash)?.frames);
        }
        frames.iter().for_each(|e| self.host.retain_extent(e));
        Some(frames)
    }

    /// Releases one manifest's hold on its chunks (cache eviction).
    /// Chunks whose reference count reaches zero are unpinned and leave
    /// the store; bytes still mapped by live clones stay resident until
    /// those clones exit, exactly like page-cache eviction under mmap.
    pub fn release_manifest(&mut self, manifest: &SnapshotManifest) {
        let mut unpinned = Vec::new();
        for chunk in &manifest.chunks {
            let Some(e) = self.chunks.get_mut(&chunk.hash) else {
                continue;
            };
            e.refs -= 1;
            if e.refs == 0 {
                append_joined(&mut unpinned, &e.frames);
                self.chunks.remove(&chunk.hash);
                self.missing.get_mut().clear();
                self.count("store.chunks.evictions", 1);
            }
        }
        unpinned.iter().for_each(|e| self.host.unpin_extent(e));
        self.record_gauges();
    }

    /// Bytes of distinct chunks currently stored — what this host's
    /// cache budget is charged.
    pub fn unique_bytes(&self) -> u64 {
        self.chunks.values().map(|e| e.bytes).sum()
    }

    /// Bytes all ingested manifests describe (flat-storage cost).
    pub fn logical_bytes(&self) -> u64 {
        self.chunks
            .values()
            .map(|e| e.bytes * u64::from(e.refs))
            .sum()
    }

    /// `logical / unique` — how many times over the store's bytes are
    /// shared. 1.0 means no sharing.
    pub fn dedup_ratio(&self) -> f64 {
        let unique = self.unique_bytes();
        if unique == 0 {
            return 1.0;
        }
        self.logical_bytes() as f64 / unique as f64
    }

    /// The manifest reference count held on `hash`, or `None` when the
    /// chunk is absent. Invariant auditors compare this against the
    /// number of live manifests that reference the chunk.
    pub fn chunk_refs(&self, hash: ChunkHash) -> Option<u32> {
        self.chunks.get(&hash).map(|e| e.refs)
    }

    /// Every stored chunk's `(hash, refs)` pair in hash order — the
    /// store's full reference-count ledger, for consistency audits.
    /// `BTreeMap` order makes the walk byte-deterministic.
    pub fn chunk_refcounts(&self) -> Vec<(ChunkHash, u32)> {
        self.chunks.iter().map(|(h, e)| (*h, e.refs)).collect()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ChunkStoreStats {
        ChunkStoreStats {
            unique_chunks: self.chunks.len(),
            unique_bytes: self.unique_bytes(),
            logical_bytes: self.logical_bytes(),
            dedup_hits: self.dedup_hits,
            inserts: self.inserts,
        }
    }

    /// The host frame table canonical chunks are pinned on.
    pub fn host(&self) -> &HostMemory {
        &self.host
    }
}

/// Appends `extents` to `list`, each joined to the one before it where
/// it continues it.
fn append_joined(list: &mut Vec<Extent>, extents: &[Extent]) {
    for e in extents {
        match list.last_mut() {
            Some(last) if last.continued_by(e) => last.len += e.len,
            _ => list.push(*e),
        }
    }
}

impl Drop for ChunkStore {
    fn drop(&mut self) {
        for e in self.chunks.values() {
            e.frames.iter().for_each(|e| self.host.unpin_extent(e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_guestmem::{AddressSpace, PAGE_SIZE};
    use fireworks_sim::Clock;

    fn host() -> HostMemory {
        HostMemory::new(Clock::new(), 1 << 30)
    }

    fn snapshot_with(host: &HostMemory, seed: u8, pages: usize) -> SnapshotFile {
        let mut s = AddressSpace::new(host.clone(), 1 << 20);
        for p in 0..pages {
            s.write(p as u64 * PAGE_SIZE as u64, &[seed, p as u8]);
        }
        SnapshotFile::capture(&s, Vec::new())
    }

    #[test]
    fn identical_snapshots_store_bytes_once() {
        let h = host();
        let mut store = ChunkStore::new(h.clone());
        let a = snapshot_with(&h, 1, 8);
        let b = snapshot_with(&h, 1, 8);
        let (ma, _fa) = store.ingest_snapshot(&a, 4);
        let (mb, _fb) = store.ingest_snapshot(&b, 4);
        assert_eq!(ma.chunks, mb.chunks, "same content, same chunk hashes");
        let stats = store.stats();
        assert_eq!(stats.unique_chunks, 2);
        assert_eq!(stats.dedup_hits, 2);
        assert_eq!(stats.logical_bytes, 2 * stats.unique_bytes);
        assert!(store.dedup_ratio() > 1.9);
        // Clean up claimed references so Drop's pin audit balances.
        for e in _fa.iter().chain(_fb.iter()) {
            h.release_extent(e);
        }
    }

    #[test]
    fn canonical_remap_physically_dedups_host_memory() {
        let h = host();
        let mut store = ChunkStore::new(h.clone());
        let a = snapshot_with(&h, 7, 8);
        let b = snapshot_with(&h, 7, 8);
        let live_before = h.live_frames();
        let (_, frames_b) = store.ingest_snapshot(&b, 4);
        let rebuilt_b = SnapshotFile::from_mapped(&h, b.size_bytes(), frames_b, Vec::new());
        assert_eq!(rebuilt_b.id(), b.id());
        let (_, frames_a) = store.ingest_snapshot(&a, 4);
        let rebuilt_a = SnapshotFile::from_mapped(&h, a.size_bytes(), frames_a, Vec::new());
        assert_eq!(rebuilt_a.id(), a.id());
        // Drop the originals: only one physical copy remains (b's frames,
        // the canonical store copy), so live frames shrink by a's 8.
        drop(a);
        drop(b);
        assert_eq!(h.live_frames(), live_before - 8);
        drop(rebuilt_a);
        drop(rebuilt_b);
    }

    #[test]
    fn missing_bytes_shrinks_as_remote_chunks_arrive() {
        let h_src = host();
        let h_dst = host();
        let mut src = ChunkStore::new(h_src.clone());
        let mut dst = ChunkStore::new(h_dst.clone());
        let snap = snapshot_with(&h_src, 3, 8);
        let (manifest, claimed) = src.ingest_snapshot(&snap, 4);
        for e in &claimed {
            h_src.release_extent(e);
        }

        assert_eq!(dst.missing_bytes(&manifest), manifest.total_bytes());
        assert_eq!(dst.missing_chunks(&manifest), vec![0, 1]);
        assert!(dst.claim_manifest_frames(&manifest).is_none());

        for idx in dst.missing_chunks(&manifest) {
            let hash = manifest.chunks[idx].hash;
            let run = src.chunk_frames(hash).expect("source holds chunk");
            let copied = run
                .iter()
                .map(|e| h_dst.copy_extent_from(&h_src, *e))
                .collect();
            dst.ingest_remote_chunk(hash, copied);
        }
        assert_eq!(dst.missing_bytes(&manifest), 0);

        let frames = dst.claim_manifest_frames(&manifest).expect("complete");
        let rebuilt = SnapshotFile::from_mapped(
            &h_dst,
            manifest.size_bytes,
            frames,
            manifest.device_state.clone(),
        );
        assert_eq!(rebuilt.id(), manifest.id, "delta fetch is faithful");
        assert!(rebuilt.verify().is_ok());
    }

    #[test]
    fn adopt_manifest_is_all_or_nothing() {
        let (h_src, h_dst) = (host(), host());
        let mut src = ChunkStore::new(h_src.clone());
        let mut dst = ChunkStore::new(h_dst.clone());
        // dst already holds the first of the donor's three chunks.
        let (_, held) = dst.ingest_snapshot(&snapshot_with(&h_dst, 3, 4), 4);
        let (manifest, claimed) = src.ingest_snapshot(&snapshot_with(&h_src, 3, 12), 4);
        held.iter().for_each(|e| h_dst.release_extent(e));
        claimed.iter().for_each(|e| h_src.release_extent(e));
        assert_eq!(dst.missing_chunks(&manifest), vec![1, 2]);

        // The transfer dies on the second missing chunk: the first one's
        // staged frames go back and no reference count has moved.
        let (ledger, live) = (dst.chunk_refcounts(), h_dst.live_frames());
        let mut asked = 0;
        let adopted = dst.adopt_manifest(&src, &manifest, |_| {
            asked += 1;
            asked < 2
        });
        assert!(!adopted);
        assert_eq!(dst.chunk_refcounts(), ledger);
        assert_eq!(h_dst.live_frames(), live);

        // Undisturbed, the manifest takes one reference on every chunk.
        assert!(dst.adopt_manifest(&src, &manifest, |_| true));
        assert_eq!(dst.missing_bytes(&manifest), 0);
        assert_eq!(dst.chunk_refs(manifest.chunks[0].hash), Some(2));
        assert_eq!(dst.chunk_refs(manifest.chunks[2].hash), Some(1));
        dst.release_manifest(&manifest);
        assert_eq!(dst.chunk_refcounts(), ledger);
    }

    #[test]
    fn release_manifest_evicts_unreferenced_chunks() {
        let h = host();
        let mut store = ChunkStore::new(h.clone());
        let a = snapshot_with(&h, 1, 8);
        let b = snapshot_with(&h, 2, 8);
        let (ma, fa) = store.ingest_snapshot(&a, 4);
        let (mb, fb) = store.ingest_snapshot(&b, 4);
        for e in fa.iter().chain(fb.iter()) {
            h.release_extent(e);
        }
        assert_eq!(store.stats().unique_chunks, 4);
        store.release_manifest(&ma);
        assert_eq!(store.stats().unique_chunks, 2, "a's chunks evicted");
        assert_eq!(store.missing_bytes(&mb), 0, "b untouched");
        assert_eq!(store.missing_bytes(&ma), ma.total_bytes());
        store.release_manifest(&mb);
        assert_eq!(store.stats().unique_chunks, 0);
        assert_eq!(store.unique_bytes(), 0);
    }

    #[test]
    fn refcount_ledger_tracks_ingests_and_releases() {
        let h = host();
        let mut store = ChunkStore::new(h.clone());
        let a = snapshot_with(&h, 1, 8);
        let b = snapshot_with(&h, 1, 8);
        let (ma, fa) = store.ingest_snapshot(&a, 4);
        let (_, fb) = store.ingest_snapshot(&b, 4);
        for e in fa.iter().chain(fb.iter()) {
            h.release_extent(e);
        }
        let ledger = store.chunk_refcounts();
        assert_eq!(ledger.len(), 2);
        assert!(ledger.iter().all(|(_, refs)| *refs == 2));
        assert_eq!(store.chunk_refs(ma.chunks[0].hash), Some(2));
        store.release_manifest(&ma);
        assert!(store.chunk_refcounts().iter().all(|(_, r)| *r == 1));
        store.release_manifest(&ma);
        assert!(store.chunk_refcounts().is_empty());
        assert_eq!(store.chunk_refs(ma.chunks[0].hash), None);
    }

    #[test]
    fn double_ingest_of_remote_chunk_releases_duplicate_copy() {
        let h = host();
        let mut store = ChunkStore::new(h.clone());
        let snap = snapshot_with(&h, 5, 4);
        let (manifest, claimed) = store.ingest_snapshot(&snap, 4);
        for e in &claimed {
            h.release_extent(e);
        }
        let hash = manifest.chunks[0].hash;
        let live = h.live_frames();
        let copies = store
            .chunk_frames(hash)
            .unwrap()
            .to_vec()
            .iter()
            .map(|e| h.copy_extent_from(&h, *e))
            .collect();
        store.ingest_remote_chunk(hash, copies);
        assert_eq!(h.live_frames(), live, "duplicate copies freed");
    }
}
