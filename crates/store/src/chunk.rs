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

use std::collections::BTreeMap;

use fireworks_guestmem::{
    ChunkHash, ChunkRef, FrameId, HostMemory, SnapshotFile, SnapshotManifest,
};
use fireworks_obs::Obs;

/// One stored chunk: the canonical (guest page, host frame) run plus its
/// manifest reference count.
#[derive(Debug)]
struct ChunkEntry {
    /// Canonical frames, pinned in the store's host frame table.
    frames: Vec<(usize, FrameId)>,
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
    /// Returns the manifest together with a *canonical frame list* — the
    /// snapshot's page layout remapped onto the store's canonical frames,
    /// with one owner reference per frame held for the caller. Feeding
    /// that list to [`SnapshotFile::from_mapped`] yields a snapshot
    /// backed entirely by store chunks, so dropping the originally
    /// captured file physically deduplicates host memory.
    pub fn ingest_snapshot(
        &mut self,
        snap: &SnapshotFile,
        chunk_pages: usize,
    ) -> (SnapshotManifest, Vec<(usize, FrameId)>) {
        let manifest = snap.manifest(chunk_pages);
        let mut canonical = Vec::with_capacity(snap.frames().len());
        let mut start = 0usize;
        let mut hits = 0u64;
        let mut inserts = 0u64;
        for chunk in &manifest.chunks {
            let run = &snap.frames()[start..start + chunk.pages];
            match self.chunks.entry(chunk.hash) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().refs += 1;
                    hits += 1;
                    canonical.extend_from_slice(&e.get().frames);
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    for (_, frame) in run {
                        self.host.pin(*frame);
                    }
                    v.insert(ChunkEntry {
                        frames: run.to_vec(),
                        bytes: chunk.bytes,
                        refs: 1,
                    });
                    inserts += 1;
                    canonical.extend_from_slice(run);
                }
            }
            start += chunk.pages;
        }
        self.dedup_hits += hits;
        self.inserts += inserts;
        if hits > 0 {
            self.count("store.chunks.dedup_hits", hits);
        }
        if inserts > 0 {
            self.count("store.chunks.inserts", inserts);
        }
        for (_, frame) in &canonical {
            self.host.retain(*frame);
        }
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
    pub fn missing_bytes(&self, manifest: &SnapshotManifest) -> u64 {
        manifest
            .chunks
            .iter()
            .filter(|c| !self.chunks.contains_key(&c.hash))
            .map(|c| c.bytes)
            .sum()
    }

    /// The canonical frame run stored for `hash` (the transfer source
    /// reads these frames to ship the chunk).
    pub fn chunk_frames(&self, hash: ChunkHash) -> Option<&[(usize, FrameId)]> {
        self.chunks.get(&hash).map(|e| e.frames.as_slice())
    }

    /// Stores a chunk received from a peer. `frames` carry one owner
    /// reference each (e.g. fresh from
    /// [`HostMemory::clone_frame_from`]); the store converts those into
    /// canonical pins. If the chunk raced in by another path, the
    /// caller's copies are simply released and the stored copy gains a
    /// reference.
    pub fn ingest_remote_chunk(&mut self, hash: ChunkHash, frames: Vec<(usize, FrameId)>) {
        let hit = match self.chunks.entry(hash) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().refs += 1;
                for (_, frame) in &frames {
                    self.host.release(*frame);
                }
                true
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                let bytes = (frames.len() * fireworks_guestmem::PAGE_SIZE) as u64;
                for (_, frame) in &frames {
                    // Convert the caller's owner reference into a pin.
                    self.host.pin(*frame);
                    self.host.release(*frame);
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
        let mut staged: Vec<(ChunkHash, Vec<(usize, FrameId)>)> = Vec::new();
        for &idx in &missing {
            let chunk = &manifest.chunks[idx];
            let run = per_chunk(chunk)
                .then(|| donor.chunk_frames(chunk.hash))
                .flatten();
            let Some(run) = run else {
                for (_, f) in staged.iter().flat_map(|(_, frames)| frames) {
                    self.host.release(*f);
                }
                return false;
            };
            let frames = run
                .iter()
                .map(|&(page, f)| (page, self.host.clone_frame_from(&donor.host, f)))
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

    /// Assembles the full frame list for a registered manifest from
    /// stored chunks, giving the caller one owner reference per frame
    /// (for [`SnapshotFile::from_mapped`]). Returns `None` if any chunk
    /// is still missing.
    pub fn claim_manifest_frames(
        &self,
        manifest: &SnapshotManifest,
    ) -> Option<Vec<(usize, FrameId)>> {
        let mut frames = Vec::with_capacity(manifest.total_pages());
        for chunk in &manifest.chunks {
            frames.extend_from_slice(self.chunks.get(&chunk.hash)?.frames.as_slice());
        }
        for (_, frame) in &frames {
            self.host.retain(*frame);
        }
        Some(frames)
    }

    /// Releases one manifest's hold on its chunks (cache eviction).
    /// Chunks whose reference count reaches zero are unpinned and leave
    /// the store; bytes still mapped by live clones stay resident until
    /// those clones exit, exactly like page-cache eviction under mmap.
    pub fn release_manifest(&mut self, manifest: &SnapshotManifest) {
        for chunk in &manifest.chunks {
            let Some(e) = self.chunks.get_mut(&chunk.hash) else {
                continue;
            };
            e.refs -= 1;
            if e.refs == 0 {
                for (_, frame) in &e.frames {
                    self.host.unpin(*frame);
                }
                self.chunks.remove(&chunk.hash);
                self.count("store.chunks.evictions", 1);
            }
        }
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

impl Drop for ChunkStore {
    fn drop(&mut self) {
        for e in self.chunks.values() {
            for (_, frame) in &e.frames {
                self.host.unpin(*frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_guestmem::{AddressSpace, PAGE_SIZE};
    use fireworks_sim::Clock;

    fn host() -> HostMemory {
        HostMemory::new(Clock::new(), 1 << 30, 60)
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
        for (_, f) in _fa.iter().chain(_fb.iter()) {
            h.release(*f);
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
        for (_, f) in &claimed {
            h_src.release(*f);
        }

        assert_eq!(dst.missing_bytes(&manifest), manifest.total_bytes());
        assert_eq!(dst.missing_chunks(&manifest), vec![0, 1]);
        assert!(dst.claim_manifest_frames(&manifest).is_none());

        for idx in dst.missing_chunks(&manifest) {
            let hash = manifest.chunks[idx].hash;
            let run = src.chunk_frames(hash).expect("source holds chunk");
            let copied: Vec<(usize, FrameId)> = run
                .iter()
                .map(|(page, f)| (*page, h_dst.clone_frame_from(&h_src, *f)))
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
        for (_, f) in &held {
            h_dst.release(*f);
        }
        for (_, f) in &claimed {
            h_src.release(*f);
        }
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
        for (_, f) in fa.iter().chain(fb.iter()) {
            h.release(*f);
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
        for (_, f) in fa.iter().chain(fb.iter()) {
            h.release(*f);
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
        for (_, f) in &claimed {
            h.release(*f);
        }
        let hash = manifest.chunks[0].hash;
        let live = h.live_frames();
        let copies: Vec<(usize, FrameId)> = store
            .chunk_frames(hash)
            .unwrap()
            .to_vec()
            .iter()
            .map(|(p, f)| (*p, h.clone_frame_from(&h, *f)))
            .collect();
        store.ingest_remote_chunk(hash, copies);
        assert_eq!(h.live_frames(), live, "duplicate copies freed");
    }
}
