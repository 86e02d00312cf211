//! Snapshot supply: where a host's post-JIT snapshots come from.
//!
//! The paper (§6, *Disk space overhead for function snapshots*) notes that
//! per-function snapshots of thousands of functions strain disk space and
//! proposes bounding the space with a replacement policy that keeps hot
//! functions' snapshots. [`SnapshotSupply`] is that cache — snapshots
//! evicted here force a delta fetch or a re-install on the next
//! invocation — together with everything that depends on *how* the bytes
//! behind it are stored: it is the only code that branches on
//! [`SnapshotStorePolicy`] (DESIGN.md tabulates the two policies).
//!
//! Under `Dedup` the budget is charged against the chunk store's *unique*
//! bytes instead of per-snapshot file sizes — identical chunks shared by
//! many functions count once — and evicting an entry releases its
//! manifest, freeing only the chunks no other cached snapshot still
//! references.

use std::cell::RefCell;
use std::rc::Rc;

use fireworks_guestmem::{ChunkRef, SnapshotFile, SnapshotManifest};
use fireworks_microvm::{SnapshotTemplate, VmFullSnapshot};
use fireworks_netsim::Ip;
use fireworks_obs::{cat, Counter, Obs, Phase};
use fireworks_sim::fault::FaultSite;
use fireworks_sim::Nanos;
use fireworks_store::{ChunkStore, ChunkStoreStats};

use crate::api::{SnapshotResidency, StoreAudit};
use crate::config::SnapshotStorePolicy;
use crate::env::PlatformEnv;
use crate::mesh::SharedChunkMesh;
use crate::symbols::{FunctionId, HostId, IdMap};

/// The content-addressed side of a [`SnapshotStorePolicy::Dedup`] supply.
struct Dedup {
    chunks: Rc<RefCell<ChunkStore>>,
    /// Chunking granularity for ingests.
    chunk_pages: usize,
    /// Whether a miss may be served by fetching missing chunks from a
    /// mesh peer instead of rebuilding from source.
    delta_fetch: bool,
    /// The cluster's chunk mesh and this host's id in it, once attached.
    mesh: Option<(SharedChunkMesh, HostId)>,
}

struct Entry {
    snapshot: Rc<VmFullSnapshot>,
    bytes: u64,
    last_used: u64,
    /// The chunk references this entry holds (Dedup only).
    manifest: Option<SnapshotManifest>,
}

/// One host's LRU snapshot cache, bounded by on-disk bytes, over a flat
/// or content-addressed store.
pub(crate) struct SnapshotSupply {
    capacity_bytes: u64,
    tick: u64,
    entries: IdMap<Entry>,
    evictions: u64,
    obs: Obs,
    /// `core.cache.hits` and `core.cache.misses`: every invocation looks
    /// its snapshot up.
    hits: Counter,
    misses: Counter,
    /// `None` under [`SnapshotStorePolicy::Flat`].
    dedup: Option<Dedup>,
}

impl SnapshotSupply {
    /// A supply holding at most `capacity_bytes` of snapshots on `env`'s
    /// host. Lookups, inserts, and evictions are counted (`core.cache.*`)
    /// and evictions become instant events on `env`'s observability plane.
    pub fn new(capacity_bytes: u64, policy: SnapshotStorePolicy, env: &PlatformEnv) -> Self {
        let dedup = match policy {
            SnapshotStorePolicy::Flat => None,
            SnapshotStorePolicy::Dedup {
                chunk_pages,
                delta_fetch,
            } => {
                let mut chunks = ChunkStore::new(env.host_mem.clone());
                chunks.set_obs(env.obs.clone());
                Some(Dedup {
                    chunks: Rc::new(RefCell::new(chunks)),
                    chunk_pages,
                    delta_fetch,
                    mesh: None,
                })
            }
        };
        SnapshotSupply {
            capacity_bytes,
            tick: 0,
            entries: IdMap::new(),
            evictions: 0,
            obs: env.obs.clone(),
            hits: env.obs.metrics().counter("core.cache.hits", &[]),
            misses: env.obs.metrics().counter("core.cache.misses", &[]),
            dedup,
        }
    }

    fn count(&self, name: &'static str) {
        self.obs.metrics().inc(name, &[]);
    }

    fn mesh(&self) -> Option<(&SharedChunkMesh, HostId)> {
        let (mesh, id) = self.dedup.as_ref()?.mesh.as_ref()?;
        Some((mesh, *id))
    }

    /// Caches (or replaces) a function's freshly built snapshot and
    /// returns the copy actually cached.
    ///
    /// Flat: the snapshot goes into the LRU as-is. Dedup: its pages are
    /// ingested into the chunk store first and the cached copy is a
    /// *canonical remap* — a snapshot whose frame list points at the
    /// store's canonical chunk frames — so byte-identical chunks across
    /// functions occupy host memory once and the manifest is published to
    /// the mesh for peers to delta-fetch.
    pub fn insert(
        &mut self,
        function: FunctionId,
        snapshot: Rc<VmFullSnapshot>,
    ) -> Rc<VmFullSnapshot> {
        let Some(dedup) = &self.dedup else {
            self.admit(function, snapshot.clone(), None);
            return snapshot;
        };
        let template = snapshot.template();
        let mut chunks = dedup.chunks.borrow_mut();
        let (manifest, frames) = chunks.ingest_snapshot(snapshot.mem(), dedup.chunk_pages);
        let mem = SnapshotFile::from_mapped(
            chunks.host(),
            snapshot.mem().size_bytes(),
            frames,
            snapshot.mem().device_state().to_vec(),
        );
        drop(chunks);
        let canonical = Rc::new(VmFullSnapshot::from_template(mem, &template));
        self.admit(function, canonical.clone(), Some((manifest, template)));
        canonical
    }

    /// Puts a snapshot into the LRU, evicting least-recently-used entries
    /// until the budget holds. A snapshot larger than the whole budget is
    /// still stored alone (it must exist somewhere to be restorable).
    /// `publication` is a Dedup entry's manifest — its chunks already
    /// referenced in the store, so eviction can release them — and the
    /// template a peer rebuilds the snapshot around: the mesh is told of
    /// the new entry and of every victim.
    fn admit(
        &mut self,
        function: FunctionId,
        snapshot: Rc<VmFullSnapshot>,
        publication: Option<(SnapshotManifest, SnapshotTemplate)>,
    ) {
        let bytes = snapshot.file_bytes();
        if let Some(old) = self.entries.remove(function) {
            self.release_chunks(&old);
        }
        self.tick += 1;
        self.entries.insert(
            function,
            Entry {
                snapshot,
                bytes,
                last_used: self.tick,
                manifest: publication.as_ref().map(|(m, _)| m.clone()),
            },
        );
        self.count("core.cache.inserts");
        let evicted = self.evict_to_budget(function);
        if let Some((mesh, id)) = self.mesh() {
            let mut mesh = mesh.borrow_mut();
            if let Some((manifest, template)) = publication {
                mesh.publish(id, function, manifest, template);
            }
            for victim in evicted {
                mesh.retract(id, victim);
            }
        }
    }

    /// Releases a dedup entry's chunk references back to the store.
    fn release_chunks(&self, entry: &Entry) {
        if let (Some(dedup), Some(manifest)) = (&self.dedup, &entry.manifest) {
            dedup.chunks.borrow_mut().release_manifest(manifest);
        }
    }

    /// Bytes the budget is charged on: unique chunk bytes under Dedup
    /// (shared chunks count once), flat file bytes otherwise.
    fn effective_used(&self) -> u64 {
        match &self.dedup {
            Some(dedup) => dedup.chunks.borrow().unique_bytes(),
            None => self.entries.iter().map(|(_, e)| e.bytes).sum(),
        }
    }

    /// Evicts down to the budget, sparing `keep`; returns the victims,
    /// oldest first.
    fn evict_to_budget(&mut self, keep: FunctionId) -> Vec<FunctionId> {
        let mut evicted = Vec::new();
        while self.effective_used() > self.capacity_bytes && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k);
            let Some(victim) = victim else { break };
            if let Some(e) = self.entries.remove(victim) {
                self.release_chunks(&e);
                self.evictions += 1;
                self.count("core.cache.evictions");
                self.obs.recorder().instant_with(
                    format!("cache_evict:{victim}"),
                    cat::CACHE,
                    vec![("bytes", e.bytes.into())],
                );
                evicted.push(victim);
            }
        }
        evicted
    }

    /// Fetches a snapshot, marking it most-recently-used.
    pub fn get(&mut self, function: FunctionId) -> Option<Rc<VmFullSnapshot>> {
        self.tick += 1;
        let tick = self.tick;
        let hit = self.entries.get_mut(function).map(|e| {
            e.last_used = tick;
            e.snapshot.clone()
        });
        match hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        hit
    }

    /// Whether a snapshot is cached, without touching its recency or
    /// counting a lookup. Used by the cluster's snapshot-locality router,
    /// whose probes must not perturb replacement state.
    pub fn contains(&self, function: FunctionId) -> bool {
        self.entries.contains(function)
    }

    /// Drops a snapshot (quarantine, retirement) and withdraws its mesh
    /// publication.
    pub fn remove(&mut self, function: FunctionId) -> Option<Rc<VmFullSnapshot>> {
        let removed = self.entries.remove(function).map(|e| {
            self.release_chunks(&e);
            e.snapshot
        });
        if let Some((mesh, id)) = self.mesh() {
            mesh.borrow_mut().retract(id, function);
        }
        removed
    }

    /// Serves a miss from the cluster mesh: picks a donor holding the
    /// function's full chunk set, ships only the chunks this host is
    /// missing over the simulated network (64 KiB segments with the
    /// network's loss/retransmit machinery), and reassembles the snapshot
    /// from store chunks. The wire time is charged *after* subtracting
    /// the restore-side work it can overlap with (a prefetch pipeline:
    /// chunks stream in while the restore maps already-present pages).
    ///
    /// Returns `None` — falling back to rebuild-from-source — when
    /// delta fetch is off, no donor qualifies, the donor crashes
    /// mid-transfer, or a chunk transfer exhausts its retries.
    pub fn fetch_delta(
        &mut self,
        function: FunctionId,
        env: &PlatformEnv,
    ) -> Option<Rc<VmFullSnapshot>> {
        let dedup = self.dedup.as_ref().filter(|d| d.delta_fetch)?;
        let (chunks, (mesh, my_id)) = (dedup.chunks.clone(), dedup.mesh.clone()?);
        let donor = mesh.borrow().donor_for(function, my_id)?;
        let rec = env.obs.recorder();
        let sp = rec.start_phase("snapshot_delta_fetch", cat::SNAPSHOT, Phase::Startup);
        rec.attr(sp, "donor", donor.host.raw() as u64);

        let peer = Ip::new(10, 42, 0, donor.host.index() as u8);
        let mut wire = Nanos::ZERO;
        let (mut fetched_chunks, mut fetched_bytes) = (0u64, 0u64);
        let ship = |chunk: &ChunkRef| {
            // The donor can drop out mid-transfer; its crash is drawn on
            // *its* injector, so the schedule matches what the cluster
            // would have seen at the donor's own service boundaries.
            if donor
                .injector
                .borrow_mut()
                .should_fail(FaultSite::HostCrash)
            {
                mesh.borrow_mut().mark_dead(donor.host);
                rec.instant(format!("donor_crash:{}", donor.host), cat::FAULT);
                return false;
            }
            let Ok(report) = env.net.borrow().transfer_cost(peer, chunk.bytes) else {
                return false;
            };
            wire += report.elapsed;
            fetched_chunks += 1;
            fetched_bytes += chunk.bytes;
            true
        };
        let adopted =
            chunks
                .borrow_mut()
                .adopt_manifest(&donor.store.borrow(), &donor.manifest, ship);
        let name = function.name();
        let labels: &[(&'static str, &str)] = &[("function", &name)];
        let m = env.obs.metrics();
        if !adopted {
            m.inc("core.delta.fallbacks", labels);
            rec.instant(format!("delta_fallback:{name}"), cat::SNAPSHOT);
            rec.end(sp);
            return None;
        }
        let frames = chunks
            .borrow()
            .claim_manifest_frames(&donor.manifest)
            .expect("every chunk of the manifest was just retained or adopted");
        let mem = SnapshotFile::from_mapped(
            &env.host_mem,
            donor.manifest.size_bytes,
            frames,
            donor.manifest.device_state.clone(),
        );
        let snapshot = Rc::new(VmFullSnapshot::from_template(mem, &donor.template));

        // Prefetch pipeline: the transfer overlaps the restore's base
        // cost and page mapping, so only the excess wire time is charged.
        let pages = donor.manifest.total_pages() as u64;
        let overlap = env.costs.microvm.snapshot_restore_base
            + env.costs.microvm.snapshot_map_per_page * pages;
        let charged = wire.saturating_sub(overlap);
        env.clock.advance(charged);

        m.inc("core.delta.fetches", labels);
        m.add("core.delta.chunks_fetched", labels, fetched_chunks);
        m.add("core.delta.bytes_fetched", labels, fetched_bytes);
        m.observe("core.delta.fetch_ns", labels, wire.as_nanos());
        m.add(
            "core.delta.overlap_saved_ns",
            &[],
            (wire - charged).as_nanos(),
        );

        let publication = (donor.manifest, donor.template);
        self.admit(function, snapshot.clone(), Some(publication));
        rec.end(sp);
        Some(snapshot)
    }

    /// The locality signal a cluster router steers by. Full: the LRU
    /// holds the function's post-JIT snapshot. Partial: a mesh peer
    /// published the manifest and this host's chunk store already holds
    /// all but `missing_bytes` of it (shared runtime/OS chunks), so a
    /// delta fetch beats a rebuild. `contains` — not `get` — so router
    /// probes never perturb the LRU.
    pub fn residency(&self, function: FunctionId) -> SnapshotResidency {
        if self.contains(function) {
            return SnapshotResidency::Full;
        }
        if let (Some(dedup), Some((mesh, _))) = (&self.dedup, self.mesh()) {
            if let Some(manifest) = mesh.borrow().manifest_for(function) {
                return SnapshotResidency::Partial {
                    missing_bytes: dedup.chunks.borrow().missing_bytes(manifest),
                };
            }
        }
        SnapshotResidency::Absent
    }

    /// The chunk store's reference-count ledger beside the manifests the
    /// LRU holds (ascending function id), for the invariant auditor.
    pub fn audit(&self) -> Option<StoreAudit> {
        let dedup = self.dedup.as_ref()?;
        Some(StoreAudit {
            chunk_refs: dedup.chunks.borrow().chunk_refcounts(),
            manifests: self
                .entries
                .iter()
                .filter_map(|(k, e)| Some((k.name().to_string(), e.manifest.clone()?)))
                .collect(),
        })
    }

    /// Joins the cluster's chunk mesh as `host_id`. Flat-store platforms
    /// have nothing to publish or donate; they stay off the mesh and
    /// report Full/Absent residency only.
    pub fn attach_mesh(&mut self, mesh: SharedChunkMesh, host_id: HostId, env: &PlatformEnv) {
        if let Some(dedup) = &mut self.dedup {
            mesh.borrow_mut()
                .register(host_id, dedup.chunks.clone(), env.injector.clone());
            dedup.mesh = Some((mesh, host_id));
        }
    }

    /// Chunk-store statistics (Dedup only).
    pub fn chunk_stats(&self) -> Option<ChunkStoreStats> {
        Some(self.dedup.as_ref()?.chunks.borrow().stats())
    }

    /// Cached functions, in ascending id order for deterministic walks.
    pub fn names(&self) -> Vec<FunctionId> {
        self.entries.keys().collect()
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::ChunkMesh;
    use crate::symbols::fid;
    use fireworks_sim::fault::FaultPlan;

    /// Builds a real snapshot on `env`'s host through the microvm API,
    /// after `aged_mops` million guest ops of heap growth — so snapshots
    /// of different ages differ in a few chunks and share the rest.
    fn snapshot_of(env: &PlatformEnv, aged_mops: u64) -> Rc<VmFullSnapshot> {
        use fireworks_microvm::{MicroVmConfig, VmManager};
        use fireworks_runtime::RuntimeProfile;

        let mut mgr = VmManager::new(env.clock.clone(), env.costs.clone(), env.host_mem.clone());
        let mut vm = mgr.create(MicroVmConfig::default());
        mgr.boot(&mut vm).expect("boots");
        mgr.launch_runtime(
            &mut vm,
            RuntimeProfile::node(),
            "fn main(n) { return n; }",
            fireworks_lang::JitConfig::default(),
        )
        .expect("launches");
        vm.age_ops(aged_mops * 1_000_000);
        Rc::new(mgr.snapshot(&mut vm))
    }

    fn flat(env: &PlatformEnv, capacity_bytes: u64) -> SnapshotSupply {
        SnapshotSupply::new(capacity_bytes, SnapshotStorePolicy::Flat, env)
    }

    #[test]
    fn lru_evicts_oldest_when_over_budget() {
        let env = PlatformEnv::default_env();
        let one = snapshot_of(&env, 0);
        let bytes = one.file_bytes();
        let mut cache = flat(&env, bytes * 2 + 1024);
        cache.insert(fid("a"), one);
        cache.insert(fid("b"), snapshot_of(&env, 0));
        assert_eq!(cache.entries.len(), 2);
        // Touch `a` so `b` is the LRU victim.
        cache.get(fid("a")).expect("a cached");
        cache.insert(fid("c"), snapshot_of(&env, 0));
        assert_eq!(cache.entries.len(), 2);
        assert!(cache.get(fid("a")).is_some());
        assert!(cache.get(fid("b")).is_none(), "b was evicted");
        assert!(cache.get(fid("c")).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn replacing_an_entry_does_not_leak_bytes() {
        let env = PlatformEnv::default_env();
        let s = snapshot_of(&env, 0);
        let bytes = s.file_bytes();
        let mut cache = flat(&env, bytes * 10);
        cache.insert(fid("a"), s);
        cache.insert(fid("a"), snapshot_of(&env, 0));
        assert_eq!(cache.entries.len(), 1);
        assert_eq!(cache.effective_used(), bytes);
    }

    #[test]
    fn oversized_snapshot_is_still_kept() {
        let env = PlatformEnv::default_env();
        let mut cache = flat(&env, 1024);
        cache.insert(fid("big"), snapshot_of(&env, 0));
        assert_eq!(
            cache.entries.len(),
            1,
            "must keep at least the newest snapshot"
        );
    }

    #[test]
    fn tight_budget_keeps_only_the_hottest_entry() {
        let env = PlatformEnv::default_env();
        let s = snapshot_of(&env, 0);
        let bytes = s.file_bytes();
        // Budget fits exactly one snapshot: every insert evicts the rest.
        let mut cache = flat(&env, bytes);
        cache.insert(fid("a"), s);
        cache.insert(fid("b"), snapshot_of(&env, 0));
        cache.insert(fid("c"), snapshot_of(&env, 0));
        assert_eq!(cache.entries.len(), 1);
        assert!(cache.effective_used() <= bytes);
        assert_eq!(cache.evictions(), 2);
        assert!(cache.get(fid("c")).is_some(), "newest entry survives");
        assert!(cache.get(fid("a")).is_none() && cache.get(fid("b")).is_none());
    }

    #[test]
    fn eviction_respects_get_recency_not_insert_order() {
        let env = PlatformEnv::default_env();
        let one = snapshot_of(&env, 0);
        let bytes = one.file_bytes();
        let mut cache = flat(&env, bytes * 3 + 1024);
        cache.insert(fid("a"), one);
        cache.insert(fid("b"), snapshot_of(&env, 0));
        cache.insert(fid("c"), snapshot_of(&env, 0));
        // Refresh the two oldest; the middle-aged `c` becomes the victim.
        cache.get(fid("a")).expect("a");
        cache.get(fid("b")).expect("b");
        cache.insert(fid("d"), snapshot_of(&env, 0));
        assert!(cache.get(fid("c")).is_none(), "least-recently-used loses");
        for name in ["a", "b", "d"] {
            assert!(cache.get(fid(name)).is_some(), "{name} survives");
        }
    }

    #[test]
    fn remove_returns_the_snapshot() {
        let env = PlatformEnv::default_env();
        let mut cache = flat(&env, u64::MAX);
        cache.insert(fid("a"), snapshot_of(&env, 0));
        assert!(cache.remove(fid("a")).is_some());
        assert!(cache.entries.is_empty());
        assert_eq!(cache.effective_used(), 0);
    }

    /// What every store policy must do, run once per policy on a host
    /// attached to a mesh as host 0 with a would-be donor as host 1.
    fn contract(policy: SnapshotStorePolicy) {
        let dedup = matches!(policy, SnapshotStorePolicy::Dedup { .. });
        let (me, peer) = (HostId::from_index(0), HostId::from_index(1));
        let mesh = ChunkMesh::shared();
        let env = PlatformEnv::default_env();
        let mut supply = SnapshotSupply::new(u64::MAX, policy, &env);
        supply.attach_mesh(mesh.clone(), me, &env);
        let published = || mesh.borrow().published_functions(me);

        // insert → get hits, and returns the copy insert cached.
        let cached = supply.insert(fid("a"), snapshot_of(&env, 10));
        let hit = supply.get(fid("a")).expect("hit");
        assert!(Rc::ptr_eq(&hit, &cached));
        assert_eq!(supply.residency(fid("a")), SnapshotResidency::Full);
        assert_eq!(published(), if dedup { vec![fid("a")] } else { vec![] });

        // An over-budget insert evicts the LRU entry and (on the mesh)
        // retracts its publication.
        supply.capacity_bytes = supply.effective_used();
        supply.insert(fid("b"), snapshot_of(&env, 20));
        assert!(!supply.contains(fid("a")) && supply.contains(fid("b")));
        assert_eq!(supply.evictions(), 1);
        assert_eq!(published(), if dedup { vec![fid("b")] } else { vec![] });
        if let Some(audit) = supply.audit() {
            assert_eq!(audit.manifests.len(), 1);
            assert_eq!(audit.verify(), Vec::<String>::new());
        }

        // remove releases the entry's chunk references and publication.
        assert!(supply.remove(fid("b")).is_some());
        assert_eq!(published(), vec![]);
        assert_eq!(supply.audit().is_some(), dedup);
        if let Some(audit) = supply.audit() {
            assert_eq!(audit.verify(), Vec::<String>::new());
            assert!(audit.chunk_refs.is_empty(), "no manifest, no chunks");
        }

        // A delta fetch whose donor crashes at its second chunk moves no
        // reference count and keeps no staged frame.
        let donor_env =
            PlatformEnv::with_fault_plan(FaultPlan::new(1).nth(FaultSite::HostCrash, 2));
        let mut donor = SnapshotSupply::new(u64::MAX, policy, &donor_env);
        donor.attach_mesh(mesh.clone(), peer, &donor_env);
        donor.insert(fid("c"), snapshot_of(&donor_env, 60));
        supply.insert(fid("d"), snapshot_of(&env, 0));
        let refs_before = supply.audit().map(|a| a.chunk_refs);
        let frames_before = env.host_mem.live_frames();
        assert!(supply.fetch_delta(fid("c"), &env).is_none());
        assert_eq!(supply.audit().map(|a| a.chunk_refs), refs_before);
        assert_eq!(env.host_mem.live_frames(), frames_before);
        let fallbacks = env
            .obs
            .metrics()
            .snapshot()
            .counter("core.delta.fallbacks", &[("function", "c")]);
        assert_eq!(fallbacks, u64::from(dedup), "the fetch got under way");
        let dead = mesh.borrow().dead_hosts();
        assert_eq!(dead, if dedup { vec![peer] } else { vec![] });
    }

    #[test]
    fn contract_holds_under_flat() {
        contract(SnapshotStorePolicy::Flat);
    }

    #[test]
    fn contract_holds_under_dedup() {
        contract(SnapshotStorePolicy::Dedup {
            chunk_pages: SnapshotStorePolicy::DEFAULT_CHUNK_PAGES,
            delta_fetch: true,
        });
    }
}
