//! Cluster-wide chunk mesh: who holds which snapshot, chunk-complete.
//!
//! Content-addressed snapshot distribution needs one piece of shared
//! control-plane state: which *alive* hosts hold a complete chunk set
//! for which functions, so a host that was routed a request it cannot
//! serve locally can pick a donor and fetch only its missing chunks
//! (the delta) instead of rebuilding the snapshot from source.
//!
//! The [`ChunkMesh`] is that state. Each host that runs a
//! content-addressed store ([`crate::config::SnapshotStorePolicy::Dedup`])
//! registers its [`ChunkStore`] and fault injector under its cluster
//! host id; when it caches a snapshot it *publishes* the manifest (plus
//! the VM-state template a fetched copy is reconstituted with), and when
//! the LRU evicts it the publication is *retracted*. Donor selection
//! re-checks chunk completeness against the donor's live store, so a
//! stale publication (chunks since evicted) is never offered.
//!
//! Everything here is bookkeeping over [`BTreeMap`]s — deterministic
//! iteration, no clock access — so cluster runs stay byte-identical.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use fireworks_guestmem::SnapshotManifest;
use fireworks_microvm::SnapshotTemplate;
use fireworks_sim::fault::SharedInjector;
use fireworks_store::ChunkStore;

use crate::symbols::{FunctionId, HostId};

/// A cluster-shared handle to the mesh.
pub type SharedChunkMesh = Rc<RefCell<ChunkMesh>>;

/// One host's registration in the mesh.
struct MeshHost {
    alive: bool,
    store: Rc<RefCell<ChunkStore>>,
    injector: SharedInjector,
    /// Function → the manifest this host claims to hold, plus the
    /// template needed to rebuild a [`fireworks_microvm::VmFullSnapshot`]
    /// around a fetched copy.
    published: BTreeMap<FunctionId, (SnapshotManifest, SnapshotTemplate)>,
}

/// What a fetching host learns about its chosen donor.
pub struct DonorInfo {
    /// The donor's cluster host id.
    pub host: HostId,
    /// The published manifest (cloned; the fetcher owns its copy).
    pub manifest: SnapshotManifest,
    /// The VM-state template to reconstitute the snapshot with.
    pub template: SnapshotTemplate,
    /// The donor's chunk store (frames are copied out of it).
    pub store: Rc<RefCell<ChunkStore>>,
    /// The donor's fault injector: the fetcher draws
    /// [`fireworks_sim::fault::FaultSite::HostCrash`] on it at chunk
    /// boundaries, so a donor crash mid-transfer is observed by the
    /// party it actually strands.
    pub injector: SharedInjector,
}

/// Cluster-wide snapshot-holding registry (see module docs).
#[derive(Default)]
pub struct ChunkMesh {
    hosts: BTreeMap<HostId, MeshHost>,
}

impl std::fmt::Debug for ChunkMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkMesh")
            .field("hosts", &self.hosts.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ChunkMesh {
    /// An empty mesh.
    pub fn new() -> Self {
        ChunkMesh::default()
    }

    /// A fresh shared handle.
    pub fn shared() -> SharedChunkMesh {
        Rc::new(RefCell::new(ChunkMesh::new()))
    }

    /// Registers `host`'s chunk store and injector. Idempotent per id:
    /// re-registering replaces the slot (fresh publications).
    pub fn register(
        &mut self,
        host: HostId,
        store: Rc<RefCell<ChunkStore>>,
        injector: SharedInjector,
    ) {
        self.hosts.insert(
            host,
            MeshHost {
                alive: true,
                store,
                injector,
                published: BTreeMap::new(),
            },
        );
    }

    /// Whether `host` is registered and alive.
    pub fn is_alive(&self, host: HostId) -> bool {
        self.hosts.get(&host).is_some_and(|h| h.alive)
    }

    /// Marks `host` dead: it stops being offered as a donor and its
    /// publications are ignored. Permanent, like a cluster host crash.
    pub fn mark_dead(&mut self, host: HostId) {
        if let Some(h) = self.hosts.get_mut(&host) {
            h.alive = false;
        }
    }

    /// Registered hosts currently marked dead, ascending. The cluster
    /// polls this to fail hosts whose crash was first observed by a
    /// fetching peer rather than at a service boundary.
    pub fn dead_hosts(&self) -> Vec<HostId> {
        self.hosts
            .iter()
            .filter(|(_, h)| !h.alive)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Removes `host`'s registration entirely — publications, store, and
    /// injector. This is the *graceful* exit (a completed drain or
    /// retirement): unlike [`ChunkMesh::mark_dead`] the host leaves no
    /// dead-host record, so the cluster does not treat it as a crash.
    pub fn deregister(&mut self, host: HostId) {
        self.hosts.remove(&host);
    }

    /// Registered-and-alive host ids, ascending. The invariant auditor
    /// cross-checks this against the control plane's membership view: an
    /// alive mesh entry for a retired or dead host is a route to nowhere.
    pub fn alive_hosts(&self) -> Vec<HostId> {
        self.hosts
            .iter()
            .filter(|(_, h)| h.alive)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Functions `host` currently publishes, in ascending id order
    /// (BTreeMap order). Empty when the host is unregistered.
    pub fn published_functions(&self, host: HostId) -> Vec<FunctionId> {
        self.hosts
            .get(&host)
            .map(|h| h.published.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Publishes `host`'s claim to hold `function`'s full chunk set.
    pub fn publish(
        &mut self,
        host: HostId,
        function: FunctionId,
        manifest: SnapshotManifest,
        template: SnapshotTemplate,
    ) {
        if let Some(h) = self.hosts.get_mut(&host) {
            h.published.insert(function, (manifest, template));
        }
    }

    /// Withdraws `host`'s claim for `function` (LRU eviction, refresh).
    pub fn retract(&mut self, host: HostId, function: FunctionId) {
        if let Some(h) = self.hosts.get_mut(&host) {
            h.published.remove(&function);
        }
    }

    /// Any alive host's published manifest for `function` (lowest host id
    /// wins) — the cluster-wide "the snapshot exists somewhere" signal a
    /// host's partial-residency answer is computed against. Publications
    /// are re-validated against the publisher's store.
    pub fn manifest_for(&self, function: FunctionId) -> Option<&SnapshotManifest> {
        self.hosts.values().find_map(|h| {
            if !h.alive {
                return None;
            }
            let (manifest, _) = h.published.get(&function)?;
            (h.store.borrow().missing_bytes(manifest) == 0).then_some(manifest)
        })
    }

    /// Picks a donor for `function`: the lowest-id alive host other than
    /// `exclude` whose store still holds every chunk of its published
    /// manifest.
    pub fn donor_for(&self, function: FunctionId, exclude: HostId) -> Option<DonorInfo> {
        self.hosts.iter().find_map(|(&id, h)| {
            if id == exclude || !h.alive {
                return None;
            }
            let (manifest, template) = h.published.get(&function)?;
            if h.store.borrow().missing_bytes(manifest) != 0 {
                return None;
            }
            Some(DonorInfo {
                host: id,
                manifest: manifest.clone(),
                template: template.clone(),
                store: h.store.clone(),
                injector: h.injector.clone(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::fid;
    use fireworks_guestmem::HostMemory;
    use fireworks_microvm::{MicroVmConfig, VmManager};
    use fireworks_runtime::RuntimeProfile;
    use fireworks_sim::fault::{self, FaultInjector};
    use fireworks_sim::Clock;

    fn injector() -> SharedInjector {
        fault::shared(FaultInjector::disabled())
    }

    /// A real snapshot ingested into a fresh store on `host_mem`.
    fn published_store(
        clock: &Clock,
    ) -> (Rc<RefCell<ChunkStore>>, SnapshotManifest, SnapshotTemplate) {
        let host = HostMemory::new(clock.clone(), 4 << 30);
        let mut mgr = VmManager::new(
            clock.clone(),
            Rc::new(fireworks_sim::CostModel::default()),
            host.clone(),
        );
        let mut vm = mgr.create(MicroVmConfig::default());
        mgr.boot(&mut vm).expect("boots");
        mgr.launch_runtime(
            &mut vm,
            RuntimeProfile::node(),
            "fn main(n) { return n; }",
            fireworks_lang::JitConfig::default(),
        )
        .expect("launches");
        let snap = mgr.snapshot(&mut vm);
        let template = snap.template();
        let mut store = ChunkStore::new(host);
        let (manifest, frames) = store.ingest_snapshot(snap.mem(), 64);
        // The test only needs the store to hold the chunks; drop the
        // caller refs the ingest handed out.
        for e in &frames {
            store.host().release_extent(e);
        }
        (Rc::new(RefCell::new(store)), manifest, template)
    }

    #[test]
    fn donor_selection_skips_dead_and_incomplete_hosts() {
        let clock = Clock::new();
        let mesh = ChunkMesh::shared();
        let (s0, m0, t0) = published_store(&clock);
        let (s1, m1, t1) = published_store(&clock);
        let (h0, h1, h9) = (
            HostId::from_index(0),
            HostId::from_index(1),
            HostId::from_index(9),
        );
        let f = fid("f");
        {
            let mut mesh = mesh.borrow_mut();
            mesh.register(h0, s0, injector());
            mesh.register(h1, s1, injector());
            mesh.publish(h0, f, m0.clone(), t0);
            mesh.publish(h1, f, m1.clone(), t1);
        }
        // Lowest-id alive donor wins; the asker itself is excluded.
        assert_eq!(mesh.borrow().donor_for(f, h9).expect("donor").host, h0);
        assert_eq!(mesh.borrow().donor_for(f, h0).expect("donor").host, h1);
        assert!(
            mesh.borrow().donor_for(fid("g"), h9).is_none(),
            "never published"
        );
        // Death removes a host from donor rotation permanently.
        mesh.borrow_mut().mark_dead(h0);
        assert_eq!(mesh.borrow().donor_for(f, h9).expect("donor").host, h1);
        assert_eq!(mesh.borrow().dead_hosts(), vec![h0]);
        // A stale publication (chunks evicted from the store) is skipped.
        {
            let mesh_ref = mesh.borrow();
            let donor = mesh_ref.donor_for(f, h0).expect("donor");
            donor.store.borrow_mut().release_manifest(&m1);
        }
        assert!(mesh.borrow().donor_for(f, h9).is_none(), "no valid donor");
        assert!(mesh.borrow().manifest_for(f).is_none());
    }

    #[test]
    fn deregister_removes_host_without_a_dead_record() {
        let clock = Clock::new();
        let mesh = ChunkMesh::shared();
        let (s0, m0, t0) = published_store(&clock);
        let h0 = HostId::from_index(0);
        let f = fid("f");
        mesh.borrow_mut().register(h0, s0, injector());
        mesh.borrow_mut().publish(h0, f, m0, t0);
        assert_eq!(mesh.borrow().alive_hosts(), vec![h0]);
        assert_eq!(mesh.borrow().published_functions(h0), vec![f]);
        mesh.borrow_mut().deregister(h0);
        // A graceful exit: the host is simply gone — no donor offers, no
        // manifest, and crucially no dead-host record for the cluster's
        // crash reaper to act on.
        assert!(mesh.borrow().alive_hosts().is_empty());
        assert!(mesh.borrow().dead_hosts().is_empty());
        assert!(mesh.borrow().manifest_for(f).is_none());
        assert!(mesh.borrow().published_functions(h0).is_empty());
        assert!(!mesh.borrow().is_alive(h0));
    }

    #[test]
    fn retract_withdraws_a_publication() {
        let clock = Clock::new();
        let mesh = ChunkMesh::shared();
        let (s0, m0, t0) = published_store(&clock);
        let h0 = HostId::from_index(0);
        let f = fid("f");
        mesh.borrow_mut().register(h0, s0, injector());
        mesh.borrow_mut().publish(h0, f, m0, t0);
        assert!(mesh.borrow().manifest_for(f).is_some());
        mesh.borrow_mut().retract(h0, f);
        assert!(mesh.borrow().manifest_for(f).is_none());
    }
}
