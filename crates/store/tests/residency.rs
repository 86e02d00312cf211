//! Model-based property test of chunk-store residency: after every step
//! of a random sequence of ingests, releases, remote chunk ingests,
//! retains and manifest adoptions, `missing_bytes` of every manifest in a
//! pool — ingested or not — equals a scan of `chunk_refs`, and the byte
//! totals equal a recompute from the reference-count ledger.

use fireworks_guestmem::{AddressSpace, HostMemory, SnapshotFile, SnapshotManifest, PAGE_SIZE};
use fireworks_sim::Clock;
use fireworks_store::ChunkStore;
use proptest::prelude::*;

/// Chunk granularities every pool snapshot is cut at. Equal snapshot ids
/// at different granularities have different chunk lists, so a residency
/// memo keyed by id alone fails here.
const GRANULARITIES: [usize; 3] = [2, 3, 4];

/// The pool's page contents, `(guest page, first byte)` per written page:
/// two identical images, one that differs from them in one page, one
/// that extends them, and one with nothing in common.
fn pool_pages() -> Vec<Vec<(usize, u8)>> {
    let base: Vec<(usize, u8)> = (0..8).map(|p| (p, 1)).collect();
    let mut one_page_off = base.clone();
    one_page_off[5].1 = 9;
    let longer: Vec<(usize, u8)> = (0..11).map(|p| (p, 1)).collect();
    let distinct: Vec<(usize, u8)> = (0..6).map(|p| (p, 2)).collect();
    vec![base.clone(), base, one_page_off, longer, distinct]
}

fn snapshot(host: &HostMemory, pages: &[(usize, u8)]) -> SnapshotFile {
    let mut space = AddressSpace::new(host.clone(), 1 << 20);
    for &(page, byte) in pages {
        space.write((page * PAGE_SIZE) as u64, &[byte, page as u8]);
    }
    SnapshotFile::capture(&space, Vec::new())
}

#[derive(Debug, Clone)]
enum Op {
    /// Ingest pool snapshot `snap` at `GRANULARITIES[gran]`.
    Ingest { snap: usize, gran: usize },
    /// Release the `held`-th (modulo) manifest still held.
    Release { held: usize },
    /// Ingest one chunk of a pool manifest as if shipped by a peer.
    RemoteChunk { manifest: usize, chunk: usize },
    /// Retain one chunk of a pool manifest (absent chunks stay absent).
    Retain { manifest: usize, chunk: usize },
    /// Adopt a pool manifest from the donor store; when `fail_at` is set,
    /// the transfer dies after that many missing chunks have arrived.
    Adopt {
        manifest: usize,
        fail_at: Option<usize>,
    },
}

fn op_strategy(snaps: usize) -> impl Strategy<Value = Op> {
    let manifests = snaps * GRANULARITIES.len();
    prop_oneof![
        4 => (0..snaps, 0..GRANULARITIES.len())
            .prop_map(|(snap, gran)| Op::Ingest { snap, gran }),
        4 => (0usize..8).prop_map(|held| Op::Release { held }),
        2 => (0..manifests, 0usize..6)
            .prop_map(|(manifest, chunk)| Op::RemoteChunk { manifest, chunk }),
        2 => (0..manifests, 0usize..6).prop_map(|(manifest, chunk)| Op::Retain { manifest, chunk }),
        3 => (0..manifests, proptest::option::of(0usize..3))
            .prop_map(|(manifest, fail_at)| Op::Adopt { manifest, fail_at }),
    ]
}

/// Bytes of `manifest` whose chunks `store` does not hold, by asking the
/// reference-count ledger chunk by chunk.
fn scanned_missing(store: &ChunkStore, manifest: &SnapshotManifest) -> u64 {
    manifest
        .chunks
        .iter()
        .filter(|c| store.chunk_refs(c.hash).is_none())
        .map(|c| c.bytes)
        .sum()
}

/// `(unique, logical)` bytes recomputed from the ledger.
fn recomputed_totals(store: &ChunkStore) -> (u64, u64) {
    store
        .chunk_refcounts()
        .into_iter()
        .fold((0, 0), |(unique, logical), (hash, refs)| {
            let pages: usize = store
                .chunk_frames(hash)
                .expect("stored")
                .iter()
                .map(|e| e.len)
                .sum();
            let bytes = (pages * PAGE_SIZE) as u64;
            (unique + bytes, logical + bytes * u64::from(refs))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn memoised_residency_matches_the_scan(
        ops in proptest::collection::vec(op_strategy(pool_pages().len()), 1..60),
    ) {
        let host = HostMemory::new(Clock::new(), 1 << 30);
        let snaps: Vec<SnapshotFile> = pool_pages().iter().map(|p| snapshot(&host, p)).collect();

        // The donor holds every chunk of every pool manifest.
        let mut donor = ChunkStore::new(host.clone());
        let mut pool = Vec::new();
        for snap in &snaps {
            for &g in &GRANULARITIES {
                let (manifest, claimed) = donor.ingest_snapshot(snap, g);
                claimed.iter().for_each(|e| host.release_extent(e));
                pool.push(manifest);
            }
        }

        let mut store = ChunkStore::new(host.clone());
        let mut held: Vec<SnapshotManifest> = Vec::new();
        for op in ops {
            match op {
                Op::Ingest { snap, gran } => {
                    let (manifest, claimed) =
                        store.ingest_snapshot(&snaps[snap], GRANULARITIES[gran]);
                    claimed.iter().for_each(|e| host.release_extent(e));
                    held.push(manifest);
                }
                Op::Release { held: at } => {
                    if !held.is_empty() {
                        let manifest = held.remove(at % held.len());
                        store.release_manifest(&manifest);
                    }
                }
                Op::RemoteChunk { manifest, chunk } => {
                    let chunks = &pool[manifest].chunks;
                    let hash = chunks[chunk % chunks.len()].hash;
                    let frames = donor
                        .chunk_frames(hash)
                        .expect("donor holds the pool")
                        .iter()
                        .map(|e| host.copy_extent_from(&host, *e))
                        .collect();
                    store.ingest_remote_chunk(hash, frames);
                }
                Op::Retain { manifest, chunk } => {
                    let chunks = &pool[manifest].chunks;
                    let hash = chunks[chunk % chunks.len()].hash;
                    let present = store.chunk_refs(hash).is_some();
                    prop_assert_eq!(store.retain_chunk(hash), present);
                }
                Op::Adopt { manifest, fail_at } => {
                    let mut asked = 0;
                    let adopted = store.adopt_manifest(&donor, &pool[manifest], |_| {
                        asked += 1;
                        fail_at.is_none_or(|n| asked <= n)
                    });
                    if adopted {
                        held.push(pool[manifest].clone());
                    }
                }
            }

            for manifest in &pool {
                prop_assert_eq!(store.missing_bytes(manifest), scanned_missing(&store, manifest));
            }
            let (unique, logical) = recomputed_totals(&store);
            prop_assert_eq!((store.unique_bytes(), store.logical_bytes()), (unique, logical));
        }
    }
}
