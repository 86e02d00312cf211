//! Guest physical memory for the Fireworks simulation.
//!
//! This crate reproduces the memory mechanism the paper's density results
//! (Figs. 10 and 12) depend on: microVM snapshots are mapped `MAP_PRIVATE`,
//! so all clones share guest-physical frames until a guest write triggers a
//! copy-on-write fault, and Linux's *proportional set size* (PSS) charges a
//! frame shared by `N` mappers as `1/N` to each.
//!
//! The pieces:
//!
//! - [`HostMemory`]: the host frame table with reference-counted 4 KiB
//!   frames, CoW, and a swap onset fixed at [`SWAP_ONSET`] of RAM. A snapshot
//!   image registers its page list there as a *mapping group*.
//! - [`AddressSpace`]: one microVM's guest-physical address space — a
//!   sorted list of [`Extent`]s (the *overlay*) of the pages it holds
//!   itself, over the image it was restored from, if any.
//! - [`SnapshotFile`]: a pinned set of frames plus an opaque device-state
//!   blob; restoring joins the file's group instead of mapping its pages.
//! - [`SnapshotManifest`]: a content-addressed chunk list ([`ChunkHash`]
//!   over fixed page runs) identifying a snapshot by [`SnapshotId`], the
//!   unit of cluster-wide dedup and delta transfer.
//!
//! # Cost follows dirty pages, results follow the eager definition
//!
//! What the crate computes is defined by the eager design — a restore
//! maps every snapshot frame with one reference each, a drop releases
//! each, accounting looks every frame's mappers up — and a reference
//! model of exactly that runs beside the implementation in
//! `tests/oracle.rs`. The implementation reaches the same numbers in
//! time proportional to what was written and what a clone touched:
//!
//! - **Extents.** The frames one `touch_dirty` allocates over unmapped
//!   pages are one frame-table entry, owned, pinned and listed as a run;
//!   it is cut into pieces only where a frame diverges (a data write or
//!   poke, an owner count, a listing). Images, chunk stores and the
//!   overlay name frames as [`Extent`]s; a file keeps checksums for the
//!   pages that hold data, every other page being a zero page. So a
//!   post-JIT image costs its regions, not its pages.
//! - **Overlay.** A space's own pages are extents sorted by page,
//!   disjoint and merged: a touch over unmapped pages adds one per
//!   stretch, and over base pages one per run of them it copies, which
//!   the copy holds as one frame-table entry. Booting, dirtying,
//!   accounting and teardown cost the runs, not their pages.
//! - **Group.** A restore adds one *sharer* to the image's group; a CoW
//!   copy moves a run of pages into the clone's overlay and counts one
//!   more *departure* over their positions (runs of positions with equal
//!   counts); a drop releases the overlay and takes its stretches back. Each piece lists the
//!   images whose listing of its frames is *live* (the file pins them, or
//!   a clone maps them lazily), so a frame's mappers are its explicit
//!   references minus pins plus, for each of those images,
//!   `sharers − departed[idx]` at its position ([`HostMemory::mappers`]).
//!   A file dropped before its clones leaves its group *orphaned*, still
//!   lazy; a listing leaves its frames when no clone maps them any more,
//!   and a frame is freed when its last owner goes, as in the eager design.
//! - **Accounting.** [`AddressSpace::sharing_stats`] forms the scan's
//!   PSS, an integer sum of fixed-point per-page terms that no summation
//!   order or run partition changes ([`SharingStats::pss_bytes`]),
//!   without visiting pages: it walks the overlay's extents and the
//!   base's runs between them a piece at a time — a piece's frames have
//!   equal mappers, in the base but where a listing image's clone
//!   departed, read off its departure runs — and adds each run of equal
//!   terms with one multiply.
//! - **Verify once.** [`SnapshotFile::verify`] remembers a clean pass;
//!   stored pages change only through [`HostMemory::poke_frame`], which
//!   makes every image listing the frame forget.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod host;
mod image;
pub mod snapshot;
mod table;

pub use addr::{AddressSpace, SharingStats};
pub use host::{Extent, FrameId, HostMemory, MemoryStats, PAGE_SIZE, SWAP_ONSET};
pub use snapshot::{
    ChunkHash, ChunkRef, SnapshotFile, SnapshotId, SnapshotIntegrityError, SnapshotManifest,
};
