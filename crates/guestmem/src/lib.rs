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
//!   frames, CoW, and a `vm.swappiness`-style swap-onset model. A snapshot
//!   image registers its frame list there as a *mapping group*.
//! - [`AddressSpace`]: one microVM's guest-physical address space — an
//!   on-demand two-level page table (the *overlay*) of the pages it holds
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
//! time proportional to what a clone touched, for every restore:
//!
//! - **Group.** A restore adds one *sharer* to the image's group; a CoW
//!   fault moves one page into the clone's overlay and counts one
//!   *departure* at that position; a drop releases the overlay and takes
//!   the departures back. A frame's mappers are its explicit references
//!   minus pins plus, for each image listing it, `sharers −
//!   departed[idx]` there ([`HostMemory::mappers`]). A group finds the
//!   other images listing its frames (canonical chunks under dedup, a
//!   capture of a clone) in its *sharing map*: runs of its positions that
//!   another image lists at a fixed offset. A file dropped before its
//!   clones leaves its group *orphaned*, still lazy; a frame is freed when
//!   its last owner goes, just when the eager design frees it.
//! - **Accounting.** [`AddressSpace::sharing_stats`] forms the scan's
//!   page-order `f64` sum without visiting pages: the sharing map cuts the
//!   base into runs of equal mappers, and between exceptions (overlay
//!   pages, departed positions, frames with explicit mappers) each run is
//!   added in closed form, bit for bit what the sequential adds round to.
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
pub use host::{FrameId, HostMemory, MemoryStats, PAGE_SIZE};
pub use snapshot::{
    ChunkHash, ChunkRef, SnapshotFile, SnapshotId, SnapshotIntegrityError, SnapshotManifest,
};
