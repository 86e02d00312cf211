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
//! time proportional to what a clone touched:
//!
//! - **Group.** A restore adds one *sharer* to the image's group; a CoW
//!   fault moves one page into the clone's overlay and counts one
//!   *departure* at that position; a drop releases the overlay and takes
//!   the departures back. [`HostMemory::mappers`] stays exact for every
//!   frame at every moment: explicit references minus pins, plus
//!   `sharers − departed[idx]` for the group that alone lists the frame.
//! - **Accounting.** [`AddressSpace::sharing_stats`] forms the scan's
//!   page-order `f64` sum without visiting pages: between exceptions
//!   (overlay pages, departed positions) it adds a run of equal terms in
//!   closed form, bit for bit what the sequential adds round to.
//! - **Verify once.** [`SnapshotFile::verify`] remembers a clean pass;
//!   stored pages change only through [`HostMemory::poke_frame`], which
//!   makes every image listing the frame forget.
//! - **Falling back is materialising.** Lazy mappings need the image to
//!   be its frames' only lister and its file to be alive. When a second
//!   image lists a frame (canonical chunks under dedup, a capture of a
//!   clone) or the file is dropped before its clones, the outstanding
//!   lazy mappings become ordinary references, position by position, and
//!   those clones run the eager design until the last one is gone. A
//!   group whose frames have explicit mappers of their own keeps lazy
//!   clones and only counts positions one by one.

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
