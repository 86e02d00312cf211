//! A Firecracker-style microVM layer.
//!
//! [`VmManager`] creates, boots, pauses, resumes, snapshots, and restores
//! [`MicroVm`]s. A microVM couples:
//!
//! - a [`fireworks_runtime::Guest`]: a guest-physical address space (a
//!   restored clone lazily maps its snapshot file's pages and holds
//!   privately only the ones it wrote, copy-on-write) with a language
//!   runtime + loaded function laid out in it. What a sync, an invocation
//!   or ageing dirties, and what a snapshot stores, is decided there, once
//!   for microVMs and containers,
//! - an MMDS-style metadata map, set from the host per instance (this is
//!   how restored clones learn their identity, paper §3.5/3.6).
//!
//! Boot charges the VMM-setup → kernel-boot → guest-init pipeline;
//! snapshot creation charges per resident page written; restore charges a
//! small fixed cost plus lazy page mapping — the asymmetry at the heart of
//! the paper's start-up results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod manager;
pub mod reap;
pub mod vm;

pub use error::VmError;
pub use manager::VmManager;
pub use reap::{ReapMetrics, ReapMode, ReapSession, WorkingSet};
pub use vm::{MicroVm, MicroVmConfig, SnapshotTemplate, VmFullSnapshot, VmState};
