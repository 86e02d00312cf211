//! Language-runtime profiles for the Fireworks simulation.
//!
//! The paper studies two runtimes with very different JIT behaviour:
//!
//! - **Node.js / V8**: tiers hot functions up automatically and quickly,
//!   allocates execution state lazily ("a lighter V8"), so post-JIT
//!   snapshots help execution time modestly (§5.2.1) but help memory a lot
//!   (§5.5.2).
//! - **CPython (+ Numba)**: no JIT by default — the interpreter is slow —
//!   and annotation-driven Numba compilation, which is expensive, produces
//!   large speedups (up to 80× in §5.2.2), and duplicates JITted code per
//!   module under LLVM MCJIT, so post-JIT snapshots barely help memory
//!   (§5.5.2).
//!
//! [`RuntimeProfile`] captures those differences as calibrated per-op
//! costs, a [`fireworks_lang::JitPolicy`], and region sizes;
//! [`GuestRuntime`] wraps a Flame VM and charges virtual time for launch,
//! app load, execution, JIT compilation, and deopts; [`layout`] owns the
//! table of guest-memory regions and the one type built from it — a
//! [`Guest`] is an address space with a runtime laid out in it, which
//! alone decides what a sync, an invocation and ageing dirty and what a
//! [`GuestImage`] stores, so snapshot sharing and CoW dirtying are
//! accounted at page granularity the same way for microVMs and containers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod guest;
pub mod layout;
pub mod profile;

pub use guest::{GuestRuntime, InvokeResult, RuntimeSnapshot};
pub use layout::{Guest, GuestImage, Layout};
pub use profile::{RuntimeKind, RuntimeProfile};
