//! The baseline serverless platforms of the paper's evaluation (§5.1):
//!
//! - [`FirecrackerPlatform`]: microVM sandbox manager, optionally with
//!   the "+VM-level OS snapshot" factor of Fig. 11 (a snapshot taken
//!   *before any execution or JIT*).
//! - [`OpenWhiskPlatform`]: container platform with controller overheads
//!   and support for chains of functions (action sequences).
//! - [`GvisorPlatform`]: secure-container sandbox manager (Sentry+Gofer
//!   boot, intercepted I/O path), optionally with process checkpoints.
//!
//! All three are one design — sandboxes that are started, paused into a
//! per-function warm pool, and re-attached — so all three are the same
//! [`PooledPlatform`] skeleton ([`pool`]) around a [`Flavor`]. The
//! skeleton owns the registry, the pool and its keep-alive purge, the
//! start-mode policy, the `invoke` root span and its
//! `baseline.invoke.{attempts,failures}` counters, the guest host, the
//! guest-run tail shared with Fireworks (`fireworks_core::api`), the
//! [`InFlight`] token and both platform traits; the evaluation's "same
//! harness, different mechanism" holds by construction. A flavour is the
//! column of what differs:
//!
//! | hook | Firecracker | OpenWhisk | gVisor |
//! |---|---|---|---|
//! | sandbox / manager | `MicroVm` / `VmManager` | `Container` (`Plain`) / `ContainerManager` | `Container` (`Gvisor`) / `ContainerManager` |
//! | `install` artifact | `SnapshotPolicy::OsSnapshot` → `Rc<VmFullSnapshot>` (asserted pre-JIT) | — | `use_checkpoints` → `ContainerCheckpoint` |
//! | `before_start` | — | `controller` (auth + dispatch cold, dispatch warm) | — |
//! | `start`, pooled | `warm_start` { `mgr.resume` } | `warm_attach` | `warm_attach` |
//! | `start`, fresh | `snapshot_start` { netns + tap + NAT costs, `mgr.restore` }, else `cold_start` { create, boot, launch } | `container_create` | `checkpoint_restore`, else `sandbox_create` |
//! | `start`, before the guest | — | `action_proxy` | — |
//! | `io` | `IoPath::new(VirtioBlk)` | `container.io()` | `container.io()` |
//! | `after_guest` | `page_faults` { sync, `dirty_invocation` } | sync memory | `sentry_intercept` (host + builtin calls), sync memory |
//! | `pause` | `mgr.pause` | `containers.pause` | `containers.pause` |
//! | `CHAINS` | refused | `run_chain` | refused |
//! | `name` / `ISOLATION` | `firecracker` / `firecracker+snapshot`, `Vm` | `openwhisk`, `Container` | `gvisor`, `SecureContainer` |
//!
//! A fresh start reports `SnapshotRestore` when the function has an
//! install artifact and `ColdBoot` when not; the skeleton derives that,
//! like `WarmPool`, from what it handed the flavour.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod firecracker;
pub mod gvisor;
pub mod openwhisk;
pub mod pool;

pub use firecracker::{FirecrackerPlatform, SnapshotPolicy};
pub use gvisor::GvisorPlatform;
pub use openwhisk::OpenWhiskPlatform;
pub use pool::{Flavor, InFlight, PooledPlatform};
