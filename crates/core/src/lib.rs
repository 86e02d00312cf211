//! FIREWORKS — a fast, efficient, and safe serverless platform using
//! VM-level post-JIT snapshots (EuroSys '22 reproduction).
//!
//! The platform has two phases (paper Fig. 2):
//!
//! **Install** ([`FireworksPlatform::install`]): the code annotator
//! rewrites the user's function (`@jit` on every function, a JIT warm-up
//! driver, the snapshot request, and the parameter-fetch prologue); a
//! microVM is created and booted; the annotated program runs until it has
//! JIT-compiled the user code and requests a snapshot; the full VM —
//! guest memory, runtime state, and JIT code cache — is written to a
//! snapshot file.
//!
//! **Invoke** ([`FireworksPlatform::invoke`]): the invoker produces the
//! request arguments into a per-instance message-bus topic, sets up a
//! network namespace with NAT for the clone, restores the snapshot
//! (copy-on-write shared with every other clone), sets the instance id in
//! MMDS, and resumes the VM right after the snapshot point; the guest
//! fetches its identity and arguments and enters the user function —
//! already JIT-compiled, with no boot, load, or compile cost.
//!
//! The [`api`] module defines the [`api::Platform`] trait shared with the
//! `fireworks-baselines` crate, and [`host::GuestHost`] is the common
//! embedding that serves guest I/O against the sandbox's data path.
//!
//! Modules: [`fireworks`] is the platform — install, and the five-stage
//! clone lifecycle of an invocation — over the private `supply` module,
//! which owns where snapshots come from (the disk-budget LRU, the flat
//! or content-addressed store behind it, mesh publication and peer delta
//! fetch). [`config`], [`mod@env`] and [`audit`] are what a platform is built
//! from; [`engine`], [`cluster`] and [`elastic`] are the three front-ends
//! of the one event-loop driver; [`mesh`] is the cluster's chunk-holding
//! registry and [`symbols`] the interned ids.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod audit;
pub mod cluster;
pub mod config;
mod driver;
pub mod elastic;
pub mod engine;
pub mod env;
pub mod fireworks;
pub mod host;
pub mod mesh;
mod supply;
pub mod symbols;

pub use api::{
    ConcurrentPlatform, FunctionSpec, InFlightToken, InstallReport, Invocation, InvokeRequest,
    Platform, PlatformError, SnapshotResidency, StartKind, StartMode,
};
pub use cluster::{
    Cluster, ClusterCompletion, ClusterConfig, ClusterReport, Fleet, HostView, LeastLoaded,
    LocalityAffinity, RoundRobin, Route, Router,
};
pub use config::{
    PagingPolicy, PlatformConfig, PlatformConfigBuilder, RecoveryPolicy, SnapshotStorePolicy,
};
pub use elastic::{
    ElasticCluster, ElasticConfig, ElasticPolicy, ElasticReport, ElasticStats, HostPhase,
    ARCHIVE_HOST,
};
pub use engine::{
    run_concurrent, CompletionPolicy, EngineCompletion, EngineConfig, EngineReport, EngineRequest,
};
pub use env::PlatformEnv;
pub use fireworks::{FireworksPlatform, FunctionHealth, ResidentClone};
pub use mesh::{ChunkMesh, DonorInfo, SharedChunkMesh};
pub use symbols::{fid, FunctionId, HostId, IdMap, SymbolTable};
