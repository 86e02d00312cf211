//! # Fireworks
//!
//! A full-system reproduction of **"FIREWORKS: A Fast, Efficient, and Safe
//! Serverless Framework using VM-level post-JIT Snapshot"** (EuroSys '22)
//! as a deterministic simulation in Rust.
//!
//! This umbrella crate re-exports the workspace's crates under short
//! names ([`sim`], [`guestmem`], [`core`], …). What each one holds is
//! listed once, in §3 "Workspace inventory" of `DESIGN.md` at the
//! repository root.
//!
//! ## Quickstart
//!
//! ```
//! use fireworks::prelude::*;
//!
//! // Build a host and the Fireworks platform on it.
//! let env = PlatformEnv::default_env();
//! let mut platform = FireworksPlatform::new(env);
//!
//! // Install the FaaSdom factorization benchmark (Node.js profile):
//! // annotate → boot a microVM → JIT → post-JIT snapshot.
//! let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
//! let report = platform.install(&spec).expect("install");
//! assert!(report.snapshot_pages > 0);
//!
//! // Invoke: restore the snapshot and run the already-JITted function.
//! let req = InvokeRequest::new(fid(&spec.name), Bench::Fact.request_params());
//! let inv = platform.invoke(&req).expect("invoke");
//! assert_eq!(inv.stats.compiles, 0); // post-JIT: nothing left to compile
//! println!(
//!     "startup {} exec {} others {}",
//!     inv.breakdown.startup, inv.breakdown.exec, inv.breakdown.other
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fireworks_annotator as annotator;
pub use fireworks_baselines as baselines;
pub use fireworks_core as core;
pub use fireworks_guestmem as guestmem;
pub use fireworks_lang as lang;
pub use fireworks_microvm as microvm;
pub use fireworks_msgbus as msgbus;
pub use fireworks_netsim as netsim;
pub use fireworks_obs as obs;
pub use fireworks_runtime as runtime;
pub use fireworks_sandbox as sandbox;
pub use fireworks_sim as sim;
pub use fireworks_store as store;
pub use fireworks_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use fireworks_baselines::{
        FirecrackerPlatform, GvisorPlatform, OpenWhiskPlatform, SnapshotPolicy,
    };
    pub use fireworks_core::api::{
        FunctionSpec, InstallReport, Invocation, InvokeRequest, Platform, PlatformError, StartKind,
        StartMode,
    };
    pub use fireworks_core::env::{EnvConfig, PlatformEnv};
    pub use fireworks_core::{
        fid, Cluster, ClusterConfig, ClusterReport, FireworksPlatform, FunctionHealth, FunctionId,
        HostId, LeastLoaded, LocalityAffinity, PagingPolicy, PlatformConfig, RecoveryPolicy,
        ResidentClone, RoundRobin, Router,
    };
    pub use fireworks_lang::Value;
    pub use fireworks_obs::{Metrics, MetricsSnapshot, Obs, Recorder, SpanId};
    pub use fireworks_runtime::{RuntimeKind, RuntimeProfile};
    pub use fireworks_sim::fault::{FaultInjector, FaultPlan, FaultSite};
    pub use fireworks_sim::{Clock, CostModel, Nanos};
    pub use fireworks_workloads::faasdom::Bench;
    pub use fireworks_workloads::serverlessbench::{AlexaApp, DataAnalysisApp};
}
