//! Simulation foundation for the Fireworks reproduction.
//!
//! Every latency reported by the benchmark harness is *virtual time*: a sum
//! of explicitly charged costs on a [`Clock`]. This makes every figure in
//! the evaluation bit-reproducible across machines, while the mechanisms
//! that produce the costs (JIT tiers, copy-on-write faults, boot stages,
//! syscall interception) are implemented for real in the other crates.
//!
//! The crate provides:
//!
//! - [`Nanos`]: a nanosecond duration/instant newtype with saturating
//!   arithmetic and human-friendly formatting.
//! - [`Clock`]: a monotonically advancing virtual clock.
//! - [`CostModel`]: the calibrated cost table shared by the whole system.
//! - [`rng::SplitMix64`]: a tiny deterministic RNG used where workloads
//!   need pseudo-random data without pulling randomness into results.
//! - [`engine`]: a deterministic discrete-event queue over virtual time —
//!   the substrate for genuinely concurrent activities (the platform
//!   invocation driver is built on top).
//! - [`trace`]: the paper's latency categories ([`Phase`]) and the
//!   start-up / exec / others [`Breakdown`] value; the spans themselves
//!   live on the `obs` recorder.
//! - [`fault`]: a seeded, deterministic fault-injection plane used to
//!   exercise the platform's recovery paths.
//! - [`hash`]: the FNV-1a behind page checksums, snapshot and chunk ids,
//!   home-host assignment and fault-schedule fingerprints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod cost;
pub mod engine;
pub mod fault;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use clock::Clock;
pub use cost::CostModel;
pub use fault::{FaultInjector, FaultPlan, FaultSite};
pub use time::Nanos;
pub use trace::{Breakdown, Phase};
