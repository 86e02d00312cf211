//! `warm_compute`: one host, the three guests the benchmark owns, each
//! sized to about a third of the repetition.
//!
//! The guest VM (`lang`) is >90 % of the time: a `matrix` invoke runs
//! ~25 ms of bytecode against ~0.7 ms of platform path, so the restore
//! path is amortised away. A `guestmem` speed-up must show no change
//! here; a dispatch-loop, array-indexing or inline-cache change must.

use fireworks::core::{fid, FireworksPlatform, PlatformConfig};
use fireworks::lang::Value;
use fireworks::prelude::{FunctionSpec, InvokeRequest, Platform, PlatformEnv};
use fireworks::runtime::RuntimeKind;
use fireworks::sim::rng::SplitMix64;

use super::{closed_loop, int_args, shuffle, Call, Rep, Workload};
use crate::oracle;
use crate::spans::Tracer;

/// Invokes per repetition of each guest, sized on the reference box to
/// ~0.4 s each.
pub const FACT_CALLS: usize = 150;
pub const MATRIX_CALLS: usize = 14;
pub const PROPS_CALLS: usize = 60;

#[derive(Clone, Copy)]
enum Guest {
    Fact,
    Matrix,
    Props,
}

impl Guest {
    fn name(self) -> &'static str {
        match self {
            Guest::Fact => "bench-fact",
            Guest::Matrix => "bench-matrix",
            Guest::Props => "bench-props",
        }
    }

    fn source(self) -> &'static str {
        match self {
            Guest::Fact => oracle::FACT_SRC,
            Guest::Matrix => oracle::MATRIX_SRC,
            Guest::Props => oracle::PROPS_SRC,
        }
    }

    /// Seeded request arguments and the oracle's answer for them.
    fn request(self, rng: &mut SplitMix64) -> (Value, i64) {
        match self {
            Guest::Fact => {
                let n = rng.next_range(1_200_000, 1_300_000) as i64;
                (int_args([("n", n), ("reps", 40)]), oracle::fact(n, 40))
            }
            Guest::Matrix => {
                let seed = rng.next_range(0, 96) as i64;
                (
                    int_args([("size", 48), ("seed", seed)]),
                    oracle::matrix(48, seed),
                )
            }
            Guest::Props => {
                let k = rng.next_range(1, 1_000) as i64;
                (
                    int_args([("n", 20_000), ("k", k), ("every", 4)]),
                    oracle::props(20_000, k, 4),
                )
            }
        }
    }

    /// Install-time warm-up parameters: same shapes as the requests,
    /// other values.
    fn spec(self) -> FunctionSpec {
        let default_params = match self {
            Guest::Fact => int_args([("n", 1_000_003), ("reps", 40)]),
            Guest::Matrix => int_args([("size", 48), ("seed", 97)]),
            Guest::Props => int_args([("n", 20_000), ("k", 0), ("every", 4)]),
        };
        FunctionSpec::new(
            self.name(),
            self.source(),
            RuntimeKind::NodeLike,
            default_params,
        )
    }
}

pub struct WarmCompute {
    platform: FireworksPlatform,
    calls: Vec<Call>,
}

impl Workload for WarmCompute {
    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let mut platform =
            FireworksPlatform::with_config(PlatformEnv::default_env(), PlatformConfig::default());
        let mut rng = SplitMix64::new(seed);
        let mut calls = Vec::with_capacity(FACT_CALLS + MATRIX_CALLS + PROPS_CALLS);
        for (guest, count) in [
            (Guest::Fact, FACT_CALLS),
            (Guest::Matrix, MATRIX_CALLS),
            (Guest::Props, PROPS_CALLS),
        ] {
            t.span("core.install", |_| platform.install(&guest.spec()))
                .expect("install");
            for _ in 0..count {
                let (args, expect) = guest.request(&mut rng);
                calls.push(Call {
                    request: InvokeRequest::new(fid(guest.name()), args),
                    expect,
                });
            }
        }
        // Seeded order: the three guests interleave.
        shuffle(&mut calls, &mut rng);
        WarmCompute { platform, calls }
    }

    fn run(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = closed_loop(&mut self.platform, &self.calls, t);
        rep.counts.pages_per_snapshot = self
            .platform
            .install_report(fid(Guest::Fact.name()))
            .map_or(0, |r| r.snapshot_pages as u64);
        let c = &rep.counts;
        if 2 * c.jit_ops <= c.guest_ops() {
            rep.violations.push(format!(
                "lang.jit_op_share must exceed 0.5: {} of {} ops ran compiled",
                c.jit_ops,
                c.guest_ops()
            ));
        }
        if c.ic_hits == 0 || c.ic_misses == 0 {
            rep.violations.push(format!(
                "props must record IC hits and misses: {} hits, {} misses",
                c.ic_hits, c.ic_misses
            ));
        }
        rep
    }

    fn probe_function(&self) -> (FunctionSpec, Value) {
        let mut rng = SplitMix64::new(0);
        (Guest::Fact.spec(), Guest::Fact.request(&mut rng).0)
    }
}
