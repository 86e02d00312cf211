//! `warm_io`: one host, FaaSdom `NetLatency` and `DiskIo` under both
//! runtimes, blocking invokes from one client.
//!
//! The guests retire at most ~2.8k ops, so the time is the platform's
//! per-invoke path: snapshot verify + restore + PSS accounting
//! (`microvm`/`guestmem`), parameter passing (`msgbus`), namespace and
//! NAT set-up (`netsim`) and span/metric labels (`obs`). A guest-VM
//! speed-up must show no change here.

use fireworks::core::{fid, FireworksPlatform, PlatformConfig};
use fireworks::lang::Value;
use fireworks::prelude::{FunctionSpec, InvokeRequest, Platform, PlatformEnv};
use fireworks::runtime::RuntimeKind;
use fireworks::sim::rng::SplitMix64;
use fireworks::workloads::faasdom::Bench;

use super::{closed_loop, int_args, shuffle, Call, Rep, Workload};
use crate::oracle;
use crate::spans::Tracer;

/// Blocking invokes per repetition: enough that p99 has ten samples
/// beyond it.
pub const CALLS: usize = 1_500;

const RUNTIMES: [RuntimeKind; 2] = [RuntimeKind::NodeLike, RuntimeKind::PythonLike];

pub struct WarmIo {
    platform: FireworksPlatform,
    calls: Vec<Call>,
}

fn specs() -> Vec<(Bench, FunctionSpec)> {
    [Bench::NetLatency, Bench::DiskIo]
        .into_iter()
        .flat_map(|b| RUNTIMES.map(|rt| (b, b.spec(rt))))
        .collect()
}

impl Workload for WarmIo {
    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let mut platform =
            FireworksPlatform::with_config(PlatformEnv::default_env(), PlatformConfig::default());
        let specs = specs();
        for (_, spec) in &specs {
            t.span("core.install", |_| platform.install(spec))
                .expect("install");
        }
        // Every function gets the same number of calls; the seed draws
        // their arguments and their order.
        let mut rng = SplitMix64::new(seed);
        let mut calls: Vec<Call> = (0..CALLS)
            .map(|i| {
                let (bench, spec) = &specs[i % specs.len()];
                let (args, expect) = match bench {
                    Bench::DiskIo => {
                        let ops = rng.next_range(80, 120) as i64;
                        let kib = rng.next_range(4, 16) as i64;
                        (
                            int_args([("ops", ops), ("kib", kib)]),
                            oracle::diskio(ops, kib),
                        )
                    }
                    _ => (Value::map([]), oracle::NETLATENCY),
                };
                Call {
                    request: InvokeRequest::new(fid(&spec.name), args),
                    expect,
                }
            })
            .collect();
        shuffle(&mut calls, &mut rng);
        WarmIo { platform, calls }
    }

    fn run(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = closed_loop(&mut self.platform, &self.calls, t);
        rep.counts.pages_per_snapshot = self
            .platform
            .install_report(fid(&Bench::NetLatency.function_name(RUNTIMES[0])))
            .map_or(0, |r| r.snapshot_pages as u64);
        rep
    }

    fn probe_function(&self) -> (FunctionSpec, Value) {
        (
            Bench::DiskIo.spec(RuntimeKind::NodeLike),
            Bench::DiskIo.request_params(),
        )
    }
}
