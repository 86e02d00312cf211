//! The four workloads. Each builds a fresh fixture per repetition from
//! the seed (timed as set-up), runs a fixed operation count against the
//! real `FireworksPlatform` (timed), then checks every result against
//! the native oracles (untimed).

pub mod cluster_churn;
pub mod trace_scale;
pub mod warm_compute;
pub mod warm_io;

use std::time::Instant;

use fireworks::core::cluster::{Cluster, ClusterReport};
use fireworks::core::{FireworksPlatform, HostId, ResidentClone};
use fireworks::lang::{ExecStats, Value};
use fireworks::obs::MetricsSnapshot;
use fireworks::prelude::{FunctionSpec, InvokeRequest, Platform};
use fireworks::sim::rng::SplitMix64;

use crate::oracle::Fingerprint;
use crate::spans::Tracer;

/// Workload names, in the order `run.sh` runs them. Later issues cite
/// these; they are final.
pub const NAMES: [&str; 4] = ["warm_io", "warm_compute", "cluster_churn", "trace_scale"];

/// Raw totals of one repetition that the per-layer count metrics are
/// derived from. All of them repeat exactly for one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub jit_ops: u64,
    pub interp_ops: u64,
    pub ic_hits: u64,
    pub ic_misses: u64,
    pub deopts: u64,
    pub cow_faults: u64,
    pub recorder_events: u64,
    pub pages_per_snapshot: u64,
    pub rebuilds: u64,
    pub delta_fetches: u64,
    pub locality_hits: u64,
    pub cluster_events: u64,
    pub dedup_logical_bytes: u64,
    pub dedup_unique_bytes: u64,
}

impl Counts {
    fn add_exec(&mut self, stats: &ExecStats) {
        self.jit_ops += stats.jit_ops;
        self.interp_ops += stats.interp_ops;
        self.ic_hits += stats.ic_hits;
        self.ic_misses += stats.ic_misses;
        self.deopts += stats.deopts;
    }

    pub fn guest_ops(&self) -> u64 {
        self.jit_ops + self.interp_ops
    }

    pub fn add_cluster(&mut self, batch: &ClusterTotals) {
        self.recorder_events += batch.recorder_events;
        self.cow_faults += batch.cow_faults;
        self.rebuilds += batch.rebuilds;
        self.delta_fetches += batch.delta_fetches;
        self.cluster_events += batch.events;
    }
}

/// What one repetition's timed section did.
#[derive(Debug, Default)]
pub struct Rep {
    /// Invocations submitted.
    pub attempted: u64,
    /// Errors + wrong results + rejected requests.
    pub failed: u64,
    /// Host wall time of the timed section.
    pub wall_ns: u64,
    /// Host wall time of each blocking `invoke` (closed-loop workloads).
    pub call_wall_ns: Vec<u64>,
    /// Host wall time spent inside `Cluster::run` (batch workloads).
    pub cluster_run_ns: u64,
    /// Virtual start-up latency of each completion.
    pub sim_start_ns: Vec<u64>,
    /// Virtual end-to-end latency (sojourn) of each completion.
    pub sim_e2e_ns: Vec<u64>,
    pub fingerprint: u64,
    pub counts: Counts,
    /// Mechanism checks that did not hold; any entry fails the run.
    pub violations: Vec<String>,
}

/// One workload: a fixture for a single repetition.
pub trait Workload: Sized {
    /// Builds the repetition's fixture: schedule or trace generation,
    /// platform or cluster construction, function installs.
    fn setup(seed: u64, t: &mut Tracer) -> Self;

    /// The timed section and its (untimed) verification.
    fn run(&mut self, t: &mut Tracer) -> Rep;

    /// A function of this workload, with request arguments, that the
    /// per-layer probes take their fixtures (snapshot, program) from.
    fn probe_function(&self) -> (FunctionSpec, Value);
}

/// An integer-keyed argument map.
pub fn int_args<const N: usize>(entries: [(&str, i64); N]) -> Value {
    Value::map(entries.map(|(k, v)| (k.to_string(), Value::Int(v))))
}

/// Fisher-Yates shuffle drawn from `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Sum of a counter over all its label sets.
pub fn counter_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters()
        .filter(|(k, _)| {
            k.strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// One request of a closed-loop workload with its expected result.
pub struct Call {
    pub request: InvokeRequest,
    pub expect: i64,
}

/// Drives `calls` through blocking `Platform::invoke`, one client, next
/// request only after the previous one returned.
pub fn closed_loop(platform: &mut FireworksPlatform, calls: &[Call], t: &mut Tracer) -> Rep {
    let env = platform.env().clone();
    let recorder_before = env.obs.recorder().len();
    let cow_before = env.host_mem.stats().cow_faults;
    let captures_before = counter_sum(&env.obs.metrics().snapshot(), "microvm.snapshot.captures");

    let mut rep = Rep {
        attempted: calls.len() as u64,
        call_wall_ns: Vec::with_capacity(calls.len()),
        ..Rep::default()
    };
    // Checked after the clock stops: (result, guest ops, virtual
    // start-up and end-to-end latency) of each call that returned.
    let mut served: Vec<Option<(Value, u64, u64, u64)>> = Vec::with_capacity(calls.len());

    let timed = Instant::now();
    for call in calls {
        let t0 = Instant::now();
        let outcome = t.span("core.invoke", |_| platform.invoke(&call.request));
        rep.call_wall_ns.push(t0.elapsed().as_nanos() as u64);
        served.push(outcome.ok().map(|inv| {
            rep.counts.add_exec(&inv.stats);
            let (start_ns, e2e_ns) = (inv.breakdown.startup.as_nanos(), inv.total().as_nanos());
            (inv.value, inv.stats.total_ops(), start_ns, e2e_ns)
        }));
    }
    rep.wall_ns = timed.elapsed().as_nanos() as u64;

    let mut fp = Fingerprint::default();
    for (i, (call, served)) in calls.iter().zip(served).enumerate() {
        fp.mix(i as u64);
        let Some((value, ops, start_ns, e2e_ns)) = served else {
            rep.failed += 1;
            continue;
        };
        if !matches!(value, Value::Int(v) if v == call.expect) {
            rep.failed += 1;
        }
        rep.sim_start_ns.push(start_ns);
        rep.sim_e2e_ns.push(e2e_ns);
        for word in [ops, start_ns, e2e_ns] {
            fp.mix(word);
        }
    }
    fp.mix(env.clock.now().as_nanos());
    rep.fingerprint = fp.value();
    rep.counts.recorder_events = (env.obs.recorder().len() - recorder_before) as u64;
    rep.counts.cow_faults = env.host_mem.stats().cow_faults - cow_before;
    rep.counts.rebuilds =
        counter_sum(&env.obs.metrics().snapshot(), "microvm.snapshot.captures") - captures_before;
    rep
}

/// Folds one `Cluster::run` report into `rep`: conservation, oracle
/// comparison, virtual latencies, fingerprint words and guest counters.
/// `expect[i]` is request `i`'s expected result.
pub fn fold_report(
    rep: &mut Rep,
    fp: &mut Fingerprint,
    report: &ClusterReport<ResidentClone>,
    expect: &[i64],
) {
    rep.attempted += expect.len() as u64;
    if report.completions.len() != expect.len() {
        rep.violations.push(format!(
            "request conservation: {} completions for {} requests",
            report.completions.len(),
            expect.len()
        ));
    }
    for (c, want) in report.completions.iter().zip(expect) {
        fp.mix(c.index as u64);
        fp.mix(c.host.map_or(u64::MAX, |h| h.index() as u64));
        fp.mix(c.started.as_nanos());
        fp.mix(c.finished.as_nanos());
        match &c.result {
            Ok(inv) => {
                if !matches!(inv.value, Value::Int(v) if v == *want) {
                    rep.failed += 1;
                }
                let start = c.start_latency().expect("completed requests started");
                rep.sim_start_ns.push(start.as_nanos());
                rep.sim_e2e_ns.push(c.sojourn().as_nanos());
                rep.counts.add_exec(&inv.stats);
                fp.mix(inv.stats.total_ops());
            }
            Err(_) => rep.failed += 1,
        }
    }
    rep.counts.locality_hits += report.locality_hits;
}

/// Counter and memory totals of a cluster; [`ClusterTotals::since`]
/// turns two of them into what one batch did.
pub struct ClusterTotals {
    pub recorder_events: u64,
    pub cow_faults: u64,
    /// Snapshot captures: after set-up, each one is a rebuild-from-source.
    pub rebuilds: u64,
    pub delta_fetches: u64,
    pub events: u64,
}

impl ClusterTotals {
    pub fn of(cluster: &Cluster<FireworksPlatform>) -> Self {
        let snap = cluster.obs().metrics().snapshot();
        ClusterTotals {
            recorder_events: cluster.obs().recorder().len() as u64,
            cow_faults: (0..cluster.len())
                .map(|h| {
                    cluster
                        .host_env(HostId::from_index(h))
                        .host_mem
                        .stats()
                        .cow_faults
                })
                .sum(),
            rebuilds: counter_sum(&snap, "microvm.snapshot.captures"),
            delta_fetches: counter_sum(&snap, "core.delta.fetches"),
            events: cluster.events_processed(),
        }
    }

    /// What the cluster did since `self` was taken.
    pub fn since(&self, cluster: &Cluster<FireworksPlatform>) -> ClusterTotals {
        let now = ClusterTotals::of(cluster);
        ClusterTotals {
            recorder_events: now.recorder_events - self.recorder_events,
            cow_faults: now.cow_faults - self.cow_faults,
            rebuilds: now.rebuilds - self.rebuilds,
            delta_fetches: now.delta_fetches - self.delta_fetches,
            events: now.events - self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks::obs::Metrics;

    #[test]
    fn counter_sum_adds_label_sets_but_not_longer_names() {
        let m = Metrics::new();
        m.add("core.delta.fetches", &[("host", "0")], 2);
        m.add("core.delta.fetches", &[("host", "1")], 3);
        m.add("core.delta.fetches", &[], 1);
        m.add("core.delta.fetches_failed", &[], 100);
        assert_eq!(counter_sum(&m.snapshot(), "core.delta.fetches"), 6);
        assert_eq!(counter_sum(&m.snapshot(), "core.delta"), 0);
    }
}
