//! What this reproduction claims about the paper's evaluation, as one
//! table: every paper/measured pair with the band that defends it.
//!
//! [`CLAIMS`] is the only place a paper number sits next to a band. A
//! claim's `measured` reads the data of the figure row it cites, through
//! the row's own `measure` function, so the number a claim checks is the
//! number the figure prints. `experiments claims` prints the table and
//! fails when a claim leaves its band (golden:
//! `tests/golden/sweeps/claims.txt`, which *is* the paper-vs-measured
//! table — the prose in `EXPERIMENTS.md` cites ids and carries no
//! numbers); `tests/paper_claims.rs` evaluates the same ids at
//! [`Scale::LIGHT`]; the sensitivity check in `tests/experiments.rs`
//! re-evaluates them under perturbed cost constants. The `paper: …`
//! trailer lines the figure rows print are pinned by their goldens and
//! stay as they are.

use crate::experiments::{ablations, fig10, fig11, fig12, fig9, install_time};
use crate::{faasdom_bars, geomean_bars, LatencyBar, Scale};
use fireworks_baselines::{FirecrackerPlatform, GvisorPlatform, OpenWhiskPlatform, SnapshotPolicy};
use fireworks_core::api::Platform;
use fireworks_core::env::{EnvConfig, PlatformEnv};
use fireworks_core::FireworksPlatform;
use fireworks_runtime::RuntimeKind::{self, NodeLike as Node, PythonLike as Python};
use fireworks_sandbox::IsolationLevel::{Container, SecureContainer, Vm};
use fireworks_sim::Nanos;
use fireworks_workloads::faasdom::Bench::{self, DiskIo, Fact, MatrixMult, NetLatency};
use std::any::Any;
use std::cell::RefCell;
use std::fmt::Debug;
use std::ops::RangeInclusive;
use std::rc::Rc;

/// One thing the reproduction asserts about the paper's evaluation.
pub struct Claim {
    /// `<row>.<what>`, cited as `claim:<id>` in the docs.
    pub id: &'static str,
    /// Where the paper states it: `"Fig. 6"`, `"§5.1"`, …
    pub source: &'static str,
    /// The paper's own words or number; names the unit of `measured`.
    pub paper: &'static str,
    /// This reproduction's number, from the cited row's data.
    pub measured: fn(&Measured) -> f64,
    /// The band `measured` must stay in: it contains today's value and
    /// excludes the side that would contradict the paper's shape.
    pub holds: RangeInclusive<f64>,
    /// The `D<n>` entry of `EXPERIMENTS.md` "Known deviations" that
    /// explains the gap to the paper's number.
    pub deviation: Option<&'static str>,
}

impl Claim {
    /// Fails safe: until [`Claim::holds`] says how it is measured, a claim
    /// measures NaN, which is in no band.
    const fn new(id: &'static str, source: &'static str, paper: &'static str) -> Self {
        Claim {
            id,
            source,
            paper,
            measured: |_| f64::NAN,
            holds: 0.0..=0.0,
            deviation: None,
        }
    }

    const fn holds(mut self, band: RangeInclusive<f64>, measured: fn(&Measured) -> f64) -> Self {
        self.holds = band;
        self.measured = measured;
        self
    }

    const fn deviation(mut self, entry: &'static str) -> Self {
        self.deviation = Some(entry);
        self
    }
}

type Variant = (RuntimeKind, Bench);

/// Indices into [`faasdom_bars`]: each baseline cold then warm, then
/// Fireworks.
const OW_COLD: usize = 0;
const GV_COLD: usize = 2;
const FC_COLD: usize = 4;
const FC_WARM: usize = 5;
const FW: usize = 6;
const COLD: [usize; 3] = [OW_COLD, GV_COLD, FC_COLD];
const WARM: [usize; 3] = [1, 3, FC_WARM];

/// The figure rows' data on one host configuration and scale, each piece
/// measured the first time a claim asks for it.
pub struct Measured {
    env: EnvConfig,
    scale: Scale,
    memo: RefCell<Vec<(String, Rc<dyn Any>)>>,
}

impl Measured {
    /// Nothing measured yet; every platform will run on a host built
    /// from `env`.
    pub fn new(env: EnvConfig, scale: Scale) -> Self {
        Measured {
            env,
            scale,
            memo: RefCell::default(),
        }
    }

    /// `measure(env)`, run once per result type and `key` — on a thread of
    /// its own, for the fresh `FunctionId` interner a row's own process has.
    fn get<T: Any + Send>(
        &self,
        key: impl Debug,
        measure: impl FnOnce(&EnvConfig) -> T + Send,
    ) -> Rc<T> {
        let id = format!("{}/{key:?}", std::any::type_name::<T>());
        if let Some((_, hit)) = self.memo.borrow().iter().find(|(i, _)| *i == id) {
            return hit.clone().downcast().expect("keyed by type");
        }
        let env = &self.env;
        let value = std::thread::scope(|s| s.spawn(move || measure(env)).join());
        let value = Rc::new(value.expect("measurement panicked"));
        self.memo.borrow_mut().push((id, value.clone()));
        value
    }

    fn bars(&self, v: Variant) -> Rc<Vec<LatencyBar>> {
        let scale = self.scale;
        self.get(v, move |env| faasdom_bars(env, scale, v.1, v.0))
    }

    /// How many times longer than Fireworks bar `bar` takes for `part`.
    fn speedup(&self, v: Variant, bar: usize, part: fn(&LatencyBar) -> Nanos) -> f64 {
        let bars = self.bars(v);
        part(&bars[bar]).ratio(part(&bars[FW]))
    }

    /// [`Measured::speedup`] in start-up time over the slowest of `bars`.
    fn startup_speedup(&self, v: Variant, bars: [usize; 3]) -> f64 {
        max(bars.map(|bar| self.speedup(v, bar, |b| b.startup)))
    }

    /// The largest end-to-end speedup over a cold baseline in the
    /// geometric-mean panel (e).
    fn geomean_speedup(&self, runtime: RuntimeKind) -> f64 {
        let per_bench = Bench::ALL.map(|bench| self.bars((runtime, bench)).to_vec());
        let gm = geomean_bars(&per_bench);
        max(COLD.map(|bar| gm[bar].total().ratio(gm[FW].total())))
    }

    fn installs(&self, rt: RuntimeKind) -> [Rc<install_time::Row>; 4] {
        Bench::ALL.map(|b| self.get((rt, b), move |env| install_time::measure(env, rt, b)))
    }

    /// Seconds to write each of `runtime`'s four snapshots.
    fn writes(&self, runtime: RuntimeKind) -> [f64; 4] {
        self.installs(runtime).map(|row| row.write.as_secs_f64())
    }

    /// The Fig. 11 speedup of one configuration over the one before it.
    fn step(&self, v: Variant, of: fn(&fig11::Row) -> (Nanos, Nanos)) -> f64 {
        let scale = self.scale;
        let row = self.get(v, move |env| fig11::measure(env, scale, v.0, v.1));
        let (before, after) = of(&row);
        before.ratio(after)
    }

    fn pss(&self, rt: RuntimeKind) -> [Rc<fig12::Row>; 4] {
        Bench::ALL.map(|b| self.get((rt, b), move |env| fig12::measure(env, rt, b)))
    }

    fn chains(&self) -> Rc<fig9::Data> {
        self.get((), fig9::measure)
    }

    fn density(&self) -> Rc<fig10::Data> {
        let scale = self.scale;
        self.get((), move |env| fig10::measure(env, scale))
    }

    fn deopt(&self) -> Rc<ablations::Deopt> {
        self.get((), ablations::measure_deopt)
    }

    /// Fireworks, Firecracker, OpenWhisk and gVisor, freshly built.
    fn platforms(&self) -> [Box<dyn Platform>; 4] {
        let host = || PlatformEnv::new(self.env.clone());
        [
            Box::new(FireworksPlatform::new(host())),
            Box::new(FirecrackerPlatform::new(host(), SnapshotPolicy::None)),
            Box::new(OpenWhiskPlatform::new(host())),
            Box::new(GvisorPlatform::new(host())),
        ]
    }
}

fn max(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::MIN, f64::max)
}

fn min(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::MAX, f64::min)
}

/// How many of `checks` are true.
fn count<const N: usize>(checks: [bool; N]) -> f64 {
    checks.into_iter().filter(|&ok| ok).count() as f64
}

const BOTH: [RuntimeKind; 2] = [Node, Python];

/// Every claim, in the paper's order. A bare ratio is a baseline over
/// Fireworks; `-min` / `-max` ids take the extreme over the cited row's
/// variants, the bound the paper's "up to" speaks of.
// A table reads as one: a row is its identity, then its band and how it is
// measured, then its deviation — not rustfmt's one argument per line.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    Claim::new("table1.isolation", "Table 1", "VM > secure container > container: 6 of 6")
        .holds(6.0..=6.0, |m| {
            let [fw, fc, ow, gv] = m.platforms().map(|p| p.isolation());
            let levels = [fw == Vm, fc == Vm, gv == SecureContainer, ow == Container];
            count(levels) + count([fw > gv, gv > ow])
        }),
    Claim::new("s53.chains", "§5.3", "only OpenWhisk and Fireworks run chains: 4 of 4")
        .holds(4.0..=4.0, |m| {
            let [fw, fc, ow, gv] = m.platforms().map(|p| p.supports_chains());
            count([fw, !fc, ow, !gv])
        }),
    Claim::new("s51.write-node-min", "§5.1", "snapshot write 0.36–0.47 s, Node.js")
        .holds(0.15..=0.8, |m| min(m.writes(Node))),
    Claim::new("s51.write-node-max", "§5.1", "snapshot write 0.36–0.47 s, Node.js")
        .holds(0.15..=0.8, |m| max(m.writes(Node))),
    Claim::new("s51.write-python-min", "§5.1", "snapshot write 0.38–0.44 s, Python")
        .holds(0.15..=0.8, |m| min(m.writes(Python))),
    Claim::new("s51.write-python-max", "§5.1", "snapshot write 0.38–0.44 s, Python")
        .holds(0.15..=0.8, |m| max(m.writes(Python))),
    Claim::new("s51.write-share-max", "§5.1", "install dominated by packages + JIT warm-up")
        .holds(0.0..=0.5, |m| {
            let share = |row: Rc<install_time::Row>| row.write.ratio(row.report.install_time);
            max(BOTH.map(|rt| max(m.installs(rt).map(share))))
        }),
    Claim::new("s51.snapshot-mib-max", "§5.1", "~170 MiB average sandbox footprint")
        .holds(100.0..=250.0, |m| {
            let mib = |row: Rc<install_time::Row>| (row.report.snapshot_bytes >> 20) as f64;
            max(BOTH.map(|rt| max(m.installs(rt).map(mib))))
        }),
    Claim::new("fig6.cold-startup", "Fig. 6", "up to 133× faster cold start-up")
        .holds(60.0..=300.0, |m| m.speedup((Node, Fact), FC_COLD, |b| b.startup))
        .deviation("D3"),
    Claim::new("fig6.cold-startup-max", "Fig. 6", "up to 133× faster cold start-up")
        .holds(60.0..=300.0, |m| m.startup_speedup((Node, Fact), COLD))
        .deviation("D3"),
    Claim::new("fig6.warm-startup", "Fig. 6", "up to 3.8× faster warm start-up")
        .holds(1.2..=6.0, |m| m.speedup((Node, Fact), FC_WARM, |b| b.startup)),
    Claim::new("fig6.warm-startup-max", "Fig. 6", "up to 3.8× faster warm start-up")
        .holds(1.2..=6.0, |m| m.startup_speedup((Node, Fact), WARM)),
    Claim::new("fig6.exec-vs-cold", "Fig. 6", "exec ~38% faster than cold, compute")
        .holds(1.1..=3.0, |m| m.speedup((Node, Fact), FC_COLD, |b| b.exec)),
    Claim::new("fig6.exec-vs-warm", "Fig. 6", "exec ~25% faster than warm, compute")
        .holds(1.01..=2.0, |m| m.speedup((Node, Fact), FC_WARM, |b| b.exec))
        .deviation("D1"),
    Claim::new("fig6.disk-virtio-vs-overlayfs", "Fig. 6", "disk I/O: overlayfs < virtio")
        .holds(1.01..=10.0, |m| {
            let bars = m.bars((Node, DiskIo));
            bars[FC_COLD].other.ratio(bars[OW_COLD].other)
        }),
    Claim::new("fig6.disk-gofer-vs-virtio", "Fig. 6", "disk I/O: virtio < Sentry+Gofer")
        .holds(1.01..=20.0, |m| {
            let bars = m.bars((Node, DiskIo));
            bars[GV_COLD].other.ratio(bars[FC_COLD].other)
        }),
    Claim::new("fig6.geomean-max", "Fig. 6", "geomean end-to-end up to 8.6× shorter")
        .holds(4.0..=150.0, |m| m.geomean_speedup(Node))
        .deviation("D3"),
    Claim::new("fig7.cold-startup-max", "Fig. 7", "up to 74.2× faster cold start-up")
        .holds(30.0..=300.0, |m| m.startup_speedup((Python, Fact), COLD))
        .deviation("D3"),
    Claim::new("fig7.warm-startup-max", "Fig. 7", "4.4× faster warm start-up")
        .holds(1.2..=6.0, |m| m.startup_speedup((Python, Fact), WARM)),
    Claim::new("fig7.exec-fact", "Fig. 7", "exec 12.3–20× faster, fact")
        .holds(10.0..=40.0, |m| m.speedup((Python, Fact), FC_COLD, |b| b.exec)),
    Claim::new("fig7.exec-matrix", "Fig. 7", "exec up to 80× faster, matrix")
        .holds(10.0..=100.0, |m| m.speedup((Python, MatrixMult), FC_COLD, |b| b.exec))
        .deviation("D2"),
    Claim::new("fig7.post-jit-compiles", "Fig. 7", "post-JIT: nothing left to compile")
        .holds(0.0..=0.0, |m| m.bars((Python, Fact))[FW].compiles as f64),
    Claim::new("fig7.io-python-vs-node", "Fig. 7", "I/O similar across runtimes")
        .holds(0.8..=1.3, |m| {
            let io = |rt| m.bars((rt, DiskIo))[FW].other;
            io(Python).ratio(io(Node))
        }),
    Claim::new("fig7.geomean-max", "Fig. 7", "geomean end-to-end up to 19× shorter")
        .holds(4.0..=100.0, |m| m.geomean_speedup(Python))
        .deviation("D3"),
    Claim::new("fig9.alexa-startup", "Fig. 9", "Alexa: 12.5× faster start-up")
        .holds(3.0..=200.0, |m| fig9::total(&m.chains().alexa).startup_ratio())
        .deviation("D3"),
    Claim::new("fig9.alexa-startup-min", "Fig. 9", "Alexa: 12.5× faster start-up")
        .holds(1.2..=12.5, |m| min(m.chains().alexa.iter().map(fig9::StageRow::startup_ratio)))
        .deviation("D3"),
    Claim::new("fig9.alexa-exec", "Fig. 9", "Alexa: 2.4× faster execution")
        .holds(1.2..=5.0, |m| fig9::total(&m.chains().alexa).exec_ratio()),
    Claim::new("fig9.insert-startup", "Fig. 9", "insertion: 25.6× shorter start-up")
        .holds(3.0..=200.0, |m| fig9::total(&m.chains().insert).startup_ratio())
        .deviation("D3"),
    Claim::new("fig9.insert-exec-cold", "Fig. 9", "insertion: 11.8× faster execution")
        .holds(1.5..=15.0, |m| fig9::total(&m.chains().insert[..2]).exec_ratio())
        .deviation("D3"),
    Claim::new("fig9.analysis-triggered", "Fig. 9", "analysis fires off the change feed: 3 of 3")
        .holds(3.0..=3.0, |m| m.chains().analysis.len() as f64),
    Claim::new("fig10.fireworks-vms", "Fig. 10", "565 microVMs before swap (128 GiB host)")
        .holds(40.0..=120.0, |m| m.density().fireworks.len() as f64)
        .deviation("D4"),
    Claim::new("fig10.firecracker-vms", "Fig. 10", "337 microVMs before swap (128 GiB host)")
        .holds(20.0..=60.0, |m| m.density().firecracker.len() as f64)
        .deviation("D4"),
    Claim::new("fig10.consolidation", "Fig. 10", "167% more sandboxes (1.67×)")
        .holds(1.4..=3.5, |m| m.density().consolidation()),
    Claim::new("fig10.fireworks-mib-per-vm", "Fig. 10", "~136 MiB per microVM at the limit")
        .holds(60.0..=200.0, |m| fig10::Data::per_vm_mib(&m.density().fireworks)),
    Claim::new("fig10.firecracker-mib-per-vm", "Fig. 10", "~228 MiB per microVM at the limit")
        .holds(150.0..=400.0, |m| fig10::Data::per_vm_mib(&m.density().firecracker)),
    Claim::new("fig11.ordering-min", "Fig. 11", "baseline > +OS snapshot > +post-JIT, all 8")
        .holds(1.01..=100.0, |m| {
            let steps = |v| m.step(v, |r| (r.base, r.os)).min(m.step(v, |r| (r.os, r.jit)));
            min(BOTH.map(|rt| min(Bench::ALL.map(|bench| steps((rt, bench))))))
        }),
    Claim::new("fig11.os-node-fact", "Fig. 11", "+OS snapshot ~2.3× on Node compute")
        .holds(1.5..=30.0, |m| m.step((Node, Fact), |r| (r.base, r.os)))
        .deviation("D3"),
    Claim::new("fig11.os-node-matrix", "Fig. 11", "+OS snapshot ~2.3× on Node compute")
        .holds(1.5..=30.0, |m| m.step((Node, MatrixMult), |r| (r.base, r.os)))
        .deviation("D3"),
    Claim::new("fig11.os-netlatency", "Fig. 11", "+OS snapshot up to 6.1× on net-latency")
        .holds(2.0..=100.0, |m| m.step((Node, NetLatency), |r| (r.base, r.os)))
        .deviation("D3"),
    Claim::new("fig11.jit-node-io-min", "Fig. 11", "+post-JIT large where JIT lands late")
        .holds(1.1..=5.0, |m| {
            min([DiskIo, NetLatency].map(|bench| m.step((Node, bench), |r| (r.os, r.jit))))
        }),
    Claim::new("fig11.os-python-fact", "Fig. 11", "+OS snapshot helps Python too")
        .holds(1.01..=10.0, |m| m.step((Python, Fact), |r| (r.base, r.os))),
    Claim::new("fig11.jit-python-fact", "Fig. 11", "+post-JIT large where JIT never lands")
        .holds(5.0..=50.0, |m| m.step((Python, Fact), |r| (r.os, r.jit))),
    Claim::new("fig12.os-pct-max", "Fig. 12", "+OS snapshot: up to 73% less memory")
        .holds(50.0..=90.0, |m| max(BOTH.map(|rt| max(m.pss(rt).map(|r| r.os_pct()))))),
    Claim::new("fig12.jit-pct-node-max", "Fig. 12", "+post-JIT: up to a further 74%, Node.js")
        .holds(30.0..=90.0, |m| max(m.pss(Node).map(|r| r.jit_pct()))),
    Claim::new("fig12.jit-pct-python-max", "Fig. 12", "+post-JIT: no significant gain, Python")
        .holds(0.0..=25.0, |m| max(m.pss(Python).map(|r| r.jit_pct()))),
    Claim::new("fig12.node-minus-python", "Fig. 12", "post-JIT sharing helps Node.js, not Python")
        .holds(10.0..=80.0, |m| {
            min(m.pss(Node).map(|r| r.jit_pct())) - max(m.pss(Python).map(|r| r.jit_pct()))
        }),
    Claim::new("s6.deopt-correct", "§6", "a de-optimised call still answers correctly")
        .holds(1.0..=1.0, |m| count([m.deopt().hostile_correct])),
    Claim::new("s6.deopt-fires", "§6", "unseen argument types fail the JIT guards")
        .holds(1.0..=1000.0, |m| m.deopt().hostile_deopts as f64),
    Claim::new("s6.deopt-speedup", "§6", "\"always show a performance improvement\"")
        .holds(1.01..=500.0, |m| m.deopt().baseline_total.ratio(m.deopt().hostile_total)),
];

/// The claim called `id`.
pub fn find(id: &str) -> Option<&'static Claim> {
    CLAIMS.iter().find(|claim| claim.id == id)
}

/// Evaluates the claims called `ids` over `m`.
///
/// # Panics
///
/// Panics naming every claim that left its band (or is not in the table).
pub fn assert_hold(m: &Measured, ids: &[&str]) {
    let broken: Vec<String> = ids
        .iter()
        .filter_map(|id| {
            let claim = find(id).unwrap_or_else(|| panic!("no claim {id:?}"));
            let got = (claim.measured)(m);
            (!claim.holds.contains(&got)).then(|| {
                format!(
                    "{id}: {got} outside {:?} (paper: {})",
                    claim.holds, claim.paper
                )
            })
        })
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

/// `experiments claims`: the paper-vs-measured table at the scale the
/// figure rows print; `Err` when a claim left its band.
pub fn run(_args: &[String]) -> Result<u64, String> {
    println!(
        "=== Claims: the paper's numbers, the measured values, the bands that defend them ==="
    );
    println!("(measured and band are in the unit the paper column names; a bare ratio is a");
    println!(" baseline over Fireworks, -min/-max the extreme over the cited row's variants;");
    println!(" D<n> is explained under \"Known deviations\" in EXPERIMENTS.md)\n");
    let width = |col: fn(&Claim) -> &str| CLAIMS.iter().map(|c| col(c).chars().count()).max();
    let (id_w, paper_w) = (
        width(|c| c.id).unwrap_or(0),
        width(|c| c.paper).unwrap_or(0),
    );
    println!(
        "{:<id_w$} | {:<7} | {:<paper_w$} | {:>8} | {:<11} | {:<7} | deviation",
        "id", "source", "paper", "measured", "band", "verdict"
    );
    let m = Measured::new(EnvConfig::default(), Scale::PAPER);
    let mut broken = Vec::new();
    for claim in CLAIMS {
        let got = (claim.measured)(&m);
        let holds = claim.holds.contains(&got);
        if !holds {
            broken.push(claim.id);
        }
        println!(
            "{:<id_w$} | {:<7} | {:<paper_w$} | {:>8.2} | {:<11} | {:<7} | {}",
            claim.id,
            claim.source,
            claim.paper,
            got,
            format!("{}..={}", claim.holds.start(), claim.holds.end()),
            if holds { "holds" } else { "BROKEN" },
            claim.deviation.unwrap_or("-"),
        );
    }
    println!(
        "\n{} claims, {} outside their band",
        CLAIMS.len(),
        broken.len()
    );
    if broken.is_empty() {
        Ok(0)
    } else {
        Err(format!("outside their band: {}", broken.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(path: &str) -> String {
        let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// Every `claim:<id>` a document cites.
    fn cited(text: &str) -> Vec<&str> {
        let id_end = |rest: &str| {
            rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '-'))
                .unwrap_or(rest.len())
        };
        text.split("claim:")
            .skip(1)
            .map(|rest| rest[..id_end(rest)].trim_end_matches('.'))
            .filter(|id| !id.is_empty())
            .collect()
    }

    #[test]
    fn ids_are_unique_and_deviations_are_explained() {
        let experiments = doc("EXPERIMENTS.md");
        for (i, claim) in CLAIMS.iter().enumerate() {
            assert!(CLAIMS[..i].iter().all(|c| c.id != claim.id), "{}", claim.id);
            if let Some(entry) = claim.deviation {
                let heading = format!("\n### {entry} ");
                assert!(experiments.contains(&heading), "{}: {entry}", claim.id);
            }
        }
    }

    #[test]
    fn docs_cite_claims_that_exist_and_experiments_md_cites_them_all() {
        let experiments = doc("EXPERIMENTS.md");
        for text in [&experiments, &doc("docs/CALIBRATION.md"), &doc("DESIGN.md")] {
            for id in cited(text) {
                assert!(find(id).is_some(), "cited claim:{id} is not in CLAIMS");
            }
        }
        let cited = cited(&experiments);
        for claim in CLAIMS {
            assert!(
                cited.contains(&claim.id),
                "EXPERIMENTS.md never cites claim:{}",
                claim.id
            );
        }
    }
}
