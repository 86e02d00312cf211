//! The evaluation as one table: every table, figure and sweep this repo
//! reproduces is one row of [`ALL`], and the `experiments` binary, the
//! golden check and the determinism check (`tests/experiments.rs`) all
//! read that table. Adding an experiment is one module here plus one row.
//!
//! A row whose numbers the paper states splits into `measure(&EnvConfig,
//! …) -> Data` and a private `print(&Data)`: [`crate::claims`] evaluates
//! the data `measure` returns, so what a claim checks is what the row
//! prints. The `claims` row is that table. The `paper: …` trailer lines a
//! figure row prints are pinned by its golden and stay hand-written;
//! changing one is a re-bless, and the paper's numbers are asserted only
//! through [`crate::claims::CLAIMS`].

pub(crate) mod ablations;
mod chaos_sweep;
mod cluster_sweep;
mod dedup_sweep;
mod elastic_sweep;
pub(crate) mod fig10;
pub(crate) mod fig11;
pub(crate) mod fig12;
pub(crate) mod fig9;
mod figures;
pub(crate) mod install_time;
mod jit_ablation;
mod load_sweep;
mod motivation;
mod scale_sweep;
mod table1;
mod trace_dump;
mod trace_query;

use fireworks_runtime::RuntimeKind;
use fireworks_workloads::faasdom::Bench;

/// One reproducible experiment: `experiments <name> [args…]`.
pub struct Experiment {
    /// The word after `experiments`.
    pub name: &'static str,
    /// What it reproduces, one line.
    pub about: &'static str,
    /// The invocation syntax after `experiments`; equal to `name` for a
    /// row that takes no arguments (the runner then rejects any).
    pub usage: &'static str,
    /// `(stem, args)`: stdout of `experiments <name> <args…>` must equal
    /// `tests/golden/sweeps/<stem>.txt`.
    pub golden: Option<(&'static str, &'static [&'static str])>,
    /// The last golden argument is a seed and stdout is a pure function
    /// of it: the determinism check swaps in other seeds and runs twice.
    pub seeded: bool,
    /// Runs in about two seconds or less in a debug build, so tier-1
    /// (`cargo test`) checks its golden.
    pub quick: bool,
    /// Runs the experiment, printing to stdout; returns the simulator
    /// events it processed (`0` where none are counted). `Err` is a
    /// failed self-check.
    pub run: fn(&[String]) -> Result<u64, String>,
}

impl Experiment {
    const fn new(name: &'static str, run: fn(&[String]) -> Result<u64, String>) -> Self {
        Experiment {
            name,
            about: "",
            usage: name,
            golden: None,
            seeded: false,
            quick: false,
            run,
        }
    }

    const fn about(mut self, about: &'static str) -> Self {
        self.about = about;
        self
    }

    const fn usage(mut self, usage: &'static str) -> Self {
        self.usage = usage;
        self
    }

    const fn golden(mut self, stem: &'static str, args: &'static [&'static str]) -> Self {
        self.golden = Some((stem, args));
        self
    }

    const fn seeded(mut self) -> Self {
        self.seeded = true;
        self
    }

    const fn quick(mut self) -> Self {
        self.quick = true;
        self
    }
}

/// Every experiment, in the order the usage table prints them.
pub const ALL: &[Experiment] = &[
    Experiment::new("all", all)
        .about("every table and figure of §5, table1 to fig12, one after another"),
    Experiment::new("table1", table1::run)
        .about("Table 1: design comparison of serverless platforms")
        .golden("table1", &[])
        .quick(),
    Experiment::new("table2", figures::table2)
        .about("Table 2: tested serverless applications")
        .golden("table2", &[])
        .quick(),
    Experiment::new("install_time", install_time::run)
        .about("§5.1: post-JIT snapshot creation time in the install phase")
        .golden("install_time", &[])
        .quick(),
    Experiment::new("fig6", figures::fig6)
        .about("Fig. 6: Node.js FaaSdom latency, four platforms, cold and warm")
        .golden("fig6", &[]),
    Experiment::new("fig7", figures::fig7)
        .about("Fig. 7: Python FaaSdom latency, four platforms, cold and warm")
        .golden("fig7", &[]),
    Experiment::new("fig9", fig9::run)
        .about("Fig. 9: Alexa Skills and Data Analysis chains vs OpenWhisk")
        .golden("fig9", &[])
        .quick(),
    Experiment::new("fig10", fig10::run)
        .about("Fig. 10: host memory vs concurrent microVMs until swap onset")
        .golden("fig10", &[]),
    Experiment::new("fig11", fig11::run)
        .about("Fig. 11: factor analysis of latency (+OS snapshot, +post-JIT)")
        .golden("fig11", &[]),
    Experiment::new("fig12", fig12::run)
        .about("Fig. 12: factor analysis of per-microVM memory (PSS, 10 VMs)")
        .golden("fig12", &[]),
    Experiment::new("claims", crate::claims::run)
        .about("every paper number next to the measured one and its band; fails outside")
        .golden("claims", &[]),
    Experiment::new("ablations", ablations::run)
        .about("§6: de-opt worst case, cache budget, security refresh, REAP")
        .golden("ablations", &[])
        .quick(),
    Experiment::new("motivation", motivation::run)
        .about("§2.2: warm pools vs snapshot starts on a Zipf trace")
        .golden("motivation", &[]),
    Experiment::new("load_sweep", load_sweep::run)
        .about("tail latency vs offered load; §5.4 density at equal host RAM")
        .usage(load_sweep::USAGE)
        .golden("load_sweep.seed1", &["1"])
        .seeded(),
    Experiment::new("chaos_sweep", chaos_sweep::run)
        .about("recovery under uniform fault rates at every fault site")
        .usage(chaos_sweep::USAGE)
        .golden("chaos_sweep.seed1", &["1"])
        .seeded(),
    Experiment::new("cluster_sweep", cluster_sweep::run)
        .about("routing policy x host count x rate; cluster-wide density")
        .usage(cluster_sweep::USAGE)
        .golden("cluster_sweep.seed1", &["1"])
        .seeded(),
    Experiment::new("dedup_sweep", dedup_sweep::run)
        .about("chunk-store dedup ratio; delta fetch vs rebuild on remote miss")
        .usage(dedup_sweep::USAGE)
        .golden("dedup_sweep.seed1", &["1"])
        .seeded(),
    Experiment::new("elastic_sweep", elastic_sweep::run)
        .about("elastic fleet vs fixed fleets under a flash crowd; chaos")
        .usage(elastic_sweep::USAGE)
        .golden("elastic_sweep.seed1", &["1"])
        .seeded(),
    Experiment::new("scale_sweep", scale_sweep::run)
        .about("driver throughput: Azure-shaped trace on 64-256 cost-model hosts")
        .usage(scale_sweep::USAGE)
        .golden(
            "scale_sweep.hosts16",
            &["--hosts", "16", "--invocations", "100000", "--seed", "42"],
        )
        .seeded(),
    Experiment::new("jit_ablation", jit_ablation::run)
        .about("post-JIT snapshot taken before vs after inline-cache warm-up")
        .usage(jit_ablation::USAGE)
        .golden("jit_ablation.seed1", &["--seed", "1"])
        .seeded()
        .quick(),
    Experiment::new("trace_query", trace_query::run)
        .about("per-request causal traces over a 4-host cluster; schema check")
        .usage(trace_query::USAGE)
        .golden("trace_query.seed1", &["1"])
        .seeded()
        .quick(),
    Experiment::new("trace_dump", trace_dump::run)
        .about("Perfetto timelines of Fireworks and Firecracker+snapshot")
        .usage(trace_dump::USAGE),
];

/// The row called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|row| row.name == name)
}

/// The rows `experiments all` reproduces, in the paper's order.
const FIGURES: &str = "table1 table2 install_time fig6 fig7 fig9 fig10 fig11 fig12";

/// The one-shot reproduction of the paper's evaluation section.
fn all(_args: &[String]) -> Result<u64, String> {
    let mut events = 0;
    for name in FIGURES.split(' ') {
        let row = find(name).expect("FIGURES names registered rows");
        println!("\n################################################################");
        println!("# {name}");
        println!("################################################################\n");
        // `FunctionId`s come from a thread-local interner and id-keyed
        // maps iterate in id order, so each row gets a fresh thread —
        // the fresh interner a process of its own would have given it.
        events += std::thread::spawn(move || (row.run)(&[]))
            .join()
            .map_err(|_| format!("{name} panicked"))??;
    }
    Ok(events)
}

/// `f` over the eight FaaSdom variants in figure order: Node.js then
/// Python, each over `Bench::ALL`.
fn variants<T>(f: impl Fn(RuntimeKind, Bench) -> T) -> Vec<T> {
    let runtimes = [RuntimeKind::NodeLike, RuntimeKind::PythonLike];
    let pairs = runtimes.iter().flat_map(|&rt| Bench::ALL.map(|b| (rt, b)));
    pairs.map(|(rt, b)| f(rt, b)).collect()
}

/// Reports a bad command line on stderr — the message, then the row's
/// usage — and exits 2.
pub fn usage_error(message: &str, usage: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: experiments {usage}");
    std::process::exit(2)
}

/// `[seed]`: the one optional argument of a seeded sweep, default 42.
fn seed_arg(args: &[String], usage: &str) -> u64 {
    match args {
        [] => 42,
        [arg] => arg.parse().unwrap_or_else(|_| {
            usage_error(
                &format!("seed must be a non-negative integer, got {arg:?}"),
                usage,
            )
        }),
        [_, extra, ..] => usage_error(&format!("unexpected argument {extra:?}"), usage),
    }
}

/// `[--flag N]…`: the value given for each of `names`, in that order.
fn flag_args<const N: usize>(args: &[String], names: [&str; N], usage: &str) -> [Option<u64>; N] {
    let mut values = [None; N];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(i) = names.iter().position(|n| n == flag) else {
            usage_error(&format!("unknown flag {flag:?}"), usage)
        };
        let value = it.next().and_then(|v| v.parse().ok());
        values[i] = Some(value.unwrap_or_else(|| {
            usage_error(&format!("{flag} needs a non-negative integer"), usage)
        }));
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn seed_defaults_to_42_and_parses() {
        assert_eq!(seed_arg(&[], "x [seed]"), 42);
        assert_eq!(seed_arg(&strings(&["7"]), "x [seed]"), 7);
    }

    #[test]
    fn flags_land_in_declaration_order() {
        let got = flag_args(
            &strings(&["--b", "2", "--a", "1"]),
            ["--a", "--b", "--c"],
            "x",
        );
        assert_eq!(got, [Some(1), Some(2), None]);
    }

    #[test]
    fn rows_are_uniquely_named_and_usage_starts_with_the_name() {
        for (i, row) in ALL.iter().enumerate() {
            assert!(ALL[..i].iter().all(|e| e.name != row.name), "{}", row.name);
            assert_eq!(row.usage.split(' ').next(), Some(row.name));
            assert!(!row.seeded || row.golden.is_some_and(|(_, args)| !args.is_empty()));
        }
        for name in FIGURES.split(' ') {
            assert!(find(name).is_some(), "{name}");
        }
    }
}
