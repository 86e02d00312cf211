//! The repo benchmark: four workloads on the real `FireworksPlatform`,
//! wall-clock end-to-end metrics, per-layer probes.
//!
//! `fireworks-benchmark --workload W --seed N --seconds S --trace 0|1`
//! runs one workload in this process, single-threaded: one untimed
//! warm-up repetition, then timed repetitions of a fixed operation count
//! (never auto-scaled: two commits run identical work) until the timed
//! sections add up to `S` seconds. Each repetition builds a fresh fixture
//! from the seed. An end-to-end metric's reported value is its best
//! repetition (see [`reported`] for why not the median); median, min..max
//! and the repetition count are printed beside it. With `--trace 1` it
//! instead alternates untraced and traced repetitions, runs the per-layer
//! probes inside harness-side spans, and writes the span tree as a Chrome
//! trace.
//!
//! Standard output: one JSON detail document (every metric with unit,
//! median, min..max and sample count), then as the last line the result
//! object `{"correct", "attempted", "failed", "metrics"}`. Any wrong guest
//! result, lost request, non-repeating virtual clock or unexercised
//! mechanism makes the exit code non-zero.
//!
//! Without `--workload` it spawns itself once per workload, one process
//! each, and prints their documents as one.

mod layers;
mod metrics;
mod oracle;
mod proc;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use spans::Tracer;
use stats::{is_resolved, percentile, summarize, Summary};
use workloads::{Counts, Rep, Workload};

/// Timed repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Untraced/traced repetition pairs of a traced run.
const TRACE_PAIRS: usize = 2;
/// Where a traced run writes `<workload>.trace.json`.
const TRACE_DIR: &str = "benchmark/out";

const USAGE: &str =
    "usage: fireworks-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; one of {:?}",
                        workloads::NAMES
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            // `--trace` alone (run.sh by hand) or `--trace 0|1` (driver).
            "--trace" => {
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// One repetition, fixture included (for the probes; dropped otherwise).
struct RepRun<W> {
    setup_s: f64,
    rep: Rep,
    /// Resident-set growth across the timed section, fixture excluded.
    /// Only a process's first repetition grows a fresh heap; later ones
    /// reuse what earlier fixtures freed.
    run_rss_growth_kib: u64,
    fixture: W,
}

fn one_rep<W: Workload>(seed: u64, t: &mut Tracer) -> RepRun<W> {
    let t0 = Instant::now();
    let mut fixture = t.span("setup", |t| W::setup(seed, t));
    let setup_s = t0.elapsed().as_secs_f64();
    let rss_before = proc::rss_kib();
    let rep = fixture.run(t);
    RepRun {
        setup_s,
        rep,
        run_rss_growth_kib: proc::rss_kib().saturating_sub(rss_before),
        fixture,
    }
}

/// Everything a run learned, ready to print.
#[derive(Default)]
struct Outcome {
    reps: usize,
    attempted: u64,
    failed: u64,
    fingerprint: u64,
    violations: Vec<String>,
    metrics: Vec<(MetricDef, Summary)>,
    /// Virtual-clock values and exact counts of one repetition.
    exact: BTreeMap<&'static str, f64>,
    call_samples: usize,
}

/// Virtual-clock percentiles in microseconds: `(start p99, e2e p50)`.
fn sim_percentiles(rep: &Rep) -> (f64, f64) {
    let pick = |samples: &[u64], p: f64| {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        if sorted.is_empty() {
            0.0
        } else {
            percentile(&sorted, p) as f64 / 1e3
        }
    };
    (pick(&rep.sim_start_ns, 99.0), pick(&rep.sim_e2e_ns, 50.0))
}

/// The virtual side of a repetition must not depend on which repetition
/// it was: fingerprint, counts and virtual latencies repeat exactly.
fn check_repeats(first: &Rep, rep: &Rep, index: usize, violations: &mut Vec<String>) {
    if (rep.fingerprint, rep.counts, rep.attempted)
        != (first.fingerprint, first.counts, first.attempted)
        || sim_percentiles(rep) != sim_percentiles(first)
    {
        violations.push(format!(
            "repetition {index} did not repeat the virtual clock: fingerprint {:#018x} vs {:#018x}",
            rep.fingerprint, first.fingerprint
        ));
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Exact (virtual-clock and count) values of one repetition, by
/// per-layer metric name.
fn exact_values(rep: &Rep) -> BTreeMap<&'static str, f64> {
    let c: &Counts = &rep.counts;
    let (start_p99, e2e_p50) = sim_percentiles(rep);
    BTreeMap::from([
        ("sim.start_p99_us", start_p99),
        ("sim.e2e_p50_us", e2e_p50),
        ("guestmem.pages_per_snapshot", c.pages_per_snapshot as f64),
        (
            "guestmem.cow_faults_per_invocation",
            ratio(c.cow_faults, rep.attempted),
        ),
        ("lang.jit_op_share", ratio(c.jit_ops, c.guest_ops())),
        (
            "lang.ic_hit_ratio",
            ratio(c.ic_hits, c.ic_hits + c.ic_misses),
        ),
        ("lang.deopts_per_invocation", ratio(c.deopts, rep.attempted)),
        (
            "store.chunk.dedup_ratio",
            ratio(c.dedup_logical_bytes, c.dedup_unique_bytes),
        ),
        (
            "obs.recorder.events_per_invocation",
            ratio(c.recorder_events, rep.attempted),
        ),
        (
            "core.cache.rebuilds_per_invocation",
            ratio(c.rebuilds, rep.attempted),
        ),
        ("core.delta.fetches", c.delta_fetches as f64),
        (
            "core.cluster.locality_hit_ratio",
            ratio(c.locality_hits, rep.attempted),
        ),
    ])
}

fn invocations_per_s(rep: &Rep) -> f64 {
    (rep.attempted - rep.failed) as f64 / (rep.wall_ns as f64 / 1e9)
}

/// The end-to-end run: tracing off, every metric summarised over the
/// timed repetitions.
fn run_end_to_end<W: Workload>(args: &Args) -> Outcome {
    let mut off = Tracer::off();
    let first = one_rep::<W>(args.seed, &mut off).rep;
    // Peak memory of one whole repetition in a fresh process. Later
    // repetitions add only allocator hysteresis, and how many of them
    // fit into `--seconds` must not show as memory.
    let rss_mib = proc::peak_rss_kib() as f64 / 1024.0;
    let mut out = Outcome {
        violations: first.violations.clone(),
        fingerprint: first.fingerprint,
        exact: exact_values(&first),
        ..Outcome::default()
    };

    let budget_ns = (args.seconds * 1e9) as u64;
    let (mut timed_ns, mut setup, mut ips, mut mops) = (0u64, vec![], vec![], vec![]);
    while out.reps < MIN_REPS || timed_ns < budget_ns {
        let RepRun { setup_s, rep, .. } = one_rep::<W>(args.seed, &mut off);
        out.reps += 1;
        check_repeats(&first, &rep, out.reps, &mut out.violations);
        timed_ns += rep.wall_ns;
        out.attempted += rep.attempted;
        out.failed += rep.failed;
        out.call_samples += rep.call_wall_ns.len();
        eprintln!(
            "rep {}: setup {:.4} s, timed {:.4} s, {:.1} invocations/s",
            out.reps,
            setup_s,
            rep.wall_ns as f64 / 1e9,
            invocations_per_s(&rep)
        );
        setup.push(setup_s);
        ips.push(invocations_per_s(&rep));
        mops.push(rep.counts.guest_ops() as f64 / (rep.wall_ns as f64 / 1e3));
    }
    for (def, values) in END_TO_END.iter().zip([&ips[..], &mops, &[rss_mib], &setup]) {
        out.metrics.push((*def, summarize(values)));
    }
    out
}

/// The traced run: per-layer metrics from harness-side spans.
fn run_traced<W: Workload>(name: &str, args: &Args) -> Outcome {
    let mut off = Tracer::off();
    let mut tracer = Tracer::new(true);
    let mut out = Outcome::default();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    tracer.span("run", |t| {
        let RepRun {
            rep: first,
            run_rss_growth_kib,
            ..
        } = one_rep::<W>(args.seed, &mut off);
        out.violations = first.violations.clone();
        out.fingerprint = first.fingerprint;
        out.exact = exact_values(&first);
        v.insert(
            "obs.recorder.rss_kib_per_invocation",
            run_rss_growth_kib as f64 / first.attempted as f64,
        );

        let (mut untraced, mut traced, mut calls) = (vec![], vec![], vec![]);
        let (mut run_ns, mut events, mut served) = (0u64, 0u64, 0u64);
        let mut probe = None;
        for pair in 0..TRACE_PAIRS {
            let rep = one_rep::<W>(args.seed, &mut off).rep;
            check_repeats(&first, &rep, 2 * pair + 1, &mut out.violations);
            untraced.push(invocations_per_s(&rep));
            calls.extend_from_slice(&rep.call_wall_ns);
            run_ns += rep.cluster_run_ns;
            events += rep.counts.cluster_events;
            served += rep.attempted - rep.failed;

            let RepRun { rep, fixture, .. } = t.span("rep", |t| one_rep::<W>(args.seed, t));
            check_repeats(&first, &rep, 2 * pair + 2, &mut out.violations);
            traced.push(invocations_per_s(&rep));
            out.attempted += rep.attempted;
            out.failed += rep.failed;
            out.reps += 1;
            probe = Some(fixture.probe_function());
        }
        let (spec, probe_args) = probe.expect("TRACE_PAIRS > 0");
        v.insert(
            "harness.trace_overhead_share",
            1.0 - stats::median(&traced) / stats::median(&untraced),
        );

        let layers = t.span("layers", |t| layers::run(spec, probe_args, args.seed, t));
        v.extend(layers.values);

        // Per-call wall latency: the workload's own blocking invokes,
        // or, for the batch workloads, the direct-invoke probe's.
        if calls.is_empty() {
            calls = layers.invoke_wall_ns;
        }
        calls.sort_unstable();
        out.call_samples = calls.len();
        if !is_resolved(calls.len(), 99.0) {
            eprintln!(
                "note: p99 of {} samples has fewer than ten beyond it: unresolved",
                calls.len()
            );
        }
        for (k, p) in [
            ("core.invoke_wall_p50_us", 50.0),
            ("core.invoke_wall_p99_us", 99.0),
        ] {
            v.insert(k, percentile(&calls, p) as f64 / 1e3);
        }
        v.insert("core.invoke_wall_samples", calls.len() as f64);

        // The cluster driver: wall per simulator event, and per served
        // invocation against a direct invoke of the same function.
        let invoke_us = v["core.invoke_us"];
        let cluster: [(&'static str, f64); 3] = if events == 0 {
            [
                ("core.cluster.run_us_per_event", 0.0),
                ("core.cluster.events_per_s", 0.0),
                ("core.cluster.driver_overhead_ratio", 0.0),
            ]
        } else {
            [
                (
                    "core.cluster.run_us_per_event",
                    run_ns as f64 / 1e3 / events as f64,
                ),
                (
                    "core.cluster.events_per_s",
                    events as f64 / (run_ns as f64 / 1e9),
                ),
                (
                    "core.cluster.driver_overhead_ratio",
                    run_ns as f64 / 1e3 / served as f64 / invoke_us,
                ),
            ]
        };
        v.extend(cluster);
    });

    let usage = proc::usage();
    let cpu = usage.user_s + usage.sys_s;
    v.extend([
        ("proc.cpu_user_s", usage.user_s),
        ("proc.cpu_sys_s", usage.sys_s),
        (
            "proc.sys_share",
            if cpu > 0.0 { usage.sys_s / cpu } else { 0.0 },
        ),
        ("proc.minor_faults", usage.minor_faults as f64),
    ]);
    v.extend(out.exact.iter().map(|(k, value)| (*k, *value)));
    for def in PER_LAYER {
        let value = *v
            .get(def.0)
            .unwrap_or_else(|| panic!("no probe produced {}", def.0));
        out.metrics.push((def, summarize(&[value])));
    }

    let path = format!("{TRACE_DIR}/{name}.trace.json");
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("trace: {} spans -> {path}", tracer.spans().len()),
        Err(e) => out.violations.push(format!("cannot write {path}: {e}")),
    }
    eprintln!("self time by span name (ms):");
    for (span, totals) in spans::totals(tracer.spans()) {
        eprintln!(
            "  {span:<44} n={:<6} total={:>10.3} self={:>10.3}",
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        );
    }
    out
}

/// The value of a metric that the result line carries: its best
/// repetition. (A per-layer metric has one value per run, itself a median
/// over probe batches, so this only chooses among end-to-end repetitions.)
///
/// On a shared machine interference only ever slows a repetition down,
/// and here it comes in phases of 10-30 s during which the CPU itself
/// runs up to 1.5x slower (CPU time inflates with wall time, so no other
/// clock helps). The median over a run's repetitions then reports which
/// phase the run fell into; the best repetition reports the program.
/// Median and min..max stay in the detail document.
fn reported(better: &str, s: &Summary) -> f64 {
    if better == "higher" {
        s.max
    } else {
        s.min
    }
}

/// A float with all its digits, as JSON.
fn num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x:?}")
}

fn print_outcome(name: &str, args: &Args, out: &Outcome) -> bool {
    let correct = out.failed == 0 && out.violations.is_empty();
    let mut doc = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"repetitions\": {}, \
         \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \
         \"sim_fingerprint\": \"{:#018x}\", \"invoke_wall_samples\": {}, \"threads\": 1, \
         \"available_parallelism\": {}, \"violations\": [",
        args.seed,
        args.trace,
        out.reps,
        out.attempted,
        out.failed,
        num(out.failed as f64 / out.attempted.max(1) as f64),
        out.fingerprint,
        out.call_samples,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for (i, violation) in out.violations.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(doc, "{sep}{}", fireworks::obs::json::escape(violation));
    }
    doc.push_str("], \"exact\": {");
    for (i, (k, value)) in out.exact.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(doc, "{sep}\"{k}\": {}", num(*value));
    }
    doc.push_str("}, \"metrics\": {");
    let mut result = String::new();
    for (i, ((k, unit, better), s)) in out.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            doc,
            "{sep}\"{k}\": {{\"unit\": \"{unit}\", \"better\": \"{better}\", \"value\": {}, \
             \"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
            num(reported(better, s)),
            num(s.median),
            num(s.min),
            num(s.max),
            s.n
        );
        let _ = write!(
            result,
            "{sep}\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(reported(better, s))
        );
    }
    doc.push_str("}}");
    println!("{doc}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{result}}}}}",
        out.attempted.max(1),
        out.failed
    );
    correct
}

fn run_workload<W: Workload>(name: &str, args: &Args) -> bool {
    let out = if args.trace {
        run_traced::<W>(name, args)
    } else {
        run_end_to_end::<W>(args)
    };
    for violation in &out.violations {
        eprintln!("FAILED {name}: {violation}");
    }
    print_outcome(name, args, &out)
}

/// One child process per workload; their detail documents as one.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    let mut docs = Vec::new();
    for name in workloads::NAMES {
        let child = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn one process per workload");
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        ok &= child.status.success();
        let stdout = String::from_utf8_lossy(&child.stdout);
        match stdout.lines().next() {
            Some(doc) if child.status.success() || doc.starts_with('{') => {
                docs.push(doc.to_string())
            }
            _ => eprintln!("FAILED {name}: no result ({})", child.status),
        }
    }
    println!(
        "{{\"seed\": {}, \"workloads\": [\n{}\n]}}",
        args.seed,
        docs.join(",\n")
    );
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload.as_deref() {
        None => run_all(&args),
        Some(name @ "warm_io") => run_workload::<workloads::warm_io::WarmIo>(name, &args),
        Some(name @ "warm_compute") => {
            run_workload::<workloads::warm_compute::WarmCompute>(name, &args)
        }
        Some(name @ "cluster_churn") => {
            run_workload::<workloads::cluster_churn::ClusterChurn>(name, &args)
        }
        Some(name @ "trace_scale") => {
            run_workload::<workloads::trace_scale::TraceScale>(name, &args)
        }
        Some(other) => unreachable!("parse_args admitted {other:?}"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
