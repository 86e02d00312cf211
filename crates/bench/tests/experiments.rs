//! The golden check and the determinism check of the evaluation, driven
//! from the table the `experiments` binary itself runs
//! ([`fireworks_bench::experiments::ALL`]).
//!
//! `cargo test` (tier-1, debug) compares the stdout of the `quick` rows
//! with `tests/golden/sweeps/`; `cargo test --release -p fireworks-bench
//! --test experiments -- --include-ignored` compares all 20 rows that
//! have a golden (the `claims` table among them; `all` only concatenates
//! other rows' output and has none), runs every seeded row twice under each of
//! CI's three seeds, and re-evaluates the claims under perturbed **fit**
//! constants.
//!
//! A refactor that is deterministic but wrong passes the two-run check; it
//! cannot pass the goldens, so do not re-bless them for a refactor. After
//! an intentional behaviour change, regenerate one with
//! `cargo run --release -p fireworks-bench -- <name> <golden args…> >
//! tests/golden/sweeps/<stem>.txt`.

use fireworks_bench::claims::{Measured, CLAIMS};
use fireworks_bench::experiments::{Experiment, ALL};
use fireworks_bench::Scale;
use fireworks_core::env::EnvConfig;
use fireworks_sim::{CostModel, Nanos};
use std::path::PathBuf;
use std::process::{Command, Output};

/// The seeds CI's chaos matrix runs.
const SEEDS: [&str; 3] = ["42", "1234", "987654321"];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sweeps")
}

fn read_golden(stem: &str) -> String {
    let path = golden_dir().join(format!("{stem}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn the experiments binary")
}

/// Stdout of `experiments <name> <args…>`, which must succeed.
fn stdout_of(name: &str, args: &[&str]) -> String {
    let out = experiments(&[&[name], args].concat());
    assert!(
        out.status.success(),
        "{name} {args:?}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("experiments print UTF-8")
}

/// Runs the row with its golden arguments; `Some(description)` if stdout
/// is not the golden's bytes.
fn golden_diff(row: &Experiment) -> Option<String> {
    let (stem, args) = row.golden.expect("row has a golden");
    let (got, want) = (stdout_of(row.name, args), read_golden(stem));
    if got == want {
        return None;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .take_while(|(g, w)| g == w)
        .count();
    Some(format!(
        "{} {args:?} differs from {stem}.txt at line {}:\n   got: {:?}\n  want: {:?}",
        row.name,
        line + 1,
        got.lines().nth(line),
        want.lines().nth(line),
    ))
}

fn assert_goldens(rows: impl Iterator<Item = &'static Experiment>) {
    let moved: Vec<String> = rows.filter_map(golden_diff).collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn registry_matches_goldens() {
    let mut named: Vec<String> = ALL
        .iter()
        .filter_map(|row| row.golden)
        .map(|(stem, _)| format!("{stem}.txt"))
        .collect();
    named.sort();
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden/sweeps")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .into_string()
                .expect("UTF-8")
        })
        .collect();
    on_disk.sort();
    // Equal as sorted lists: every file is named by exactly one row and
    // every named file exists.
    assert_eq!(named, on_disk);
}

#[test]
fn quick_goldens() {
    assert_goldens(ALL.iter().filter(|row| row.quick));
}

#[test]
#[ignore = "minutes in a debug build: run with --release -- --include-ignored"]
fn all_goldens() {
    assert_goldens(ALL.iter().filter(|row| row.golden.is_some()));
}

#[test]
#[ignore = "minutes in a debug build: run with --release -- --include-ignored"]
fn deterministic_per_seed() {
    for row in ALL.iter().filter(|row| row.seeded) {
        let (stem, golden_args) = row.golden.expect("a seeded row has golden arguments");
        let is_json = read_golden(stem).starts_with('{');
        for seed in SEEDS {
            let mut args = golden_args.to_vec();
            *args
                .last_mut()
                .expect("the last golden argument is the seed") = seed;
            let (first, second) = std::thread::scope(|s| {
                let first = s.spawn(|| stdout_of(row.name, &args));
                let second = stdout_of(row.name, &args);
                (first.join().expect("first run"), second)
            });
            assert!(
                first == second,
                "{} {args:?}: two runs printed different bytes",
                row.name
            );
            if is_json {
                fireworks_obs::json::validate(&first)
                    .unwrap_or_else(|e| panic!("{} {args:?}: invalid JSON: {e}", row.name));
            }
        }
    }
}

type Knob = fn(&mut CostModel) -> &mut Nanos;

/// The `CostModel` constants `docs/CALIBRATION.md` marks **fit**: chosen
/// so that a ratio the paper reports comes out.
const FIT: [(&str, Knob); 6] = [
    ("microvm.kernel_boot", |c| &mut c.microvm.kernel_boot),
    ("microvm.snapshot_map_per_page", |c| {
        &mut c.microvm.snapshot_map_per_page
    }),
    ("microvm.resume_paused", |c| &mut c.microvm.resume_paused),
    ("container.controller_dispatch", |c| {
        &mut c.container.controller_dispatch
    }),
    ("container.warm_attach", |c| &mut c.container.warm_attach),
    ("gvisor.gofer_io", |c| &mut c.gvisor.gofer_io),
];

/// A claim that leaves its band when one fitted constant moves by 20 % is
/// calibration, not reproduction. The list of those is committed under
/// "Sensitivity" in `docs/CALIBRATION.md`; after an intentional change,
/// paste the `got` side of this test's failure there and relabel the
/// claims it names in `EXPERIMENTS.md` "Known deviations".
#[test]
#[ignore = "minutes in a debug build: run with --release -- --include-ignored"]
fn fit_constants_are_not_a_knife_edge() {
    let mut got = String::new();
    for (name, constant) in FIT {
        for factor in [0.8, 1.2] {
            let mut env = EnvConfig::default();
            let constant = constant(&mut env.costs);
            *constant = constant.scale(factor);
            let m = Measured::new(env, Scale::PAPER);
            // Fig. 10 is the one heavy row (~10 s per evaluation).
            let left: Vec<&str> = CLAIMS
                .iter()
                .filter(|c| c.source != "Fig. 10" && !c.holds.contains(&(c.measured)(&m)))
                .map(|c| c.id)
                .collect();
            let left = if left.is_empty() {
                "none".to_string()
            } else {
                left.join(" ")
            };
            got.push_str(&format!("{name} x{factor}: {left}\n"));
        }
    }
    let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/CALIBRATION.md");
    let doc = std::fs::read_to_string(doc).expect("docs/CALIBRATION.md");
    let section = doc
        .split("\n## Sensitivity")
        .nth(1)
        .expect("a Sensitivity section");
    let committed = section
        .split("```text\n")
        .nth(1)
        .and_then(|block| block.split("```").next())
        .expect("a ```text block under Sensitivity");
    assert_eq!(got, committed);
}

#[test]
fn usage_errors_exit_2_with_the_usage_text() {
    let table = experiments(&[]);
    assert!(table.status.success());
    let table = String::from_utf8(table.stdout).expect("UTF-8");
    for row in ALL {
        assert!(
            table.contains(&format!("\n  {}\n", row.usage)),
            "{}",
            row.name
        );
    }

    for (args, message, usage) in [
        (
            &["fig99"][..],
            "unknown experiment \"fig99\"",
            table.as_str(),
        ),
        (
            &["fig10", "1"],
            "fig10 takes no arguments",
            "usage: experiments fig10\n",
        ),
        (
            &["load_sweep", "x"],
            "seed must be a non-negative integer",
            "load_sweep [seed]\n",
        ),
        (
            &["load_sweep", "1", "2"],
            "unexpected argument \"2\"",
            "load_sweep [seed]\n",
        ),
        (
            &["jit_ablation", "--bogus"],
            "unknown flag \"--bogus\"",
            "[--requests N]\n",
        ),
        (
            &["scale_sweep", "--hosts"],
            "--hosts needs a non-negative integer",
            "[--budget-ms N]\n",
        ),
        (
            &["trace_dump", "1", "dir", "x"],
            "unexpected argument \"x\"",
            "[seed] [outdir]\n",
        ),
    ] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(
            stderr.starts_with(&format!("error: {message}")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.ends_with(usage), "{args:?}: {stderr}");
    }
}
