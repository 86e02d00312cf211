//! Shape claims from the paper's evaluation, asserted as tests.
//!
//! Absolute numbers depend on the testbed; what must reproduce is *who
//! wins, by roughly what factor*. The claims, their bands and how each is
//! measured live in one table, `fireworks_bench::claims::CLAIMS`; every
//! test here evaluates some of its ids through the figure rows' own
//! `measure` functions, at a scale a debug build finishes in seconds
//! (`Scale::LIGHT`: fewer `faas-fact` reps, a 4 GiB density host). The
//! full table at the figures' scale is `experiments claims`, pinned by
//! `tests/golden/sweeps/claims.txt`.

use fireworks::prelude::EnvConfig;
use fireworks_bench::claims::{assert_hold, Measured};
use fireworks_bench::Scale;

fn hold(ids: &[&str]) {
    assert_hold(&Measured::new(EnvConfig::default(), Scale::LIGHT), ids);
}

/// §5.2.1(1): Fireworks start-up is on the order of 100× faster than a
/// microVM cold start and a small multiple faster than warm starts.
#[test]
fn startup_ratios_match_fig6_shape() {
    hold(&["fig6.cold-startup", "fig6.warm-startup"]);
}

/// §5.2.1(1): for Node.js compute code the exec gap is modest.
#[test]
fn node_exec_gap_is_modest() {
    hold(&["fig6.exec-vs-cold", "fig6.exec-vs-warm"]);
}

/// §5.2.2(1): for Python the post-JIT effect on execution is an order of
/// magnitude, and the invocation itself compiles nothing.
#[test]
fn python_exec_speedup_is_an_order_of_magnitude() {
    hold(&["fig7.exec-fact", "fig7.post-jit-compiles"]);
}

/// §5.2.2(3): I/O-bound behaviour is runtime-independent.
#[test]
fn io_bound_latency_is_runtime_independent() {
    hold(&["fig7.io-python-vs-node"]);
}

/// §5.2.1(2): on the disk benchmark, I/O time across sandboxes orders as
/// overlayfs (container) < virtio (microVM) < gVisor.
#[test]
fn disk_io_sandbox_ordering_matches_paper() {
    hold(&["fig6.disk-virtio-vs-overlayfs", "fig6.disk-gofer-vs-virtio"]);
}

/// §5.1: post-JIT snapshot creation takes a fraction of a second.
#[test]
fn snapshot_creation_time_matches_section_5_1() {
    hold(&[
        "s51.write-node-min",
        "s51.write-node-max",
        "s51.write-python-min",
        "s51.write-python-max",
    ]);
}

/// §5.4: Fireworks consolidates substantially more microVMs than
/// Firecracker before the host starts swapping.
#[test]
fn memory_density_beats_firecracker() {
    hold(&["fig10.consolidation"]);
}

/// §5.5.1: factor analysis ordering — adding an OS-level snapshot helps,
/// adding the post-JIT snapshot helps more.
#[test]
fn factor_analysis_ordering_holds() {
    hold(&["fig11.os-python-fact", "fig11.jit-python-fact"]);
}

/// Table 1: isolation levels across the implemented platforms.
#[test]
fn isolation_levels_match_table_1() {
    hold(&["table1.isolation"]);
}

/// §5.3: only OpenWhisk and Fireworks can process chains of functions.
#[test]
fn chain_support_matches_paper() {
    hold(&["s53.chains"]);
}

/// §6: invoking with argument types that differ from the JIT-warmed
/// types de-optimises, still answers correctly, and still beats a cold
/// baseline (the paper's worst case).
#[test]
fn deopt_worst_case_is_correct_and_still_wins() {
    hold(&["s6.deopt-fires", "s6.deopt-correct", "s6.deopt-speedup"]);
}
