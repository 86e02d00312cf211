//! The metric names, units and directions the benchmark reports —
//! `BENCHMARK.json` at the repo root lists the same, and a test holds the
//! two together.
//!
//! Clocks: every unit is **host** time (wall clock of the simulator,
//! what a user waits for) except `sim_us`, which is the **virtual**
//! clock and must repeat exactly for one seed.

/// A reported metric: name, unit, and whether higher or lower is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    // Successfully completed invocations per timed wall second.
    ("invocations_per_s", "1/s", "higher"),
    // Guest bytecode ops (compiled + interpreted) retired per timed wall
    // second: simulated instructions per host second.
    ("guest_mops_per_s", "Mops/s", "higher"),
    // VmHWM of the workload's own process.
    ("peak_rss_mib", "MiB", "lower"),
    // Fixture build per repetition: schedule or trace generation,
    // platform or cluster construction, function installs.
    ("setup_s", "s", "lower"),
];

/// Per-layer metrics, reported by every workload's traced run. Timings
/// are medians over fixed iteration counts of calls into the layer's
/// public functions; counts come from the workload's own repetition.
pub const PER_LAYER: [MetricDef; 65] = [
    ("guestmem.snapshot.verify_ns_per_page", "ns", "lower"),
    ("guestmem.snapshot.restore_ns_per_page", "ns", "lower"),
    ("guestmem.snapshot.capture_ns_per_page", "ns", "lower"),
    ("guestmem.snapshot.manifest_ns_per_page", "ns", "lower"),
    ("guestmem.space.pss_ns_per_page", "ns", "lower"),
    ("guestmem.space.pss_sharing_us", "us", "lower"),
    ("guestmem.space.cow_fault_ns_per_page", "ns", "lower"),
    ("guestmem.space.drop_ns_per_page", "ns", "lower"),
    ("guestmem.pages_per_snapshot", "count", "lower"),
    ("guestmem.cow_faults_per_invocation", "count", "lower"),
    ("microvm.restore_us", "us", "lower"),
    ("microvm.dirty_sync_us", "us", "lower"),
    ("microvm.teardown_us", "us", "lower"),
    ("microvm.boot_us", "us", "lower"),
    ("microvm.snapshot_us", "us", "lower"),
    ("runtime.launch_us.node", "us", "lower"),
    ("runtime.launch_us.python", "us", "lower"),
    ("runtime.guest_run_us", "us", "lower"),
    ("annotator.annotate_us", "us", "lower"),
    ("lang.compile_us", "us", "lower"),
    ("lang.interp_ns_per_op.fact", "ns", "lower"),
    ("lang.interp_ns_per_op.matrix", "ns", "lower"),
    ("lang.interp_ns_per_op.props", "ns", "lower"),
    ("lang.jit_ns_per_op.fact", "ns", "lower"),
    ("lang.jit_ns_per_op.matrix", "ns", "lower"),
    ("lang.jit_ns_per_op.props", "ns", "lower"),
    ("lang.snapshot_state_us", "us", "lower"),
    ("lang.jit_op_share", "ratio", "higher"),
    ("lang.ic_hit_ratio", "ratio", "higher"),
    ("lang.deopts_per_invocation", "count", "lower"),
    ("store.chunk.ingest_ns_per_page", "ns", "lower"),
    ("store.chunk.missing_chunks_ns_per_chunk", "ns", "lower"),
    ("store.chunk.dedup_ratio", "ratio", "higher"),
    ("store.doc.put_get_ns", "ns", "lower"),
    ("netsim.transfer_cost_ns", "ns", "lower"),
    ("netsim.ns_setup_teardown_ns", "ns", "lower"),
    ("msgbus.produce_consume_ns", "ns", "lower"),
    ("obs.span.start_end_ns", "ns", "lower"),
    ("obs.metrics.inc_by_name_ns", "ns", "lower"),
    ("obs.metrics.inc_by_handle_ns", "ns", "lower"),
    ("obs.sketch.observe_ns", "ns", "lower"),
    ("obs.recorder.events_per_invocation", "count", "lower"),
    ("obs.recorder.rss_kib_per_invocation", "KiB", "lower"),
    ("sim.event_queue.push_pop_ns", "ns", "lower"),
    ("core.install_us", "us", "lower"),
    ("core.invoke_us", "us", "lower"),
    ("core.invoke.unattributed_us", "us", "lower"),
    ("core.invoke_wall_p50_us", "us", "lower"),
    ("core.invoke_wall_p99_us", "us", "lower"),
    ("core.invoke_wall_samples", "count", "higher"),
    ("core.cache.rebuilds_per_invocation", "ratio", "lower"),
    ("core.delta.fetches", "count", "higher"),
    ("core.cluster.run_us_per_event", "us", "lower"),
    ("core.cluster.events_per_s", "1/s", "higher"),
    ("core.cluster.driver_overhead_ratio", "ratio", "lower"),
    ("core.cluster.locality_hit_ratio", "ratio", "higher"),
    ("workloads.azure.gen_ns_per_invocation", "ns", "lower"),
    ("workloads.poisson.gen_ns_per_request", "ns", "lower"),
    ("proc.cpu_user_s", "s", "lower"),
    ("proc.cpu_sys_s", "s", "lower"),
    ("proc.sys_share", "ratio", "lower"),
    ("proc.minor_faults", "count", "lower"),
    ("sim.start_p99_us", "sim_us", "lower"),
    ("sim.e2e_p50_us", "sim_us", "lower"),
    ("harness.trace_overhead_share", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn entry((name, unit, better): MetricDef) -> String {
        format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"")
    }

    #[test]
    fn manifest_lists_exactly_the_reported_metrics_and_workloads() {
        fireworks::obs::json::validate(MANIFEST).expect("BENCHMARK.json is valid JSON");
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                MANIFEST.contains(&entry(*def)),
                "BENCHMARK.json lacks {def:?}"
            );
        }
        for name in workloads::NAMES {
            assert!(
                MANIFEST.contains(&format!("{{\"name\": \"{name}\", \"why\": ")),
                "BENCHMARK.json lacks workload {name}"
            );
        }
        assert_eq!(
            MANIFEST.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + workloads::NAMES.len()
        );
    }

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        names.extend(workloads::NAMES);
        let legal = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(n.len() <= 64 && legal(n, "_.-"), "illegal name {n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
        for (_, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                unit.len() <= 16 && legal(unit, "_/%.-"),
                "illegal unit {unit}"
            );
            assert!(["higher", "lower"].contains(better));
        }
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "duplicate name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
