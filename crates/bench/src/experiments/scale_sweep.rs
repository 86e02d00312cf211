//! Planet-scale simulator throughput sweep: the Azure-shaped trace
//! (Zipf popularity over thousands of tenants, diurnal envelopes,
//! correlated bursts, log-normal durations) driven through a
//! cost-model cluster at 64–256 hosts and ≥1M virtual invocations.
//!
//! Two outputs, deliberately separated:
//!
//! - **stdout**: one JSON document that is a pure function of the
//!   seed and knobs — routing quality, latency quantiles, start mix,
//!   and the deterministic `events_processed` denominator. The
//!   determinism check runs the sweep twice per seed and byte-diffs this.
//! - **stderr**: one JSON line per point with wall-clock milliseconds
//!   and simulator events/sec — real-machine throughput, excluded from
//!   stdout so determinism survives noisy hardware.
//!
//! Usage: `experiments scale_sweep [--hosts N] [--invocations N]
//! [--seed N] [--budget-ms N]`. With `--hosts` the sweep collapses to that single
//! width (CI smoke: `--hosts 16 --invocations 100000`); `--budget-ms`
//! asserts the whole run's wall clock stays under the budget.

use super::flag_args;
use crate::scale::{run_scale_point, ScalePoint, ScaleReport};

/// Default swept widths.
const HOSTS: [usize; 3] = [64, 128, 256];
/// Default trace size per point.
const INVOCATIONS: u64 = 1_000_000;

pub const USAGE: &str = "scale_sweep [--hosts N] [--invocations N] [--seed N] [--budget-ms N]";

pub fn run(args: &[String]) -> Result<u64, String> {
    let [hosts, invocations, seed, budget_ms] = flag_args(
        args,
        ["--hosts", "--invocations", "--seed", "--budget-ms"],
        USAGE,
    );
    let invocations = invocations.unwrap_or(INVOCATIONS);
    let seed = seed.unwrap_or(42);
    let widths: Vec<usize> = match hosts {
        Some(h) => vec![h as usize],
        None => HOSTS.to_vec(),
    };

    let sweep_clock = std::time::Instant::now();
    let mut reports: Vec<ScaleReport> = Vec::new();
    for hosts in widths {
        let point = ScalePoint::new(hosts, invocations, seed);
        let wall = std::time::Instant::now();
        let report = run_scale_point(&point);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        // Wall-clock throughput is machine-dependent: stderr only.
        eprintln!(
            "{{\"hosts\": {}, \"events\": {}, \"wall_ms\": {:.1}, \"events_per_sec\": {:.0}}}",
            report.hosts,
            report.events_processed,
            wall_ms,
            report.events_processed as f64 / (wall_ms / 1e3).max(1e-9),
        );
        assert_eq!(report.failed, 0, "the sweep is fault-free by design");
        assert_eq!(
            report.completed, report.requests,
            "no request may be dropped"
        );
        assert!(
            report.warm_starts > report.cold_starts,
            "locality routing must make snapshot restores dominate \
             ({} warm vs {} cold on {} hosts)",
            report.warm_starts,
            report.cold_starts,
            report.hosts
        );
        reports.push(report);
    }
    let total_wall_ms = sweep_clock.elapsed().as_secs_f64() * 1e3;

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"seed\": {seed},\n  \"invocations\": {invocations},\n"
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"hosts\": {}, \"requests\": {}, \"functions\": {}, \"completed\": {}, \
             \"p50_start_ns\": {}, \"p99_start_ns\": {}, \"p50_sojourn_ns\": {}, \
             \"p99_sojourn_ns\": {}, \"locality_hits\": {}, \"rebalances\": {}, \
             \"cold_starts\": {}, \"warm_starts\": {}, \"events_processed\": {}, \
             \"makespan_ns\": {}, \"fingerprint\": {}}}{}\n",
            r.hosts,
            r.requests,
            r.functions,
            r.completed,
            r.p50_start.as_nanos(),
            r.p99_start.as_nanos(),
            r.p50_sojourn.as_nanos(),
            r.p99_sojourn.as_nanos(),
            r.locality_hits,
            r.rebalances,
            r.cold_starts,
            r.warm_starts,
            r.events_processed,
            r.makespan.as_nanos(),
            r.fingerprint,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    fireworks_obs::json::validate(&out).expect("scale_sweep emits valid JSON");
    print!("{out}");

    if let Some(budget) = budget_ms {
        assert!(
            total_wall_ms <= budget as f64,
            "scale_sweep blew its wall-clock budget: {total_wall_ms:.0}ms > {budget}ms"
        );
    }
    Ok(reports.iter().map(|r| r.events_processed).sum())
}
