//! Shape assertions for the beyond-the-paper experiments (motivation
//! trace, load sweep), so the bench binaries cannot silently rot.

use fireworks::prelude::*;
use fireworks::workloads::faasdom::Bench;
use fireworks::workloads::trace::{generate, unpopular_fraction, TraceConfig};

/// §2.2 motivation in miniature: on a Zipf trace with a keep-alive pool,
/// tail functions see far worse average start-up on OpenWhisk than head
/// functions, while Fireworks is flat.
#[test]
fn warm_pools_fail_the_unpopular_tail() {
    let cfg = TraceConfig {
        functions: 8,
        horizon: Nanos::from_secs(15 * 60),
        total_events: 120,
        alpha: 1.2,
        seed: 3,
    };
    let trace = generate(&cfg);
    let bench = Bench::NetLatency;

    let env = PlatformEnv::default_env();
    let mut ow = OpenWhiskPlatform::with_config(
        env.clone(),
        PlatformConfig::builder()
            .keep_alive(Some(Nanos::from_secs(60)))
            .build(),
    );
    let mut specs = Vec::new();
    for i in 0..cfg.functions {
        let mut spec = bench.spec(RuntimeKind::NodeLike);
        spec.name = format!("fn-{i}");
        ow.install(&spec).expect("install");
        specs.push(spec);
    }
    let mut startup = vec![Nanos::ZERO; cfg.functions];
    let mut count = vec![0u64; cfg.functions];
    for e in &trace {
        if env.clock.now() < e.at {
            env.clock.advance(e.at - env.clock.now());
        }
        let inv = ow
            .invoke(&InvokeRequest::new(
                fid(&specs[e.function].name),
                Value::map([]),
            ))
            .expect("invoke");
        startup[e.function] += inv.breakdown.startup;
        count[e.function] += 1;
    }
    let head_avg = startup[0] / count[0].max(1);
    let tail_idx = (0..cfg.functions)
        .rev()
        .find(|i| count[*i] > 0)
        .expect("some tail function was invoked");
    let tail_avg = startup[tail_idx] / count[tail_idx];
    assert!(
        tail_avg.as_nanos() > 3 * head_avg.as_nanos(),
        "tail avg {tail_avg} should dwarf head avg {head_avg}"
    );
    let (cold, warm) = ow.start_counts();
    assert!(cold > 0 && warm > 0, "mix of cold and warm starts");
}

/// The Shahrad-style skew: most functions fall below once-a-minute.
#[test]
fn zipf_traces_have_an_unpopular_majority() {
    let cfg = TraceConfig {
        functions: 100,
        total_events: 1_500,
        ..TraceConfig::default()
    };
    assert!(unpopular_fraction(&cfg) > 0.5);
}

/// The REAP paging ablation shape: cold storage hurts every invocation;
/// REAP recovers from the second one on.
#[test]
fn reap_prefetch_shape_holds() {
    let spec = Bench::NetLatency.spec(RuntimeKind::NodeLike);
    let mut totals = Vec::new();
    for policy in [
        PagingPolicy::WarmPageCache,
        PagingPolicy::ColdStorage { reap: false },
        PagingPolicy::ColdStorage { reap: true },
    ] {
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder().paging(policy).build(),
        );
        p.install(&spec).expect("install");
        let first = p
            .invoke(&InvokeRequest::new(fid(&spec.name), Value::map([])))
            .expect("1st");
        let second = p
            .invoke(&InvokeRequest::new(fid(&spec.name), Value::map([])))
            .expect("2nd");
        totals.push((first.total(), second.total()));
    }
    let (warm1, warm2) = totals[0];
    let (cold1, cold2) = totals[1];
    let (reap1, reap2) = totals[2];
    assert_eq!(warm1, warm2);
    assert_eq!(cold1, cold2, "no learning without REAP");
    assert_eq!(reap1, cold1, "recording pass pays full faults");
    assert!(reap2 < cold2 / 2, "prefetch recovers: {reap2} vs {cold2}");
    assert!(warm2 < reap2, "page cache still beats prefetch");
}
