//! Golden lock on what one invocation reports: for every platform's cold
//! and warm path, and for the Fireworks recovery corners, the
//! start-up / exec / others triple, `total()`, the start kind, the
//! per-label span totals the tests and benches query, and the `fault:*`
//! events with their instants — compared byte-for-byte with
//! `tests/golden/invocations.txt`.
//!
//! The golden was generated while every platform still recorded a flat
//! per-invocation span list beside the `obs` recorder (only the two
//! helpers that read a label total and the fault events have changed
//! since), and is not re-blessed by refactors of how spans are recorded
//! or folded. To
//! regenerate after an *intentional* behaviour change:
//! `BLESS=1 cargo test --test invocation_golden`.

use std::fmt::Write as _;

use fireworks::core::{ChunkMesh, ConcurrentPlatform, SnapshotStorePolicy};
use fireworks::obs::Event;
use fireworks::prelude::*;

/// Every label some test, bench or example asks an invocation for.
const LABELS: [&str; 8] = [
    "exec",
    "guest_io",
    "paging",
    "snapshot_rebuild",
    "recovery_backoff",
    "controller",
    "container_create",
    "fault:snapshot_read",
];

/// Summed duration of the invocation's spans labelled `label`.
fn label_total(inv: &Invocation, rec: &Recorder, label: &str) -> Nanos {
    inv.total_for(rec, label)
}

/// The invocation's `fault:*` events as `(label, instant)`.
fn faults(inv: &Invocation, rec: &Recorder) -> Vec<(String, Nanos)> {
    rec.subtree(inv.span.expect("real platforms record a root span"))
        .into_iter()
        .filter_map(|event| match event {
            Event::Instant(i) if i.name.starts_with("fault:") => Some((i.name, i.at)),
            _ => None,
        })
        .collect()
}

fn dump(
    out: &mut String,
    scenario: &str,
    rec: &Recorder,
    result: &Result<Invocation, PlatformError>,
) {
    let inv = match result {
        Ok(inv) => inv,
        Err(e) => {
            writeln!(out, "{scenario} err {e}").expect("write");
            return;
        }
    };
    write!(
        out,
        "{scenario} ok {:?} start={:?} startup={} exec={} other={} total={} |",
        inv.value,
        inv.start,
        inv.breakdown.startup.as_nanos(),
        inv.breakdown.exec.as_nanos(),
        inv.breakdown.other.as_nanos(),
        inv.total().as_nanos(),
    )
    .expect("write");
    for label in LABELS {
        write!(out, " {label}={}", label_total(inv, rec, label).as_nanos()).expect("write");
    }
    write!(out, " | faults").expect("write");
    for (label, at) in faults(inv, rec) {
        write!(out, " {label}@{}", at.as_nanos()).expect("write");
    }
    out.push('\n');
}

fn request(bench: Bench, runtime: RuntimeKind, mode: StartMode) -> InvokeRequest {
    InvokeRequest::new(fid(&bench.spec(runtime).name), bench.request_params()).with_mode(mode)
}

/// Cold then warm on one platform, for a compute and an I/O benchmark.
fn cold_warm<P: Platform>(out: &mut String, scenario: &str, make: impl Fn(PlatformEnv) -> P) {
    for bench in [Bench::Fact, Bench::DiskIo] {
        let env = PlatformEnv::default_env();
        let mut p = make(env.clone());
        p.install(&bench.spec(RuntimeKind::NodeLike))
            .expect("install");
        for (mode, tag) in [(StartMode::Cold, "cold"), (StartMode::Warm, "warm")] {
            // Fireworks keeps no warm pool: its "warm" row is a second
            // snapshot restore.
            let mode = if p.name() == "fireworks" {
                StartMode::Auto
            } else {
                mode
            };
            let result = p.invoke(&request(bench, RuntimeKind::NodeLike, mode));
            dump(
                out,
                &format!(
                    "{scenario}/{}/{tag}",
                    bench.spec(RuntimeKind::NodeLike).name
                ),
                env.obs.recorder(),
                &result,
            );
        }
    }
}

/// `count` Fireworks invocations of `faas-fact` under `plan` and `config`.
fn fireworks_run(
    out: &mut String,
    scenario: &str,
    plan: FaultPlan,
    config: PlatformConfig,
    count: usize,
) {
    let env = PlatformEnv::with_fault_plan(plan);
    let mut p = FireworksPlatform::with_config(env.clone(), config);
    p.install(&Bench::Fact.spec(RuntimeKind::NodeLike))
        .expect("install");
    for i in 0..count {
        let result = p.invoke(&request(
            Bench::Fact,
            RuntimeKind::NodeLike,
            StartMode::Auto,
        ));
        dump(out, &format!("{scenario}/{i}"), env.obs.recorder(), &result);
    }
}

/// Host 1 of a two-host dedup mesh serves a function only host 0 built;
/// `plan0` arms host 0's injector (the donor's).
fn mesh_miss(out: &mut String, scenario: &str, plan0: FaultPlan) {
    let dedup = || {
        PlatformConfig::builder()
            .snapshot_store(SnapshotStorePolicy::dedup())
            .build()
    };
    let clock = Clock::new();
    let obs = Obs::new(clock.clone());
    let mesh = ChunkMesh::shared();
    let env0 = PlatformEnv::with_shared(
        EnvConfig {
            fault_plan: plan0,
            ..EnvConfig::default()
        },
        clock.clone(),
        obs.clone(),
    );
    let env1 = PlatformEnv::with_shared(EnvConfig::default(), clock, obs.clone());
    let mut p0 = FireworksPlatform::with_config(env0, dedup());
    let mut p1 = FireworksPlatform::with_config(env1, dedup());
    p0.attach_mesh(mesh.clone(), HostId::from_index(0));
    p1.attach_mesh(mesh, HostId::from_index(1));
    let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
    p0.install(&spec).expect("install on host 0");
    p1.register(&spec).expect("register on host 1");
    for i in 0..2 {
        let result = p1.invoke(&request(
            Bench::Fact,
            RuntimeKind::NodeLike,
            StartMode::Auto,
        ));
        dump(out, &format!("{scenario}/{i}"), obs.recorder(), &result);
    }
}

#[test]
fn invocations_match_the_golden() {
    let mut out = String::new();

    cold_warm(&mut out, "fireworks", FireworksPlatform::new);
    cold_warm(&mut out, "firecracker", |env| {
        FirecrackerPlatform::new(env, SnapshotPolicy::None)
    });
    cold_warm(&mut out, "firecracker+snapshot", |env| {
        FirecrackerPlatform::new(env, SnapshotPolicy::OsSnapshot)
    });
    cold_warm(&mut out, "openwhisk", OpenWhiskPlatform::new);
    cold_warm(&mut out, "gvisor", GvisorPlatform::new);
    cold_warm(&mut out, "gvisor+checkpoint", |env| {
        GvisorPlatform::with_checkpoints(env, true)
    });

    mesh_miss(&mut out, "peer_delta_fetch", FaultPlan::new(0));
    mesh_miss(
        &mut out,
        "donor_crash_fallback",
        FaultPlan::new(7).probability(FaultSite::HostCrash, 1.0),
    );

    // Registered, never installed: the first invocation rebuilds.
    {
        let env = PlatformEnv::default_env();
        let mut p = FireworksPlatform::new(env.clone());
        p.register(&Bench::Fact.spec(RuntimeKind::NodeLike))
            .expect("register");
        for i in 0..2 {
            let result = p.invoke(&request(
                Bench::Fact,
                RuntimeKind::NodeLike,
                StartMode::Auto,
            ));
            dump(
                &mut out,
                &format!("register_only/{i}"),
                env.obs.recorder(),
                &result,
            );
        }
    }

    for (scenario, site) in [
        ("snapshot_corruption", FaultSite::SnapshotCorruption),
        ("snapshot_read", FaultSite::SnapshotRead),
        ("vm_crash", FaultSite::VmCrash),
    ] {
        fireworks_run(
            &mut out,
            scenario,
            FaultPlan::new(7).nth(site, 1),
            PlatformConfig::default(),
            2,
        );
    }
    fireworks_run(
        &mut out,
        "cold_storage_reap",
        FaultPlan::new(0),
        PlatformConfig::builder()
            .paging(PagingPolicy::ColdStorage { reap: true })
            .build(),
        2,
    );
    fireworks_run(
        &mut out,
        "uniform_faults",
        FaultPlan::uniform(1234, 0.03),
        PlatformConfig::default(),
        40,
    );

    let path = format!(
        "{}/tests/golden/invocations.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &out).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden exists (generate with BLESS=1)");
    for (i, (actual, want)) in out.lines().zip(golden.lines()).enumerate() {
        assert_eq!(actual, want, "tests/golden/invocations.txt line {}", i + 1);
    }
    assert_eq!(out.lines().count(), golden.lines().count(), "line count");
}
