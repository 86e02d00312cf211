//! Failure injection: runaway functions, guest crashes, hostile inputs,
//! and resource pressure must be contained by the platform — errors are
//! reported, state stays consistent, and subsequent invocations work.

use fireworks::obs::Event;
use fireworks::prelude::*;
use fireworks::workloads::faasdom::Bench;

fn install<P: Platform>(p: &mut P, name: &str, src: &str) {
    p.install(&FunctionSpec::new(
        name,
        src,
        RuntimeKind::NodeLike,
        Value::map([("n".to_string(), Value::Int(5))]),
    ))
    .expect("install");
}

#[test]
fn runaway_function_is_killed_by_timeout() {
    const SPIN: &str = "fn main(params) { let i = 0; while (true) { i = i + 1; } return i; }";
    let mut p = FireworksPlatform::new(PlatformEnv::default_env());
    let spec = FunctionSpec::new(
        "spin",
        SPIN,
        RuntimeKind::NodeLike,
        // Warm-up must terminate: give install a generous default but a
        // tight invocation timeout. The warm-up loop is bounded by the
        // installer's fuel-less run... so use a function that only spins
        // on a flag in params.
        Value::map([("spin".to_string(), Value::Bool(false))]),
    );
    // A function that loops forever only when asked to.
    let spec = FunctionSpec {
        source: "fn main(params) {
            let i = 0;
            while (params[\"spin\"]) { i = i + 1; }
            return i;
        }"
        .to_string(),
        ..spec
    }
    .with_timeout(Nanos::from_millis(50));
    p.install(&spec).expect("install");

    // Benign input completes.
    let ok = p
        .invoke(&InvokeRequest::new(
            fid("spin"),
            Value::map([("spin".to_string(), Value::Bool(false))]),
        ))
        .expect("completes");
    assert_eq!(ok.value, Value::Int(0));

    // Hostile input spins forever — the timeout kills it.
    let err = p.invoke(&InvokeRequest::new(
        fid("spin"),
        Value::map([("spin".to_string(), Value::Bool(true))]),
    ));
    match err {
        Err(PlatformError::Timeout { function, ops }) => {
            assert_eq!(function, "spin");
            assert!(ops > 0);
        }
        other => panic!("expected timeout, got {other:?}"),
    }

    // The platform still serves requests afterwards.
    let again = p
        .invoke(&InvokeRequest::new(
            fid("spin"),
            Value::map([("spin".to_string(), Value::Bool(false))]),
        ))
        .expect("recovers");
    assert_eq!(again.value, Value::Int(0));
}

#[test]
fn timeout_applies_on_baselines_too() {
    let spec = FunctionSpec::new(
        "spin",
        "fn main(params) { let i = 0; while (params[\"spin\"]) { i = i + 1; } return i; }",
        RuntimeKind::NodeLike,
        Value::map([("spin".to_string(), Value::Bool(false))]),
    )
    .with_timeout(Nanos::from_millis(20));
    let hostile = Value::map([("spin".to_string(), Value::Bool(true))]);

    let mut ow = OpenWhiskPlatform::new(PlatformEnv::default_env());
    ow.install(&spec).expect("install");
    assert!(matches!(
        ow.invoke(
            &InvokeRequest::new(fid("spin"), hostile.deep_clone()).with_mode(StartMode::Cold)
        ),
        Err(PlatformError::Timeout { .. })
    ));

    let mut fc = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
    fc.install(&spec).expect("install");
    assert!(matches!(
        fc.invoke(
            &InvokeRequest::new(fid("spin"), hostile.deep_clone()).with_mode(StartMode::Cold)
        ),
        Err(PlatformError::Timeout { .. })
    ));

    let mut gv = GvisorPlatform::new(PlatformEnv::default_env());
    gv.install(&spec).expect("install");
    assert!(matches!(
        gv.invoke(
            &InvokeRequest::new(fid("spin"), hostile.deep_clone()).with_mode(StartMode::Cold)
        ),
        Err(PlatformError::Timeout { .. })
    ));
}

/// Every platform closes its `invoke` root span on error exits too: a
/// leaked open root would adopt the next invocation's spans.
#[test]
fn failed_invocations_leave_no_open_root_span() {
    fn closed(err: Result<Invocation, PlatformError>, env: &PlatformEnv) -> PlatformError {
        let rec = env.obs.recorder();
        assert!(rec.current().is_none(), "{err:?} leaked an open span");
        err.expect_err("the invocation must fail")
    }
    let n = |n: i64| Value::map([("n".to_string(), Value::Int(n))]);

    let mut ow = OpenWhiskPlatform::new(PlatformEnv::default_env());
    install(&mut ow, "f", "fn main(params) { return 1; }");
    let warm = InvokeRequest::new(fid("f"), n(1)).with_mode(StartMode::Warm);
    let err = closed(ow.invoke(&warm), ow.env());
    assert!(matches!(err, PlatformError::NoWarmSandbox(_)), "{err}");
    assert!(
        !ow.env().obs.recorder().is_empty(),
        "the attempt was recorded"
    );

    let mut gv = GvisorPlatform::new(PlatformEnv::default_env());
    let err = closed(gv.invoke(&InvokeRequest::new(fid("ghost"), n(1))), gv.env());
    assert!(matches!(err, PlatformError::UnknownFunction(_)), "{err}");

    let mut fc = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
    install(
        &mut fc,
        "div",
        "fn main(params) { return 1 / params[\"n\"]; }",
    );
    let err = closed(fc.invoke(&InvokeRequest::new(fid("div"), n(0))), fc.env());
    assert!(matches!(err, PlatformError::Lang(_)), "{err}");

    let mut fw = FireworksPlatform::new(PlatformEnv::default_env());
    let spin = FunctionSpec::new(
        "spin",
        "fn main(params) { let i = 0; while (i < params[\"n\"]) { i = i + 1; } return i; }",
        RuntimeKind::NodeLike,
        n(5),
    )
    .with_timeout(Nanos::from_millis(1));
    fw.install(&spin).expect("install");
    let err = closed(
        fw.invoke(&InvokeRequest::new(fid("spin"), n(1 << 40))),
        fw.env(),
    );
    assert!(matches!(err, PlatformError::Timeout { .. }), "{err}");
}

#[test]
fn guest_runtime_error_is_contained() {
    const CRASH: &str = "fn main(params) {
        if (params[\"boom\"]) { return 1 / 0; }
        return 42;
    }";
    let mut p = FireworksPlatform::new(PlatformEnv::default_env());
    install(&mut p, "crashy", CRASH);
    // Install's warm-up uses default params (no boom) and succeeds; a
    // hostile request divides by zero.
    let err = p.invoke(&InvokeRequest::new(
        fid("crashy"),
        Value::map([("boom".to_string(), Value::Bool(true))]),
    ));
    assert!(matches!(err, Err(PlatformError::Lang(_))), "{err:?}");
    // Next invocation gets a fresh clone and works.
    let ok = p
        .invoke(&InvokeRequest::new(
            fid("crashy"),
            Value::map([("boom".to_string(), Value::Bool(false))]),
        ))
        .expect("fresh clone works");
    assert_eq!(ok.value, Value::Int(42));
}

#[test]
fn install_fails_cleanly_on_bad_source() {
    let mut p = FireworksPlatform::new(PlatformEnv::default_env());
    let bad = FunctionSpec::new(
        "broken",
        "fn main(params { syntax error",
        RuntimeKind::NodeLike,
        Value::Null,
    );
    assert!(p.install(&bad).is_err());
    // Nothing half-registered.
    assert!(matches!(
        p.invoke(&InvokeRequest::new(fid("broken"), Value::Null)),
        Err(PlatformError::UnknownFunction(_))
    ));
}

#[test]
fn install_fails_cleanly_when_warmup_crashes() {
    // The warm-up itself divides by zero (default params trigger it), so
    // the snapshot can never be built.
    let mut p = FireworksPlatform::new(PlatformEnv::default_env());
    let bad = FunctionSpec::new(
        "warmup-crash",
        "fn main(params) { return 1 / params[\"zero\"]; }",
        RuntimeKind::NodeLike,
        Value::map([("zero".to_string(), Value::Int(0))]),
    );
    assert!(p.install(&bad).is_err());
}

#[test]
fn memory_pressure_reports_swapping_not_a_crash() {
    // A tiny host: a handful of resident clones pushes it past the swap
    // threshold; the simulation keeps working and reports the state.
    let env = PlatformEnv::new(EnvConfig {
        ram_bytes: 512 << 20,
        costs: CostModel::default(),
        ..EnvConfig::default()
    });
    let mut p = FireworksPlatform::new(env.clone());
    let spec = Bench::NetLatency.spec(RuntimeKind::NodeLike);
    p.install(&spec).expect("install");
    let mut clones = Vec::new();
    for _ in 0..64 {
        let (_, c) = p
            .invoke_resident(fid(&spec.name), &Value::map([]))
            .expect("clone");
        clones.push(c);
        if env.host_mem.is_swapping() {
            break;
        }
    }
    assert!(
        env.host_mem.is_swapping(),
        "tiny host must hit the threshold"
    );
    // Releasing clones brings the host back under the threshold.
    for c in clones {
        p.release_clone(c);
    }
    assert!(!env.host_mem.is_swapping());
}

#[test]
fn injector_at_rate_zero_changes_nothing() {
    // An armed injector whose every probability is 0 must be a perfect
    // no-op: same results, same virtual-time costs as no injector at all.
    let run = |env: PlatformEnv| {
        let mut p = FireworksPlatform::new(env.clone());
        let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
        p.install(&spec).expect("install");
        let inv = p
            .invoke(&InvokeRequest::new(
                fid(&spec.name),
                Bench::Fact.request_params(),
            ))
            .expect("invoke");
        (inv.value.deep_clone(), inv.total(), env.clock.now())
    };
    let plain = run(PlatformEnv::default_env());
    let armed = run(PlatformEnv::with_fault_plan(FaultPlan::uniform(42, 0.0)));
    assert_eq!(plain, armed);
}

#[test]
fn same_fault_seed_gives_identical_schedule_and_recovery_trace() {
    // Determinism: two fresh runs under the same fault plan must inject
    // the same faults at the same virtual times and recover identically.
    let run = || {
        let plan = FaultPlan::uniform(1234, 0.03);
        let env = PlatformEnv::with_fault_plan(plan);
        let mut p = FireworksPlatform::new(env.clone());
        let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
        p.install(&spec).expect("install");
        let mut outcomes = Vec::new();
        let mut spans = Vec::new();
        for _ in 0..25 {
            match p.invoke(&InvokeRequest::new(
                fid(&spec.name),
                Bench::Fact.request_params(),
            )) {
                Ok(inv) => {
                    outcomes.push(format!("ok:{}", inv.value));
                    let root = inv.span.expect("recorded");
                    for event in env.obs.recorder().subtree(root) {
                        match event {
                            Event::Instant(i) if i.name.starts_with("fault:") => {
                                spans.push(format!("{}@{}", i.name, i.at));
                            }
                            Event::Span(s)
                                if s.name == "recovery_backoff" || s.name == "snapshot_rebuild" =>
                            {
                                spans.push(format!(
                                    "{}@{}+{}",
                                    s.name,
                                    s.start,
                                    s.end.expect("closed with the invocation") - s.start
                                ));
                            }
                            _ => {}
                        }
                    }
                }
                Err(e) => outcomes.push(format!("err:{e}")),
            }
        }
        let fingerprint = env.injector.borrow().schedule_fingerprint();
        let checks = env.injector.borrow().checks();
        (outcomes, spans, fingerprint, checks, env.clock.now())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "fault schedule and recovery must be deterministic");
    assert!(a.2 != 0, "the run must actually have injected faults");
}

#[test]
fn corrupted_snapshot_self_heals_end_to_end() {
    // Damage a cached snapshot page from outside (no injector): the next
    // invocation must detect the bad checksum, rebuild from source, and
    // still return the correct result; the one after restores cleanly
    // from the rebuilt snapshot.
    let mut p = FireworksPlatform::new(PlatformEnv::default_env());
    let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
    p.install(&spec).expect("install");
    let clean = p
        .invoke(&InvokeRequest::new(
            fid(&spec.name),
            Bench::Fact.request_params(),
        ))
        .expect("baseline");

    p.cached_snapshot(fid(&spec.name))
        .expect("cached")
        .mem()
        .corrupt_page(4321);

    let healed = p
        .invoke(&InvokeRequest::new(
            fid(&spec.name),
            Bench::Fact.request_params(),
        ))
        .expect("self-heals");
    assert_eq!(healed.value, clean.value, "healed run returns the answer");
    assert_eq!(healed.start, StartKind::SnapshotRestore);
    assert!(
        healed.total_for(p.env().obs.recorder(), "snapshot_rebuild") > Nanos::ZERO,
        "the rebuild must be visible in the trace"
    );
    let health = p.health(fid(&spec.name)).expect("installed");
    assert_eq!(health.quarantines, 1);

    let after = p
        .invoke(&InvokeRequest::new(
            fid(&spec.name),
            Bench::Fact.request_params(),
        ))
        .expect("restores from rebuilt snapshot");
    assert_eq!(after.start, StartKind::SnapshotRestore);
    assert_eq!(after.value, clean.value);
    assert_eq!(
        after.total_for(p.env().obs.recorder(), "snapshot_rebuild"),
        Nanos::ZERO,
        "no further rebuilds once healed"
    );
}

#[test]
fn timed_out_invocation_still_charges_its_execution() {
    let spec = FunctionSpec::new(
        "spin",
        "fn main(params) { let i = 0; while (params[\"spin\"]) { i = i + 1; } return i; }",
        RuntimeKind::NodeLike,
        Value::map([("spin".to_string(), Value::Bool(false))]),
    )
    .with_timeout(Nanos::from_millis(25));
    let env = PlatformEnv::default_env();
    let mut p = FireworksPlatform::new(env.clone());
    p.install(&spec).expect("install");
    let before = env.clock.now();
    let _ = p.invoke(&InvokeRequest::new(
        fid("spin"),
        Value::map([("spin".to_string(), Value::Bool(true))]),
    ));
    let elapsed = env.clock.now() - before;
    // The runaway execution burned (roughly) its budget of virtual time
    // before being killed.
    assert!(
        elapsed >= Nanos::from_millis(20),
        "killed run must charge time, got {elapsed}"
    );
}
