//! Allocation budget: heap traffic per unit of work, counted by this test
//! binary's own global allocator and pinned as upper bounds.
//!
//! Heap traffic is deterministic (the simulation runs on virtual time),
//! so unlike wall-clock numbers these counts do not drift between runs or
//! machines: each test checks that two runs in one process count the
//! same. Each bound sits just above the value measured when it was set,
//! which is written beside it; debug and release builds pin their own
//! numbers, since debug-only checks allocate. A change that raises a
//! count raises its bound and says so.
//!
//! Counts are per thread (the test harness runs tests on parallel
//! threads), and "retained" is the growth of this thread's live heap
//! across the measured work, after its outputs are dropped: what the
//! platform keeps (mostly the span log).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fireworks::core::api::ConcurrentPlatform;
use fireworks::core::cluster::{Cluster, ClusterConfig, LocalityAffinity};
use fireworks::core::engine::EngineRequest;
use fireworks::core::HostId;
use fireworks::obs::{cat, Obs, Phase};
use fireworks::prelude::*;
use fireworks::workloads::azure::TraceSpec;

struct Counting;

thread_local! {
    static HEAP: Cell<Heap> = const { Cell::new(Heap::ZERO) };
}

fn count(f: impl FnOnce(&mut Heap)) {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = HEAP.try_with(|cell| {
        let mut heap = cell.get();
        f(&mut heap);
        cell.set(heap);
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(|h| h.add(1, layout.size() as i64, layout.size() as i64));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(|h| h.add(1, layout.size() as i64, layout.size() as i64));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(|h| h.add(1, new_size as i64, new_size as i64 - layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(|h| h.add(0, 0, -(layout.size() as i64)));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap traffic of some work: allocation calls (a `realloc` counts as
/// one), bytes they asked for, and the change in live bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Heap {
    allocs: i64,
    bytes: i64,
    retained: i64,
}

impl Heap {
    const ZERO: Heap = Heap {
        allocs: 0,
        bytes: 0,
        retained: 0,
    };

    fn add(&mut self, allocs: i64, bytes: i64, live: i64) {
        self.allocs += allocs;
        self.bytes += bytes;
        self.retained += live;
    }

    fn per(self, units: usize) -> Heap {
        let n = units as i64;
        Heap {
            allocs: self.allocs / n,
            bytes: self.bytes / n,
            retained: self.retained / n,
        }
    }
}

/// The heap traffic of `f` on this thread, its result dropped inside.
fn measure<T>(f: impl FnOnce() -> T) -> Heap {
    let before = HEAP.with(Cell::get);
    drop(f());
    let after = HEAP.with(Cell::get);
    Heap {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        retained: after.retained - before.retained,
    }
}

/// Picks the debug or the release bound.
fn pin(debug: Heap, release: Heap) -> Heap {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

fn assert_within(what: &str, measured: Heap, bound: Heap) {
    eprintln!("{what}: {measured:?} (bound {bound:?})");
    assert!(
        measured.allocs <= bound.allocs
            && measured.bytes <= bound.bytes
            && measured.retained <= bound.retained,
        "{what}: {measured:?} exceeds its budget {bound:?}"
    );
}

const TRIVIAL_SRC: &str = "fn main(params) {\n    return params[\"x\"] + 1;\n}\n";

fn trivial(name: &str) -> FunctionSpec {
    let params = Value::map([("x".to_string(), Value::Int(0))]);
    FunctionSpec::new(name, TRIVIAL_SRC, RuntimeKind::NodeLike, params)
}

fn x(v: i64) -> Value {
    Value::map([("x".to_string(), Value::Int(v))])
}

/// Warm invokes measured per run, after as many warm-up invokes.
const WARM_INVOKES: usize = 256;

/// Heap traffic per warm `FireworksPlatform::invoke` of the trivial
/// Node guest on a fresh platform.
fn warm_invoke_heap() -> Heap {
    let mut platform = FireworksPlatform::new(PlatformEnv::default_env());
    let spec = trivial("alloc-budget-trivial");
    platform.install(&spec).expect("install");
    let function = fid(&spec.name);
    let requests: Vec<InvokeRequest> = (0..2 * WARM_INVOKES)
        .map(|i| InvokeRequest::new(function, x(i as i64)))
        .collect();
    let (warm_up, measured) = requests.split_at(WARM_INVOKES);
    let mut invoke = |reqs: &[InvokeRequest]| {
        for req in reqs {
            platform.invoke(req).expect("invoke");
        }
    };
    invoke(warm_up);
    measure(|| invoke(measured)).per(WARM_INVOKES)
}

#[test]
fn a_warm_invoke_stays_within_its_heap_budget() {
    let first = warm_invoke_heap();
    assert_eq!(first, warm_invoke_heap(), "two runs count the same");
    let bound = pin(
        // Debug, measured: 37 allocations, 5 014 bytes, 1 120 retained
        // (41 and 5 078 while `mmds_get` and `bus_consume` copied their
        // arguments into two `Vec`s each; 44 and 5 639 while the instance
        // id was also written into the microVM's MMDS; 70, 23 362 and
        // 1 120 while base pages were copied one by one).
        Heap {
            allocs: 37,
            bytes: 5_014,
            retained: 1_120,
        },
        // Release, measured: the same (before: 41, 5 078, 1 120).
        Heap {
            allocs: 37,
            bytes: 5_014,
            retained: 1_120,
        },
    );
    assert_within("per warm invoke", first, bound);
}

/// Heap traffic per warm invoke of FaaSdom's `DiskIo` guest whose loop
/// makes `ops` rounds of two host calls (`io_read`, `io_write`), after as
/// many warm-up invokes, on a fresh platform.
fn disk_io_invoke_heap(ops: i64) -> Heap {
    const INVOKES: usize = 16;
    let mut platform = FireworksPlatform::new(PlatformEnv::default_env());
    let spec = Bench::DiskIo.spec(RuntimeKind::NodeLike);
    platform.install(&spec).expect("install");
    let params = [("ops", Value::Int(ops)), ("kib", Value::Int(10))];
    let params = Value::map(params.map(|(k, v)| (k.to_string(), v)));
    let req = InvokeRequest::new(fid(&spec.name), params);
    let mut invoke = || {
        for _ in 0..INVOKES {
            platform.invoke(&req).expect("invoke");
        }
    };
    invoke();
    measure(invoke).per(INVOKES)
}

#[test]
fn a_host_call_allocates_nothing() {
    let (short, long) = (disk_io_invoke_heap(8), disk_io_invoke_heap(64));
    eprintln!("per DiskIo invoke: {short:?} at 8 rounds, {long:?} at 64");
    // Measured: equal, 44 allocations and 6 730 bytes (84 and 308
    // allocations, 7 882 and 15 050 bytes, while every host call and
    // builtin copied its arguments off the stack into two `Vec`s: four
    // allocations a round).
    assert_eq!(short, long, "a round of two host calls allocates nothing");
}

/// Heap traffic per request of a small `trace_scale`-shaped batch: an
/// Azure-shaped trace of trivial functions through `Cluster::run`
/// with request tracing on, on a fresh cluster.
fn cluster_request_heap() -> Heap {
    let spec = TraceSpec::new()
        .tenants(4)
        .functions_per_tenant(2)
        .horizon(Nanos::from_secs(60))
        .diurnal(0.6, Nanos::from_secs(60))
        .total_invocations(400)
        .seed(42);
    let trace = spec.generate();
    let mut cluster = Cluster::new(ClusterConfig::new(4, 4), |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    for f in 0..spec.functions() {
        let name = spec.function_id(f).name();
        cluster.install_home(&trivial(&name)).expect("install");
    }
    let requests: Vec<EngineRequest> = trace
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| EngineRequest::at(e.at, InvokeRequest::new(e.function, x(i as i64))))
        .collect();
    let mut router = LocalityAffinity::new();
    measure(|| cluster.run(&mut router, &requests)).per(requests.len())
}

#[test]
fn a_cluster_request_stays_within_its_heap_budget() {
    let first = cluster_request_heap();
    assert_eq!(first, cluster_request_heap(), "two runs count the same");
    let bound = pin(
        // Debug, measured: 37 allocations, 6 964 bytes, 1 649 retained
        // (41 and 7 028 while the wrapper's two host calls copied their
        // arguments; 44, 7 590 and 1 650 while the instance id was also
        // written into the microVM's MMDS; 70, 25 424 and 1 705 while
        // base pages were copied one by one).
        Heap {
            allocs: 37,
            bytes: 6_964,
            retained: 1_649,
        },
        // Release, measured: the same (before: 41, 7 028, 1 649).
        Heap {
            allocs: 37,
            bytes: 6_964,
            retained: 1_649,
        },
    );
    assert_within("per cluster request", first, bound);
}

/// Snapshot rebuilds measured per run, after one warm-up rebuild.
const REBUILDS: usize = 8;

/// Heap traffic per `build_snapshot` of the trivial Node guest: its
/// snapshot is retired from the cache, so the next invoke misses and
/// rebuilds it (boot, launch, warm-up, capture) before it runs. The
/// invoke itself is the small rest (see the warm-invoke budget).
fn rebuild_heap() -> Heap {
    let mut platform = FireworksPlatform::new(PlatformEnv::default_env());
    let spec = trivial("alloc-budget-rebuild");
    platform.install(&spec).expect("install");
    let function = fid(&spec.name);
    let requests: Vec<InvokeRequest> = (0..=REBUILDS)
        .map(|i| InvokeRequest::new(function, x(i as i64)))
        .collect();
    let mut rebuild = |req: &InvokeRequest| {
        assert!(platform.retire(function), "the snapshot was cached");
        platform.invoke(req).expect("invoke");
    };
    rebuild(&requests[0]);
    measure(|| requests[1..].iter().for_each(&mut rebuild)).per(REBUILDS)
}

#[test]
fn a_snapshot_rebuild_stays_within_its_heap_budget() {
    let first = rebuild_heap();
    assert_eq!(first, rebuild_heap(), "two runs count the same");
    let bound = pin(
        // Debug, measured: 110 allocations, 15 563 bytes, 1 964 retained
        // (247, 35 265 and 1 964 while every rebuild annotated, printed,
        // re-parsed and compiled the source; release, while base pages
        // were copied one by one: 278, 54 947 and 1 960).
        Heap {
            allocs: 112,
            bytes: 16_000,
            retained: 2_000,
        },
        // Release, measured: the same.
        Heap {
            allocs: 112,
            bytes: 16_000,
            retained: 2_000,
        },
    );
    assert_within("per snapshot rebuild", first, bound);
}

/// Registrations measured per run, after one warm-up registration.
const REGISTERS: usize = 8;

/// Heap traffic per `register` of the trivial Node guest on a Fireworks
/// platform: what `Cluster::install_home` pays on every host but the
/// function's home. The program compiled for the source is alive (there,
/// the home host's; here, the previous entry's), so a registration shares
/// it and only records the entry. The same name is registered again each
/// time, so the entry it replaces is freed and the name is interned only
/// by the warm-up.
fn register_heap() -> Heap {
    let mut platform = FireworksPlatform::new(PlatformEnv::default_env());
    let spec = trivial("alloc-budget-register");
    let mut register = || platform.register(&spec).expect("register");
    register();
    measure(|| (0..REGISTERS).for_each(|_| register())).per(REGISTERS)
}

#[test]
fn a_registration_stays_within_its_heap_budget() {
    let first = register_heap();
    assert_eq!(first, register_heap(), "two runs count the same");
    let bound = pin(
        // Debug, measured: 3 allocations, 181 bytes, 0 retained (107,
        // 8 360 and 0 while every registration compiled its own program).
        Heap {
            allocs: 4,
            bytes: 256,
            retained: 0,
        },
        // Release, measured: the same.
        Heap {
            allocs: 4,
            bytes: 256,
            retained: 0,
        },
    );
    assert_within("per registration", first, bound);
}

#[test]
fn a_literal_span_and_a_by_name_update_allocate_nothing() {
    let clock = Clock::new();
    let obs = Obs::new(clock.clone());
    let (rec, metrics) = (obs.recorder(), obs.metrics());
    let labels: &[(&'static str, &str)] = &[("function", "f"), ("host", "0")];
    let work = || {
        let root = rec.root("invoke", cat::INVOKE, None);
        let boot = rec.start_phase("boot", cat::BOOT, Phase::Startup);
        rec.scope("kernel_boot", cat::BOOT, || {
            clock.advance(Nanos::from_micros(3))
        });
        rec.instant("cache_hit", cat::CACHE);
        rec.end(boot);
        rec.record_closed(
            "exec",
            cat::EXEC,
            Phase::Exec,
            clock.now(),
            clock.now() + Nanos::from_micros(5),
        );
        metrics.inc("core.invoke.attempts", labels);
        metrics.gauge_set("engine.inflight", labels, 3);
        metrics.observe("core.invoke.latency_ns", labels, 7_000);
        let id = root.id();
        let breakdown = root.close();
        assert_eq!(rec.total_under(id, "kernel_boot"), Nanos::from_micros(3));
        breakdown
    };
    // Creates every series and the fold's scratch, and grows the log to
    // 5 × 200 = 1 000 records: room for 24 more before it next doubles.
    for _ in 0..200 {
        work();
    }
    let heap = measure(|| {
        for _ in 0..4 {
            work();
        }
    });
    assert_eq!(
        heap,
        Heap::ZERO,
        "spans with literal names and no attributes, closing them, folding the root and \
         updating existing series by name allocate nothing"
    );
}

/// By-name metric resolutions ([`fireworks::obs::Metrics::lookups`]) of
/// `WARM_INVOKES` warm invokes of the trivial Node guest, after as many
/// warm-up invokes on a fresh platform.
fn warm_invoke_lookups() -> u64 {
    let mut platform = FireworksPlatform::new(PlatformEnv::default_env());
    let spec = trivial("lookup-budget-trivial");
    platform.install(&spec).expect("install");
    let function = fid(&spec.name);
    let metrics = platform.env().obs.metrics().clone();
    let mut invoke = |n: usize| {
        for i in 0..n {
            let req = InvokeRequest::new(function, x(i as i64));
            platform.invoke(&req).expect("invoke");
        }
    };
    invoke(WARM_INVOKES);
    let before = metrics.lookups();
    invoke(WARM_INVOKES);
    metrics.lookups() - before
}

#[test]
fn a_warm_invoke_looks_no_metric_up_by_name() {
    // Measured: 0 (16 per invoke while every per-invocation series was
    // updated by name).
    assert_eq!(warm_invoke_lookups(), 0);
}

/// By-name metric resolutions of a `Cluster::run` of the first
/// `requests` requests of the `cluster_request_heap` trace, on a cluster
/// that has already served the whole trace once.
fn cluster_run_lookups(requests: usize) -> u64 {
    let spec = TraceSpec::new()
        .tenants(4)
        .functions_per_tenant(2)
        .horizon(Nanos::from_secs(60))
        .diurnal(0.6, Nanos::from_secs(60))
        .total_invocations(400)
        .seed(42);
    let trace = spec.generate();
    let mut cluster = Cluster::new(ClusterConfig::new(4, 4), |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    for f in 0..spec.functions() {
        let name = spec.function_id(f).name();
        cluster.install_home(&trivial(&name)).expect("install");
    }
    let wave = |offset: Nanos, n: usize| -> Vec<EngineRequest> {
        trace.events[..n]
            .iter()
            .enumerate()
            .map(|(i, e)| {
                EngineRequest::at(offset + e.at, InvokeRequest::new(e.function, x(i as i64)))
            })
            .collect()
    };
    let mut router = LocalityAffinity::new();
    cluster.run(&mut router, &wave(Nanos::ZERO, trace.events.len()));
    let metrics = cluster.obs().metrics().clone();
    let before = metrics.lookups();
    let offset = cluster.host_env(HostId::from_index(0)).clock.now();
    cluster.run(&mut router, &wave(offset, requests));
    metrics.lookups() - before
}

#[test]
fn a_cluster_run_looks_up_a_number_of_series_that_does_not_grow_with_its_requests() {
    let (short, long) = (cluster_run_lookups(100), cluster_run_lookups(400));
    eprintln!("lookups per cluster run: {short} of 100 requests, {long} of 400");
    // Measured: 1 each, the run's `cluster.*` totals (1 601 and 6 401,
    // 16 per request, while every per-invocation series was updated by
    // name).
    assert_eq!(short, long, "per-request updates look nothing up");
    assert!(long <= 1, "{long} lookups");
}
