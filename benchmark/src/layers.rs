//! Per-layer probes: each times calls into one layer's public functions
//! from the harness, inside a span named after the metric it produces.
//!
//! Fixtures come from the workload's own probe function: it is installed
//! on a private single-host `FireworksPlatform`, and its cached post-JIT
//! snapshot feeds the `guestmem`/`microvm`/`store` probes. Iteration
//! counts are fixed (no auto-scaling), so two commits time the same work.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use fireworks::annotator::{annotate, AnnotationConfig};
use fireworks::core::fireworks::{GUEST_IP, GUEST_MAC, GUEST_TAP};
use fireworks::core::host::{GuestHost, NetMode};
use fireworks::core::{fid, FireworksPlatform, FunctionId, PlatformConfig};
use fireworks::guestmem::{SnapshotFile, PAGE_SIZE};
use fireworks::lang::{compile, JitConfig, JitPolicy, NoopHost, Outcome, Value, Vm};
use fireworks::microvm::{MicroVm, MicroVmConfig, VmFullSnapshot, VmManager};
use fireworks::netsim::Ip;
use fireworks::obs::{cat, LogHistogram, Obs};
use fireworks::prelude::{FunctionSpec, InvokeRequest, Platform, PlatformEnv};
use fireworks::runtime::guest::RunOutcome;
use fireworks::runtime::RuntimeProfile;
use fireworks::sandbox::{IoPath, IoPathKind};
use fireworks::sim::engine::EventQueue;
use fireworks::sim::rng::SplitMix64;
use fireworks::sim::{Clock, Nanos};
use fireworks::store::ChunkStore;
use fireworks::workloads::arrivals::poisson_schedule;

use crate::oracle;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{int_args, trace_scale};

/// Timed batches per probe; the reported value is their median.
const BATCHES: usize = 5;
/// Chunk granularity of the `store` probes, as `cluster_churn` uses.
const CHUNK_PAGES: usize = 16;
/// Pages dirtied by the copy-on-write probe.
const COW_PAGES: usize = 512;
/// Direct invokes of the probe function, each followed by its replay:
/// p99 keeps ten samples beyond it.
const INVOKES: usize = 1_000;
/// Standing depth of the event-queue probe.
const QUEUE_DEPTH: usize = 1_000_000;

/// Probe results by metric name, plus the per-call wall samples of the
/// direct-invoke probe.
pub struct LayerReport {
    pub values: BTreeMap<&'static str, f64>,
    pub invoke_wall_ns: Vec<u64>,
}

/// The tracer the probes record into and the metric values they produced.
struct Probes<'a> {
    t: &'a mut Tracer,
    values: BTreeMap<&'static str, f64>,
}

impl Probes<'_> {
    /// Times `op` inside a span named `metric`: the median nanoseconds
    /// per call over [`BATCHES`] batches of `iters` calls, divided by
    /// `per` (pages per call, or 1e3 for microseconds), is the metric's
    /// value. Each call gets a fresh input from `input`, built before the
    /// batch's clock starts; outputs are dropped after it stops, so
    /// neither fixture construction nor teardown is charged to `op`.
    fn bench<I, O>(
        &mut self,
        metric: &'static str,
        iters: usize,
        per: f64,
        mut input: impl FnMut() -> I,
        mut op: impl FnMut(I) -> O,
    ) {
        let ns_per_call = self.t.span(metric, |_| {
            let per_call: Vec<f64> = (0..BATCHES)
                .map(|_| {
                    let inputs: Vec<I> = (0..iters).map(|_| input()).collect();
                    let mut outputs: Vec<O> = Vec::with_capacity(iters);
                    let t0 = Instant::now();
                    for i in inputs {
                        outputs.push(op(black_box(i)));
                    }
                    let ns = t0.elapsed().as_nanos() as f64;
                    black_box(&outputs);
                    ns / iters as f64
                })
                .collect();
            median(&per_call)
        });
        self.values.insert(metric, ns_per_call / per);
    }

    /// [`Probes::bench`] for an operation that needs no per-call input.
    fn bench_op<O>(
        &mut self,
        metric: &'static str,
        iters: usize,
        per: f64,
        mut op: impl FnMut() -> O,
    ) {
        self.bench(metric, iters, per, || (), |()| op())
    }
}

/// Runs `source`'s `main(args)` on a fresh guest VM under `policy`;
/// returns the result and the ops retired.
fn run_guest(
    program: &Rc<fireworks::lang::Program>,
    policy: JitPolicy,
    args: &Value,
) -> (Value, u64) {
    let mut vm = Vm::with_policy(program.clone(), policy);
    vm.start("main", vec![args.deep_clone()])
        .expect("guest has a main");
    match vm.run(&mut NoopHost).expect("guest runs") {
        Outcome::Done(v) => (v, vm.stats().total_ops()),
        other => panic!("guest did not finish: {other:?}"),
    }
}

/// Creates and boots a microVM.
fn boot(mgr: &mut VmManager) -> MicroVm {
    let mut vm = mgr.create(MicroVmConfig::default());
    mgr.boot(&mut vm).expect("fault-free boot");
    vm
}

/// The probe function installed on a private platform, with the handles
/// the probes share.
struct Fixture {
    env: PlatformEnv,
    platform: FireworksPlatform,
    mgr: VmManager,
    spec: FunctionSpec,
    function: FunctionId,
    args: Value,
    snapshot: Rc<VmFullSnapshot>,
}

impl Fixture {
    fn new(spec: FunctionSpec, args: Value) -> Self {
        let env = PlatformEnv::default_env();
        let mut platform = FireworksPlatform::with_config(env.clone(), PlatformConfig::default());
        platform.install(&spec).expect("probe function installs");
        let function = fid(&spec.name);
        let snapshot = platform
            .cached_snapshot(function)
            .expect("install caches the snapshot");
        // A manager wired like the platform's own.
        let mut mgr = VmManager::new(env.clock.clone(), env.costs.clone(), env.host_mem.clone());
        mgr.set_fault_injector(env.injector.clone());
        mgr.set_obs(env.obs.clone());
        Fixture {
            env,
            platform,
            mgr,
            spec,
            function,
            args,
            snapshot,
        }
    }

    fn restore(&mut self) -> MicroVm {
        self.mgr
            .restore(&self.snapshot)
            .expect("fault-free restore")
    }

    /// The host a restored clone's guest code talks to, as the platform
    /// builds it per invocation.
    fn guest_host(&self) -> GuestHost {
        GuestHost::new(
            self.env.clock.clone(),
            IoPath::new(IoPathKind::VirtioBlk, self.env.costs.clone()),
            &self.env.costs.net,
            NetMode::ThroughNat,
            self.env.costs.microvm.mmds_lookup,
            self.env.bus.clone(),
            self.env.store.clone(),
            self.spec.default_params.deep_clone(),
        )
    }
}

/// Steps of a replayed invoke, in path order: parameter produce
/// (`msgbus`), namespace + NAT set-up (`netsim`), `VmManager::restore`,
/// guest run, dirty sync, PSS + sharing stats (`guestmem`), teardown.
const STEPS: usize = 7;

/// What [`replay_invoke`] measured, in nanoseconds.
struct Replay {
    /// Wall time of each direct blocking invoke.
    invoke_wall_ns: Vec<u64>,
    /// Median of each replayed step.
    steps: [f64; STEPS],
    /// Median over iterations of (direct invoke - sum of replayed steps).
    unattributed: f64,
}

/// [`INVOKES`] times: one direct `FireworksPlatform::invoke` of the probe
/// function, then the same work replayed as separate calls into each
/// layer, in the same order and against the same services, timing each
/// step. The two alternate so that cache state is that of a real invoke
/// and a slow phase of the machine hits both sides of the difference.
fn replay_invoke(fx: &mut Fixture, t: &mut Tracer) -> Replay {
    let clock = fx.env.clock.clone();
    let params_bytes = fx.args.heap_estimate() as u64;
    let request = InvokeRequest::new(fx.function, fx.args.deep_clone());
    let mut invoke_wall_ns = Vec::with_capacity(INVOKES);
    let mut unattributed = Vec::with_capacity(INVOKES);
    let mut samples: [Vec<f64>; STEPS] = Default::default();
    t.span("core.invoke_us", |_| {
        for _ in 0..INVOKES {
            let t0 = Instant::now();
            black_box(fx.platform.invoke(&request).expect("fault-free invoke"));
            let invoke_ns = t0.elapsed().as_nanos() as u64;
            invoke_wall_ns.push(invoke_ns);

            let replay_start = Instant::now();
            let mut lap = replay_start;
            let mut step = 0;
            let mut mark = || {
                let now = Instant::now();
                samples[step].push((now - lap).as_nanos() as f64);
                step += 1;
                lap = now;
            };

            fx.env
                .bus
                .borrow_mut()
                .produce("params-probe", fx.args.deep_clone(), params_bytes);
            mark();
            let ns = {
                let mut net = fx.env.net.borrow_mut();
                let ns = net.create_namespace();
                net.attach_tap(ns, GUEST_TAP, GUEST_IP, GUEST_MAC)
                    .expect("fresh namespace");
                let ext = net.alloc_external_ip(ns).expect("address pool");
                net.install_nat(ns, ext, GUEST_IP).expect("fresh namespace");
                ns
            };
            mark();
            let mut vm = fx.restore();
            vm.mmds_set("instance-id", "probe");
            mark();
            let mut host = fx.guest_host();
            host.mmds_set("instance-id", "probe");
            let rt = vm.runtime_mut().expect("post-JIT snapshot has a runtime");
            rt.charge_request_overhead(&clock);
            let result = loop {
                match rt.run(&clock, &mut host).expect("guest runs") {
                    RunOutcome::Done(result) => break result,
                    RunOutcome::SnapshotPoint => continue,
                }
            };
            black_box(&result.value);
            mark();
            vm.sync_runtime_memory();
            vm.dirty_invocation();
            mark();
            black_box((vm.sharing_stats(), vm.pss_bytes(), vm.rss_bytes()));
            mark();
            fx.env
                .net
                .borrow_mut()
                .destroy_namespace(ns)
                .expect("namespace exists");
            fx.env.bus.borrow_mut().delete_topic("params-probe");
            drop((vm, host, result));
            mark();
            unattributed.push(invoke_ns as f64 - (lap - replay_start).as_nanos() as f64);
        }
    });
    Replay {
        invoke_wall_ns,
        steps: samples.map(|s| median(&s)),
        unattributed: median(&unattributed),
    }
}

/// Runs every probe. `seed` drives the generator probes only.
pub fn run(spec: FunctionSpec, args: Value, seed: u64, t: &mut Tracer) -> LayerReport {
    let mut fx = t.span("layers.fixture", |_| Fixture::new(spec, args));
    let mut p = Probes {
        t,
        values: BTreeMap::new(),
    };
    let snapshot = fx.snapshot.clone();
    let file: &SnapshotFile = snapshot.mem();
    let pages = file.pages() as f64;
    let host_mem = fx.env.host_mem.clone();
    const US: f64 = 1e3;

    // guestmem: the snapshot file and a restored address space.
    p.bench_op("guestmem.snapshot.verify_ns_per_page", 8, pages, || {
        file.verify()
    });
    p.bench_op("guestmem.snapshot.restore_ns_per_page", 8, pages, || {
        file.restore(&host_mem)
    });
    p.bench(
        "guestmem.space.drop_ns_per_page",
        8,
        pages,
        || file.restore(&host_mem),
        drop,
    );
    let clone = file.restore(&host_mem);
    p.bench_op("guestmem.snapshot.capture_ns_per_page", 4, pages, || {
        SnapshotFile::capture(&clone, Vec::new())
    });
    p.bench_op("guestmem.space.pss_ns_per_page", 8, pages, || {
        clone.pss_bytes()
    });
    drop(clone);
    p.bench_op("guestmem.snapshot.manifest_ns_per_page", 4, pages, || {
        file.manifest(CHUNK_PAGES)
    });
    let resident: Vec<u64> = file
        .frames()
        .iter()
        .take(COW_PAGES)
        .map(|(page, _)| (*page * PAGE_SIZE) as u64)
        .collect();
    p.bench(
        "guestmem.space.cow_fault_ns_per_page",
        4,
        resident.len() as f64,
        || file.restore(&host_mem),
        |mut space| {
            for addr in &resident {
                space.touch_dirty(*addr, 1);
            }
            space
        },
    );

    // store: chunk ingest into an empty store, and the residency probe
    // a router makes against a store that holds everything.
    p.bench(
        "store.chunk.ingest_ns_per_page",
        4,
        pages,
        || ChunkStore::new(host_mem.clone()),
        |mut store| {
            let (manifest, frames) = store.ingest_snapshot(file, CHUNK_PAGES);
            (store, manifest, frames)
        },
    );
    let mut full_store = ChunkStore::new(host_mem.clone());
    let (manifest, _) = full_store.ingest_snapshot(file, CHUNK_PAGES);
    p.bench_op(
        "store.chunk.missing_chunks_ns_per_chunk",
        16,
        manifest.chunks.len() as f64,
        || full_store.missing_chunks(&manifest),
    );
    let delta_bytes = manifest.total_bytes() / 8;
    drop(full_store);

    // microvm: the install-side pipeline (the restore side is replayed
    // with the invoke path below).
    let mut restored: Vec<MicroVm> = (0..BATCHES * 2).map(|_| fx.restore()).collect();
    let mut mgr = VmManager::new(
        fx.env.clock.clone(),
        fx.env.costs.clone(),
        fx.env.host_mem.clone(),
    );
    p.bench(
        "microvm.snapshot_us",
        2,
        US,
        || restored.pop().expect("one clone per call"),
        |mut vm| {
            let snap = mgr.snapshot(&mut vm);
            (vm, snap)
        },
    );
    p.bench_op("microvm.boot_us", 4, US, || boot(&mut mgr));

    // annotator, lang::compile and runtime launch: the rebuild path.
    let annotated = annotate(&fx.spec.source, &AnnotationConfig::default()).expect("annotates");
    p.bench_op("annotator.annotate_us", 64, US, || {
        annotate(&fx.spec.source, &AnnotationConfig::default())
    });
    p.bench_op("lang.compile_us", 64, US, || compile(&annotated.source));
    let install_jit = JitConfig::default().with_policy(Some(JitPolicy::AnnotatedEager));
    for (metric, profile) in [
        ("runtime.launch_us.node", RuntimeProfile::node()),
        ("runtime.launch_us.python", RuntimeProfile::python()),
    ] {
        let mut booted: Vec<MicroVm> = (0..BATCHES * 4).map(|_| boot(&mut mgr)).collect();
        p.bench(
            metric,
            4,
            US,
            || booted.pop().expect("one booted VM per call"),
            |mut vm| {
                mgr.launch_runtime(&mut vm, profile.clone(), &annotated.source, install_jit)
                    .expect("runtime launches");
                vm
            },
        );
    }
    drop(mgr);

    // lang: the dispatch loop per tier on the three guests the
    // benchmark owns, with the arguments `warm_compute` uses.
    let fact_args = int_args([("n", 1_299_709), ("reps", 40)]);
    let guests: [(&str, Value, i64, [&'static str; 2]); 3] = [
        (
            oracle::FACT_SRC,
            fact_args.deep_clone(),
            oracle::fact(1_299_709, 40),
            ["lang.interp_ns_per_op.fact", "lang.jit_ns_per_op.fact"],
        ),
        (
            oracle::MATRIX_SRC,
            int_args([("size", 48), ("seed", 5)]),
            oracle::matrix(48, 5),
            ["lang.interp_ns_per_op.matrix", "lang.jit_ns_per_op.matrix"],
        ),
        (
            oracle::PROPS_SRC,
            int_args([("n", 20_000), ("k", 17), ("every", 4)]),
            oracle::props(20_000, 17, 4),
            ["lang.interp_ns_per_op.props", "lang.jit_ns_per_op.props"],
        ),
    ];
    for (source, args, expect, metrics) in guests {
        let program = Rc::new(compile(source).expect("guest compiles"));
        for (metric, policy) in metrics
            .into_iter()
            .zip([JitPolicy::Off, JitPolicy::default()])
        {
            let (value, ops) = run_guest(&program, policy, &args);
            assert_eq!(value, Value::Int(expect), "{metric}: guest != oracle");
            p.bench_op(metric, 2, ops as f64, || run_guest(&program, policy, &args));
        }
    }
    let mut warm = Vm::new(Rc::new(compile(oracle::FACT_SRC).expect("guest compiles")));
    warm.start("main", vec![fact_args])
        .expect("guest has a main");
    warm.run(&mut NoopHost).expect("guest runs");
    p.bench_op("lang.snapshot_state_us", 64, US, || warm.snapshot_state());

    // msgbus, netsim, store: the services an invocation touches.
    let bus = fx.env.bus.clone();
    let params = fx.args.deep_clone();
    let params_bytes = params.heap_estimate() as u64;
    p.bench_op("msgbus.produce_consume_ns", 2_000, 1.0, || {
        let mut bus = bus.borrow_mut();
        bus.produce("params-probe", params.deep_clone(), params_bytes);
        let got = bus.consume_latest("params-probe", params_bytes);
        bus.delete_topic("params-probe");
        got
    });
    let net = fx.env.net.clone();
    p.bench_op("netsim.ns_setup_teardown_ns", 2_000, 1.0, || {
        let mut net = net.borrow_mut();
        let ns = net.create_namespace();
        net.attach_tap(ns, GUEST_TAP, GUEST_IP, GUEST_MAC)
            .expect("fresh namespace");
        let ext = net.alloc_external_ip(ns).expect("address pool");
        net.install_nat(ns, ext, GUEST_IP).expect("fresh namespace");
        net.destroy_namespace(ns)
    });
    p.bench_op("netsim.transfer_cost_ns", 2_000, 1.0, || {
        net.borrow()
            .transfer_cost(Ip::new(10, 0, 0, 2), delta_bytes)
    });
    let store = fx.env.store.clone();
    p.bench_op("store.doc.put_get_ns", 2_000, 1.0, || {
        store
            .borrow_mut()
            .put("probe", "doc", &params, None)
            .expect("fault-free put");
        store.borrow().get("probe", "doc")
    });

    // obs: span and metric recording on a private plane.
    let obs = Obs::new(Clock::new());
    let rec = obs.recorder().clone();
    p.bench_op("obs.span.start_end_ns", 20_000, 1.0, || {
        let id = rec.start("probe", cat::INVOKE);
        rec.end(id);
    });
    let labels: &[(&'static str, &str)] = &[("function", "probe-function")];
    p.bench_op("obs.metrics.inc_by_name_ns", 20_000, 1.0, || {
        obs.metrics().inc("probe.counter", labels)
    });
    let handle = obs.metrics().counter("probe.counter", labels);
    p.bench_op("obs.metrics.inc_by_handle_ns", 20_000, 1.0, || handle.inc());
    let mut sketch = LogHistogram::new();
    let mut rng = SplitMix64::new(seed);
    p.bench_op("obs.sketch.observe_ns", 20_000, 1.0, || {
        sketch.observe(rng.next_below(1 << 30))
    });
    drop(obs);

    // sim: push + pop against a standing queue of a million events.
    let mut queue: EventQueue<u32> = EventQueue::new();
    for _ in 0..QUEUE_DEPTH {
        queue.schedule(Nanos::from_nanos(rng.next_below(1 << 40)), 0);
    }
    p.bench_op("sim.event_queue.push_pop_ns", 50_000, 1.0, || {
        let now = queue.pop().expect("standing depth").at.as_nanos();
        queue.schedule(Nanos::from_nanos(now + rng.next_below(1 << 40)), 0)
    });
    drop(queue);

    // workloads: schedule and trace generation.
    let mix = [(fx.function, fx.args.deep_clone())];
    p.bench_op("workloads.poisson.gen_ns_per_request", 1, 2_000.0, || {
        poisson_schedule(seed, 2_000, Nanos::from_millis(8), &mix)
    });
    let spec = trace_scale::trace_spec(seed);
    let generated = spec.generate().len() as f64;
    p.bench_op(
        "workloads.azure.gen_ns_per_invocation",
        1,
        generated,
        || spec.generate(),
    );

    // core: install, then direct blocking invokes of the probe function
    // alternating with the invoke path replayed one layer call at a time.
    // What the steps do not cover is `invoke_internal`'s own overhead.
    let install_spec = fx.spec.clone();
    let platform = &mut fx.platform;
    p.bench_op("core.install_us", 2, US, || platform.install(&install_spec));
    let replay = replay_invoke(&mut fx, p.t);
    let invoke_ns: Vec<f64> = replay.invoke_wall_ns.iter().map(|n| *n as f64).collect();
    let [_, _, restore, guest_run, dirty_sync, pss_sharing, teardown] = replay.steps;
    p.values.extend([
        ("core.invoke_us", median(&invoke_ns) / US),
        ("microvm.restore_us", restore / US),
        ("runtime.guest_run_us", guest_run / US),
        ("microvm.dirty_sync_us", dirty_sync / US),
        ("guestmem.space.pss_sharing_us", pss_sharing / US),
        ("microvm.teardown_us", teardown / US),
        ("core.invoke.unattributed_us", replay.unattributed / US),
    ]);

    LayerReport {
        values: p.values,
        invoke_wall_ns: replay.invoke_wall_ns,
    }
}
