//! JIT-warmup ablation: does it matter *when* the post-JIT snapshot is
//! taken?
//!
//! The paper's install phase runs the function once before snapshotting
//! so the snapshot carries compiled code. This ablation sharpens that
//! claim at the inline-cache level: two snapshots of the same function,
//! one taken **before** any warm-up (cold ICs, empty code cache) and one
//! taken **after** a short warm-up that exercises both request shapes
//! (polymorphic ICs, code resident). N restored clones then serve the
//! same seeded request stream, and the restore side shows:
//!
//! - **re-warm cost**: the before-warm clones recompile (`compiles > 0`)
//!   and miss their ICs on first touches;
//! - **restore-time deopts**: the before-warm clones first go
//!   monomorphic inside compiled code, so the stream's minority request
//!   shape triggers a real deopt; warmed clones restored with
//!   already-polymorphic ICs never deopt;
//! - **p99 delta**: the warm snapshot's tail latency is strictly better.
//!
//! Output is one JSON document on stdout that is a pure function of the
//! seed and knobs (all latencies are virtual) — the determinism check
//! runs it twice per seed and byte-diffs.
//! Usage: `experiments jit_ablation [--seed N] [--clones N] [--requests N]`.

use super::flag_args;
use fireworks_guestmem::HostMemory;
use fireworks_lang::{JitConfig, JitPolicy, NoopHost, Value};
use fireworks_microvm::{MicroVmConfig, VmManager};
use fireworks_obs::LogHistogram;
use fireworks_runtime::guest::RunOutcome;
use fireworks_runtime::RuntimeProfile;
use fireworks_sim::rng::SplitMix64;
use fireworks_sim::{Clock, CostModel, Nanos};
use std::rc::Rc;

/// The serverless function under test. `handle`'s property reads are
/// inline-cache sites; `mk` produces two map shapes (1 in 4 requests
/// carry a `trace` key), so a warmed IC is polymorphic while a cold one
/// goes monomorphic on whatever shape arrives first.
const SRC: &str = "
    @jit fn handle(req) {
        let t = 0;
        for (let i = 0; i < req.iters; i = i + 1) {
            t = t + req.a * i + req.b;
        }
        return t;
    }
    fn mk(k) {
        if (k % 4 == 0) {
            return { a: k, b: 7, iters: 120, trace: 1 };
        }
        return { a: k, b: 7, iters: 120 };
    }
    fn installer(n) {
        for (let k = 0; k < n; k = k + 1) { handle(mk(k)); }
        fireworks_snapshot();
        return 0;
    }";

/// Warm-up calls the after-warm variant runs before its snapshot.
const WARMUP_CALLS: i64 = 32;

struct Args {
    seed: u64,
    clones: u64,
    requests: u64,
}

pub const USAGE: &str = "jit_ablation [--seed N] [--clones N] [--requests N]";

fn parse_args(args: &[String]) -> Args {
    let [seed, clones, requests] = flag_args(args, ["--seed", "--clones", "--requests"], USAGE);
    Args {
        seed: seed.unwrap_or(42),
        clones: clones.unwrap_or(8).max(1),
        requests: requests.unwrap_or(32).max(1),
    }
}

/// Per-variant aggregate over all clones and requests.
struct VariantReport {
    name: &'static str,
    latency: LogHistogram,
    restore_deopts: u64,
    ic_hits: u64,
    ic_misses: u64,
    rewarm_compiles: u64,
    /// Virtual time from a clone's first request until its last request
    /// that still paid compile or deopt work, summed over clones.
    rewarm_time: Nanos,
    /// Code-cache occupancy carried by the snapshot itself.
    snapshot_code_bytes: u64,
}

/// One deterministic request payload drawn from the stream RNG.
fn payload(rng: &mut SplitMix64) -> Value {
    let a = rng.next_range(1, 1000) as i64;
    let b = rng.next_range(1, 100) as i64;
    let iters = rng.next_range(80, 160) as i64;
    let mut entries = vec![
        ("a".to_string(), Value::Int(a)),
        ("b".to_string(), Value::Int(b)),
        ("iters".to_string(), Value::Int(iters)),
    ];
    // Minority shape: same 1-in-4 mix the installer warm-up saw.
    if rng.next_below(4) == 0 {
        entries.push(("trace".to_string(), Value::Int(1)));
    }
    Value::map(entries)
}

fn run_variant(name: &'static str, warmup_calls: i64, args: &Args) -> VariantReport {
    // Install phase: boot a VM, run the installer to its snapshot point.
    let clock = Clock::new();
    let host = HostMemory::new(clock.clone(), 16 << 30, 60);
    let mut mgr = VmManager::new(clock, Rc::new(CostModel::default()), host);
    let mut vm = mgr.create(MicroVmConfig::default());
    mgr.boot(&mut vm).expect("boots");
    mgr.launch_runtime(
        &mut vm,
        RuntimeProfile::node(),
        SRC,
        JitConfig::default().with_policy(Some(JitPolicy::AnnotatedEager)),
    )
    .expect("launches");
    let clock = mgr.clock().clone();
    {
        let rt = vm.runtime_mut().expect("runtime");
        rt.start("installer", vec![Value::Int(warmup_calls)])
            .expect("starts");
        let RunOutcome::SnapshotPoint = rt.run(&clock, &mut NoopHost).expect("runs") else {
            panic!("installer must reach the snapshot point");
        };
    }
    let snapshot_code_bytes = vm
        .runtime()
        .map(|rt| rt.vm().code_cache_used_bytes())
        .unwrap_or(0);
    let snap = mgr.snapshot(&mut vm);

    let mut report = VariantReport {
        name,
        latency: LogHistogram::new(),
        restore_deopts: 0,
        ic_hits: 0,
        ic_misses: 0,
        rewarm_compiles: 0,
        rewarm_time: Nanos::ZERO,
        snapshot_code_bytes,
    };

    // Invoke phase: restored clones serve the seeded request stream.
    for c in 0..args.clones {
        let mut clone = mgr.restore(&snap).expect("restores");
        let clock = mgr.clock().clone();
        let rt = clone.runtime_mut().expect("runtime restored");
        // Finish the suspended installer (it returns right after the
        // snapshot point); its stats are install-side, not request-side.
        loop {
            match rt.run(&clock, &mut NoopHost).expect("resumes") {
                RunOutcome::Done(_) => break,
                RunOutcome::SnapshotPoint => continue,
            }
        }
        // Same stream seed per variant: both variants face identical
        // request sequences.
        let mut rng = SplitMix64::new(args.seed ^ (c.wrapping_mul(0x9E37_79B9)));
        let mut clone_rewarm = Nanos::ZERO;
        for _ in 0..args.requests {
            let before = clock.now();
            let result = rt
                .invoke(&clock, "handle", vec![payload(&mut rng)], &mut NoopHost)
                .expect("request runs");
            let latency = clock.now() - before;
            report.latency.observe(latency.as_nanos());
            report.restore_deopts += result.stats.deopts;
            report.ic_hits += result.stats.ic_hits;
            report.ic_misses += result.stats.ic_misses;
            report.rewarm_compiles += result.stats.compiles;
            clone_rewarm += latency;
            if result.stats.compiles == 0 && result.stats.deopts == 0 {
                // Steady state reached; the accumulated time up to (and
                // including) the last warming request is re-warm cost.
                clone_rewarm -= latency;
                break;
            }
        }
        report.rewarm_time += clone_rewarm;
        // Steady-state remainder: requests past the warming prefix.
        let served = report.latency.count();
        let target = (c + 1) * args.requests;
        for _ in served..target {
            let before = clock.now();
            let result = rt
                .invoke(&clock, "handle", vec![payload(&mut rng)], &mut NoopHost)
                .expect("request runs");
            report.latency.observe((clock.now() - before).as_nanos());
            report.restore_deopts += result.stats.deopts;
            report.ic_hits += result.stats.ic_hits;
            report.ic_misses += result.stats.ic_misses;
            report.rewarm_compiles += result.stats.compiles;
        }
    }
    report
}

fn variant_json(r: &VariantReport) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"name\": \"{}\",\n",
            "      \"p50_ns\": {},\n",
            "      \"p99_ns\": {},\n",
            "      \"mean_ns\": {},\n",
            "      \"requests\": {},\n",
            "      \"restore_deopts\": {},\n",
            "      \"ic_hits\": {},\n",
            "      \"ic_misses\": {},\n",
            "      \"rewarm_compiles\": {},\n",
            "      \"rewarm_time_ns\": {},\n",
            "      \"snapshot_code_bytes\": {}\n",
            "    }}"
        ),
        r.name,
        r.latency.quantile(50.0),
        r.latency.quantile(99.0),
        r.latency.mean(),
        r.latency.count(),
        r.restore_deopts,
        r.ic_hits,
        r.ic_misses,
        r.rewarm_compiles,
        r.rewarm_time.as_nanos(),
        r.snapshot_code_bytes,
    )
}

pub fn run(args: &[String]) -> Result<u64, String> {
    let args = parse_args(args);
    let before = run_variant("snapshot_before_warmup", 0, &args);
    let after = run_variant("snapshot_after_warmup", WARMUP_CALLS, &args);

    // The claims this ablation exists to check. A regression here means
    // the post-JIT snapshot stopped carrying its warm-up.
    assert!(after.snapshot_code_bytes > 0, "warm snapshot carries code");
    assert_eq!(before.snapshot_code_bytes, 0, "cold snapshot carries none");
    assert!(
        after.rewarm_compiles == 0,
        "warmed clones must not recompile, saw {}",
        after.rewarm_compiles
    );
    assert!(
        before.rewarm_compiles > 0 && before.ic_misses > after.ic_misses,
        "cold clones must visibly re-warm"
    );
    assert!(
        before.restore_deopts > 0,
        "cold clones mono-cache then deopt on the minority shape"
    );
    assert_eq!(after.restore_deopts, 0, "warm poly ICs never deopt");
    let (p99_before, p99_after) = (before.latency.quantile(99.0), after.latency.quantile(99.0));
    assert!(
        p99_after < p99_before,
        "after-warm p99 {p99_after} must beat before-warm p99 {p99_before}"
    );

    println!("{{");
    println!("  \"bench\": \"jit_ablation\",");
    println!("  \"seed\": {},", args.seed);
    println!("  \"clones\": {},", args.clones);
    println!("  \"requests_per_clone\": {},", args.requests);
    println!("  \"warmup_calls\": {WARMUP_CALLS},");
    println!("  \"variants\": [");
    println!("{},", variant_json(&before));
    println!("{}", variant_json(&after));
    println!("  ],");
    println!("  \"p99_delta_ns\": {},", p99_before - p99_after);
    // Fixed-point ratio (×1000) keeps the output free of float formatting.
    println!(
        "  \"p99_speedup_milli\": {}",
        p99_before * 1000 / p99_after.max(1)
    );
    println!("}}");
    Ok(0)
}
