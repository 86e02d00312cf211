//! Calibrated language-runtime profiles.

use fireworks_lang::{ExecStats, JitPolicy};
use fireworks_sim::{Clock, Nanos};

/// Which real-world runtime a profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Node.js on V8 (auto tier-up, lazy execution state).
    NodeLike,
    /// CPython, optionally with Numba annotation-driven JIT.
    PythonLike,
}

impl RuntimeKind {
    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::NodeLike => "nodejs",
            RuntimeKind::PythonLike => "python",
        }
    }
}

/// Cost and memory model of one language runtime.
///
/// Time constants are calibrated so the cross-platform ratios of the
/// paper's Figs. 6/7/11 emerge: the Python interpreter is ~5× slower per
/// op than Node's, JITted code is ~5× (Node) and ~20× (Python/Numba)
/// faster than the respective interpreters, and Numba compilation is much
/// more expensive than V8 tier-up.
#[derive(Debug, Clone)]
pub struct RuntimeProfile {
    /// Which runtime this models.
    pub kind: RuntimeKind,
    /// Launching the runtime process (interpreter boot, stdlib init).
    pub launch_time: Nanos,
    /// Fixed part of loading the serverless function into the runtime.
    pub app_load_base: Nanos,
    /// Per-bytecode-op cost of parsing/compiling the function at load.
    pub app_load_per_op: Nanos,
    /// Virtual time per op retired in the interpreter tier.
    pub interp_op: Nanos,
    /// Virtual time per op retired in the quickened (baseline compiled)
    /// tier — what organically warmed code runs at.
    pub quick_op: Nanos,
    /// Virtual time per op retired in the optimized (top) tier — what
    /// forced post-JIT code runs at.
    pub jit_op: Nanos,
    /// Virtual time per bytecode op fed to the JIT compiler.
    pub compile_per_op: Nanos,
    /// Fixed cost of one deoptimisation (frame reconstruction).
    pub deopt_cost: Nanos,
    /// Cost of one inline-cache miss on a property access (shape lookup,
    /// cache update, slow-path dictionary probe). Hits are already folded
    /// into the per-op tier costs; only misses are surcharged.
    pub ic_miss_cost: Nanos,
    /// Per host-call dispatch overhead inside the runtime (marshalling).
    pub host_call_dispatch: Nanos,
    /// The tier-up policy the runtime uses out of the box.
    pub default_policy: JitPolicy,

    // ---- memory model ----------------------------------------------------
    /// Resident bytes of the runtime right after launch (binary, stdlib,
    /// initial heap).
    pub base_image_bytes: u64,
    /// Resident bytes per loaded bytecode op (code objects, ASTs).
    pub code_bytes_per_op: u64,
    /// Machine-code bytes emitted per bytecode op compiled.
    pub jit_code_bytes_per_op: u64,
    /// How many copies of each JITted function end up resident. 1 for
    /// V8; more for Numba, which duplicates functions per module under
    /// LLVM MCJIT (paper §5.5.2, citation 35).
    pub jit_code_duplication: u32,
    /// Bytes of execution state dirtied by every invocation regardless of
    /// workload (argument buffers, scratch allocations, GC nursery).
    pub exec_state_bytes: u64,
    /// Bytes of lazily allocated first-run state: feedback vectors, lazily
    /// compiled bytecode, inline caches. Allocated the first time the
    /// function executes in a runtime instance — so a *post-JIT* snapshot
    /// carries it (shared), while an OS-level snapshot leaves each clone
    /// to allocate it privately (the V8 "lazy allocation" effect behind
    /// the paper's Fig. 12 Node.js result).
    pub first_run_state_bytes: u64,
    /// GC churn: bytes of heap arena rewritten per million guest ops
    /// retired. Long-running executions dirty progressively more memory,
    /// which bounds snapshot sharing in the paper's Fig. 10 sweep.
    pub gc_churn_bytes_per_mops: u64,
    /// Framework (request-handling) ops executed once, interpreted, the
    /// first time this runtime instance serves a request: HTTP stack
    /// initialisation, route setup, lazy module loads. A post-JIT snapshot
    /// carries this warm-up; OS-level snapshots and cold boots pay it —
    /// the effect behind the paper's Fig. 11 I/O-benchmark bars ("JIT
    /// compilation was triggered near the end of function execution").
    pub framework_cold_ops: u64,
    /// Framework ops executed on *every* request (request parsing,
    /// response serialisation).
    pub framework_ops: u64,
}

impl RuntimeProfile {
    /// The Node.js/V8 profile.
    pub fn node() -> Self {
        RuntimeProfile {
            kind: RuntimeKind::NodeLike,
            launch_time: Nanos::from_millis(820),
            app_load_base: Nanos::from_millis(90),
            app_load_per_op: Nanos::from_micros(14),
            interp_op: Nanos::from_nanos(42),
            // Warm code that tiered up organically sits ~25% above the
            // top tier (paper §5.2.1: Fireworks exec ~25% faster than
            // warm starts).
            quick_op: Nanos::from_nanos(11),
            jit_op: Nanos::from_nanos(9),
            compile_per_op: Nanos::from_micros(6),
            deopt_cost: Nanos::from_micros(35),
            // V8 megamorphic/miss path: hashed stub-cache probe then
            // dictionary lookup.
            ic_miss_cost: Nanos::from_nanos(120),
            host_call_dispatch: Nanos::from_micros(4),
            // V8 requires real heat before optimizing: a cold run spends a
            // visible fraction of a serverless-scale execution in the
            // interpreter (the paper's ~38% cold / ~25% warm exec gap).
            default_policy: JitPolicy::HotSpot {
                call_threshold: 150,
                loop_threshold: 120_000,
            },
            base_image_bytes: 56 << 20,
            code_bytes_per_op: 160,
            jit_code_bytes_per_op: 72,
            jit_code_duplication: 1,
            // V8's lazy allocation keeps the per-invocation dirty state
            // small ("A lighter V8", paper §5.5.2).
            exec_state_bytes: 3 << 20,
            first_run_state_bytes: 22 << 20,
            gc_churn_bytes_per_mops: 2 << 20,
            framework_cold_ops: 300_000,
            framework_ops: 100_000,
        }
    }

    /// The profile for a [`RuntimeKind`].
    pub fn for_kind(kind: RuntimeKind) -> Self {
        match kind {
            RuntimeKind::NodeLike => RuntimeProfile::node(),
            RuntimeKind::PythonLike => RuntimeProfile::python(),
        }
    }

    /// The CPython profile (no JIT by default).
    pub fn python() -> Self {
        RuntimeProfile {
            kind: RuntimeKind::PythonLike,
            launch_time: Nanos::from_millis(340),
            app_load_base: Nanos::from_millis(60),
            app_load_per_op: Nanos::from_micros(10),
            interp_op: Nanos::from_nanos(210),
            // CPython has no baseline JIT; the quick tier only exists for
            // Numba-compiled code on its way to nopython mode.
            quick_op: Nanos::from_nanos(24),
            jit_op: Nanos::from_nanos(10),
            // Numba/LLVM compilation is far more expensive than V8
            // quickening.
            compile_per_op: Nanos::from_micros(240),
            deopt_cost: Nanos::from_micros(60),
            // Every CPython attribute miss is a full dict probe chain
            // (instance, type, MRO) — far pricier than V8's stub cache.
            ic_miss_cost: Nanos::from_nanos(300),
            host_call_dispatch: Nanos::from_micros(6),
            default_policy: JitPolicy::Off,
            base_image_bytes: 38 << 20,
            code_bytes_per_op: 120,
            jit_code_bytes_per_op: 200,
            // LLVM MCJIT module duplication (paper §5.5.2).
            jit_code_duplication: 5,
            exec_state_bytes: 11 << 20,
            first_run_state_bytes: 6 << 20,
            gc_churn_bytes_per_mops: 4 << 20,
            framework_cold_ops: 150_000,
            framework_ops: 60_000,
        }
    }

    /// Converts execution counters into virtual time and charges it on
    /// `clock`, returning the total charged.
    pub fn charge(&self, clock: &Clock, stats: &ExecStats) -> Nanos {
        let mut total = Nanos::ZERO;
        total += self.interp_op * stats.interp_ops;
        total += self.quick_op * (stats.jit_ops - stats.opt_ops);
        total += self.jit_op * stats.opt_ops;
        total += self.compile_per_op * stats.compile_ops;
        total += self.deopt_cost * stats.deopts;
        total += self.ic_miss_cost * stats.ic_misses;
        total += self.host_call_dispatch * stats.host_calls;
        clock.advance(total);
        total
    }

    /// Virtual time to load a program of `ops` bytecode ops into the
    /// runtime (parse + bytecode compile + module init).
    pub fn app_load_time(&self, ops: usize) -> Nanos {
        self.app_load_base + self.app_load_per_op * (ops as u64)
    }

    /// Per-request framework overhead. `warm` is whether this runtime
    /// instance has served a request before (or inherited that state from
    /// a post-JIT snapshot). The steady path runs JIT-compiled on
    /// tier-up-capable runtimes and interpreted on CPython.
    pub fn request_overhead(&self, warm: bool) -> Nanos {
        let steady_rate = match self.kind {
            RuntimeKind::NodeLike if warm => self.jit_op,
            _ => self.interp_op,
        };
        let mut t = steady_rate * self.framework_ops;
        if !warm {
            t += self.interp_op * self.framework_cold_ops;
        }
        t
    }

    /// Resident JIT-code bytes for `compiled_ops` quickened ops, including
    /// the duplication factor.
    pub fn jit_code_bytes(&self, compiled_ops: usize) -> u64 {
        self.jit_code_bytes_per_op * compiled_ops as u64 * u64::from(self.jit_code_duplication)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn python_interpreter_is_much_slower_than_node() {
        let node = RuntimeProfile::node();
        let py = RuntimeProfile::python();
        let ratio = py.interp_op.as_nanos() as f64 / node.interp_op.as_nanos() as f64;
        assert!(ratio > 3.0, "CPython/V8 interpreter gap, got {ratio}");
    }

    #[test]
    fn jit_speedup_ratios_match_paper_shape() {
        let node = RuntimeProfile::node();
        let py = RuntimeProfile::python();
        // Node JIT ≈ 4–6× its interpreter; Python/Numba ≈ 15–25×.
        let node_speedup = node.interp_op.as_nanos() as f64 / node.jit_op.as_nanos() as f64;
        let py_speedup = py.interp_op.as_nanos() as f64 / py.jit_op.as_nanos() as f64;
        assert!((3.0..8.0).contains(&node_speedup), "{node_speedup}");
        assert!((12.0..30.0).contains(&py_speedup), "{py_speedup}");
    }

    #[test]
    fn numba_compile_is_much_more_expensive() {
        let node = RuntimeProfile::node();
        let py = RuntimeProfile::python();
        assert!(py.compile_per_op.as_nanos() > 10 * node.compile_per_op.as_nanos());
    }

    #[test]
    fn charge_accumulates_all_components() {
        let clock = Clock::new();
        let p = RuntimeProfile::node();
        let stats = ExecStats {
            interp_ops: 1000,
            jit_ops: 5000,
            opt_ops: 2000,
            compiles: 2,
            compile_ops: 300,
            deopts: 1,
            calls: 10,
            host_calls: 4,
            builtin_calls: 7,
            ic_hits: 90,
            ic_misses: 12,
            code_evictions: 1,
        };
        let t = p.charge(&clock, &stats);
        assert_eq!(clock.now(), t);
        let expected = p.interp_op * 1000
            + p.quick_op * 3000
            + p.jit_op * 2000
            + p.compile_per_op * 300
            + p.deopt_cost * 1
            + p.ic_miss_cost * 12
            + p.host_call_dispatch * 4;
        assert_eq!(t, expected);
    }

    #[test]
    fn python_duplicates_jit_code() {
        let py = RuntimeProfile::python();
        let node = RuntimeProfile::node();
        // Same compiled size → much larger resident JIT code on Python.
        assert!(py.jit_code_bytes(1000) > 5 * node.jit_code_bytes(1000));
    }

    #[test]
    fn default_policies_match_runtimes() {
        assert!(matches!(
            RuntimeProfile::node().default_policy,
            JitPolicy::HotSpot { .. }
        ));
        assert_eq!(RuntimeProfile::python().default_policy, JitPolicy::Off);
    }
}
