//! A language runtime instance running inside a sandbox.

use std::rc::Rc;

use fireworks_lang::compiler::TOPLEVEL;
use fireworks_lang::vm::VmSnapshot;
use fireworks_lang::{ExecStats, Host, JitConfig, LangError, Outcome, Program, Value, Vm};
use fireworks_sim::{Clock, Nanos};

use crate::profile::RuntimeProfile;

/// Result of a completed guest entry-point run.
#[derive(Debug, Clone)]
pub struct InvokeResult {
    /// The value returned by the entry function.
    pub value: Value,
    /// Counters accumulated since `start`.
    pub stats: ExecStats,
    /// Virtual execution time charged for those counters.
    pub exec_time: Nanos,
}

/// Why [`GuestRuntime::run`] returned.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The entry function finished.
    Done(InvokeResult),
    /// The program executed `fireworks_snapshot()`. The embedder should
    /// capture [`GuestRuntime::snapshot`] and then call `run` again to
    /// resume (install phase), or treat it as a no-op (already-installed
    /// code paths).
    SnapshotPoint,
}

/// A language-runtime snapshot: the deep-cloned VM state plus the profile.
///
/// This is the runtime-level half of a Fireworks post-JIT snapshot; the
/// microVM layer pairs it with a guest-memory [`fireworks_guestmem::SnapshotFile`].
#[derive(Debug, Clone)]
pub struct RuntimeSnapshot {
    profile: RuntimeProfile,
    vm: VmSnapshot,
    first_run_done: bool,
}

impl RuntimeSnapshot {
    /// Quickened ops resident in the snapshot's JIT cache.
    pub fn jit_code_ops(&self) -> usize {
        self.vm.jit_code_ops()
    }

    /// The profile the snapshot was taken under.
    pub fn profile(&self) -> &RuntimeProfile {
        &self.profile
    }
}

/// A launched language runtime executing one serverless function's code.
#[derive(Debug)]
pub struct GuestRuntime {
    profile: RuntimeProfile,
    vm: Vm,
    pending: ExecStats,
    pending_time: Nanos,
    /// Whether any user entry has completed at least one run in this
    /// runtime instance (drives first-run state allocation).
    first_run_done: bool,
    /// Whether the first run happened *in this instance* (as opposed to
    /// being inherited from a snapshot). Only locally allocated first-run
    /// state dirties private pages; inherited state is read shared.
    first_run_local: bool,
    /// Guest ops retired since this instance was created or restored
    /// (drives the GC-churn dirty set).
    ops_since_reset: u64,
}

impl GuestRuntime {
    /// Launches the runtime and loads `program` into it, charging launch
    /// and app-load time (`app_load_time` of the program's op count). The
    /// program was compiled once, at install or register, and every launch
    /// shares it. Does *not* run any code yet (the module body, if present,
    /// runs on first `start`/`run` of `__toplevel__` or is folded into the
    /// entry by the caller).
    ///
    /// `jit` carries the full JIT shape for this instance. A `None`
    /// policy inside it means "use the profile's default tier-up policy";
    /// the code-cache byte cost per compiled op is always taken from the
    /// profile (it models the runtime's code generator, not the
    /// platform's preference).
    pub fn launch(
        clock: &Clock,
        profile: RuntimeProfile,
        program: Rc<Program>,
        jit: JitConfig,
    ) -> Self {
        clock.advance(profile.launch_time);
        clock.advance(profile.app_load_time(program.total_ops()));
        let jit = jit
            .with_policy(Some(jit.policy.unwrap_or(profile.default_policy)))
            .with_code_bytes_per_op(profile.jit_code_bytes_per_op);
        GuestRuntime {
            profile,
            vm: Vm::with_config(program, jit),
            pending: ExecStats::default(),
            pending_time: Nanos::ZERO,
            first_run_done: false,
            first_run_local: false,
            ops_since_reset: 0,
        }
    }

    /// Rebuilds a runtime from a snapshot. Charges nothing — the restore
    /// cost is the microVM layer's business.
    pub fn from_snapshot(snapshot: &RuntimeSnapshot) -> Self {
        GuestRuntime {
            profile: snapshot.profile.clone(),
            vm: Vm::from_snapshot(&snapshot.vm),
            pending: ExecStats::default(),
            pending_time: Nanos::ZERO,
            first_run_done: snapshot.first_run_done,
            first_run_local: false,
            ops_since_reset: 0,
        }
    }

    /// Captures the runtime state (deep clone; JIT code shared immutably).
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            profile: self.profile.clone(),
            vm: self.vm.snapshot_state(),
            first_run_done: self.first_run_done,
        }
    }

    /// Whether any entry has completed a run in this instance.
    pub fn first_run_done(&self) -> bool {
        self.first_run_done
    }

    /// Whether first-run state was allocated in this instance (rather
    /// than inherited, already shared, from a snapshot).
    pub fn first_run_local(&self) -> bool {
        self.first_run_local
    }

    /// Marks the runtime as having served requests (first-run state
    /// allocated here). The Fireworks installer calls this right before
    /// snapshotting: the JIT warm-up has exercised the full request path,
    /// so clones restored from the snapshot start warm.
    pub fn mark_warmed(&mut self) {
        if !self.first_run_done {
            self.first_run_done = true;
            self.first_run_local = true;
        }
    }

    /// Charges the per-request framework overhead (request-handling path
    /// through the guest's HTTP stack) and returns it. Call once per
    /// served request, *before* running the entry.
    pub fn charge_request_overhead(&mut self, clock: &Clock) -> Nanos {
        let t = self.profile.request_overhead(self.first_run_done);
        clock.advance(t);
        // Serving a request warms the framework path even if the entry
        // later errors.
        if !self.first_run_done {
            self.first_run_done = true;
            self.first_run_local = true;
        }
        t
    }

    /// Guest ops retired since this instance was created or restored.
    pub fn ops_since_reset(&self) -> u64 {
        self.ops_since_reset
    }

    /// The runtime's cost/memory profile.
    pub fn profile(&self) -> &RuntimeProfile {
        &self.profile
    }

    /// The loaded program.
    pub fn program(&self) -> &Rc<Program> {
        self.vm.program()
    }

    /// The underlying VM (for assertions in tests and memory modelling).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Whether the VM is suspended mid-run (resumable with [`GuestRuntime::run`]).
    pub fn is_suspended(&self) -> bool {
        self.vm.is_suspended()
    }

    /// Runs the module body (top-level statements), if the program has
    /// one, charging its execution. Must be called before entry functions
    /// that rely on globals.
    pub fn run_toplevel(&mut self, clock: &Clock, host: &mut dyn Host) -> Result<(), LangError> {
        if self.program().function(TOPLEVEL).is_none() {
            return Ok(());
        }
        self.start(TOPLEVEL, Vec::new())?;
        loop {
            match self.run(clock, host)? {
                RunOutcome::Done(_) => return Ok(()),
                RunOutcome::SnapshotPoint => continue,
            }
        }
    }

    /// Prepares the VM to run `entry(args...)`.
    pub fn start(&mut self, entry: &str, args: Vec<Value>) -> Result<(), LangError> {
        self.pending = ExecStats::default();
        self.pending_time = Nanos::ZERO;
        self.vm.start(entry, args)
    }

    /// Sets the invocation timeout: execution aborts with
    /// [`LangError::Timeout`] once the op budget implied by `timeout`
    /// under this profile's JIT-tier op cost is exhausted.
    pub fn set_invocation_timeout(&mut self, timeout: Option<Nanos>) {
        let fuel = timeout.map(|t| {
            let per_op = self.profile.jit_op.as_nanos().max(1);
            t.as_nanos() / per_op
        });
        self.vm.set_fuel(fuel);
    }

    /// Runs until the entry returns or a snapshot point is hit, charging
    /// virtual time for the work done in this slice.
    pub fn run(&mut self, clock: &Clock, host: &mut dyn Host) -> Result<RunOutcome, LangError> {
        // Charge whatever work happened even when the run errored (a
        // timed-out or crashed invocation still consumed its time).
        let outcome = self.vm.run(host);
        let stats = self.vm.take_stats();
        let charged = self.profile.charge(clock, &stats);
        self.pending = self.pending.merge(&stats);
        self.pending_time += charged;
        self.ops_since_reset += stats.total_ops();
        // First-run state (feedback vectors, lazily compiled bytecode) is
        // allocated as soon as user code has executed substantially — in
        // particular it is live at the Fireworks snapshot point, right
        // after the JIT warm-up.
        if self.ops_since_reset > 10_000 && !self.first_run_done {
            self.first_run_done = true;
            self.first_run_local = true;
        }
        match outcome? {
            Outcome::Done(value) => {
                if !self.first_run_done {
                    self.first_run_local = true;
                }
                self.first_run_done = true;
                Ok(RunOutcome::Done(InvokeResult {
                    value,
                    stats: self.pending,
                    exec_time: self.pending_time,
                }))
            }
            Outcome::Snapshot => Ok(RunOutcome::SnapshotPoint),
        }
    }

    /// Convenience: `start` + `run` to completion, resuming through any
    /// snapshot points (treating them as no-ops).
    pub fn invoke(
        &mut self,
        clock: &Clock,
        entry: &str,
        args: Vec<Value>,
        host: &mut dyn Host,
    ) -> Result<InvokeResult, LangError> {
        self.start(entry, args)?;
        loop {
            match self.run(clock, host)? {
                RunOutcome::Done(result) => return Ok(result),
                RunOutcome::SnapshotPoint => continue,
            }
        }
    }

    /// Resident JIT-code bytes under this runtime's duplication model.
    ///
    /// Uses the VM's budgeted code-cache occupancy (which already charges
    /// `jit_code_bytes_per_op` per compiled op and reflects evictions),
    /// scaled by the runtime's duplication factor.
    pub fn jit_code_bytes(&self) -> u64 {
        self.vm.code_cache_used_bytes() * u64::from(self.profile.jit_code_duplication)
    }

    /// Rough guest-heap footprint of live values.
    pub fn heap_bytes(&self) -> u64 {
        self.vm.heap_bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_lang::{compile, JitPolicy, NoopHost};

    fn program(src: &str) -> Rc<Program> {
        Rc::new(compile(src).expect("compiles"))
    }

    const SRC: &str = "
        fn work(n) {
            let t = 0;
            for (let i = 0; i < n; i = i + 1) { t = t + i; }
            return t;
        }
        fn main(n) { return work(n); }";

    #[test]
    fn launch_charges_launch_and_load_time() {
        let clock = Clock::new();
        let rt = GuestRuntime::launch(
            &clock,
            RuntimeProfile::node(),
            program(SRC),
            JitConfig::default(),
        );
        let expected_min = rt.profile().launch_time + rt.profile().app_load_base;
        assert!(clock.now() >= expected_min);
    }

    #[test]
    fn invoke_returns_value_and_charges_time() {
        let clock = Clock::new();
        let mut rt = GuestRuntime::launch(
            &clock,
            RuntimeProfile::node(),
            program(SRC),
            JitConfig::default(),
        );
        let before = clock.now();
        let r = rt
            .invoke(&clock, "main", vec![Value::Int(1000)], &mut NoopHost)
            .expect("runs");
        assert_eq!(r.value, Value::Int(499_500));
        assert!(r.exec_time > Nanos::ZERO);
        assert_eq!(clock.now() - before, r.exec_time);
    }

    #[test]
    fn python_profile_is_slower_than_node_on_the_same_work() {
        let clock_n = Clock::new();
        let mut node = GuestRuntime::launch(
            &clock_n,
            RuntimeProfile::node(),
            program(SRC),
            JitConfig::default(),
        );
        let rn = node
            .invoke(&clock_n, "main", vec![Value::Int(20_000)], &mut NoopHost)
            .expect("runs");

        let clock_p = Clock::new();
        let mut py = GuestRuntime::launch(
            &clock_p,
            RuntimeProfile::python(),
            program(SRC),
            JitConfig::default(),
        );
        let rp = py
            .invoke(&clock_p, "main", vec![Value::Int(20_000)], &mut NoopHost)
            .expect("runs");

        assert!(
            rp.exec_time.as_nanos() > 3 * rn.exec_time.as_nanos(),
            "python {} vs node {}",
            rp.exec_time,
            rn.exec_time
        );
    }

    #[test]
    fn warm_second_invocation_is_faster_for_node() {
        // First call pays interp + compile; second runs mostly JITted.
        let clock = Clock::new();
        let mut rt = GuestRuntime::launch(
            &clock,
            RuntimeProfile::node(),
            program(SRC),
            JitConfig::default(),
        );
        let cold = rt
            .invoke(&clock, "main", vec![Value::Int(400_000)], &mut NoopHost)
            .expect("runs");
        let warm = rt
            .invoke(&clock, "main", vec![Value::Int(400_000)], &mut NoopHost)
            .expect("runs");
        assert!(
            warm.exec_time.as_nanos() < cold.exec_time.as_nanos(),
            "warm {} !< cold {}",
            warm.exec_time,
            cold.exec_time
        );
        assert_eq!(warm.stats.compiles, 0);
    }

    #[test]
    fn snapshot_point_suspends_and_snapshot_resumes_elsewhere() {
        let clock = Clock::new();
        let src = "
            @jit fn work(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
            fn installer(n) {
                work(n);
                fireworks_snapshot();
                return work(n);
            }";
        let mut rt = GuestRuntime::launch(
            &clock,
            RuntimeProfile::python(),
            program(src),
            JitConfig::default().with_policy(Some(JitPolicy::AnnotatedEager)),
        );
        rt.start("installer", vec![Value::Int(5_000)])
            .expect("starts");
        let RunOutcome::SnapshotPoint = rt.run(&clock, &mut NoopHost).expect("runs") else {
            panic!("expected snapshot point");
        };
        let snap = rt.snapshot();
        assert!(snap.jit_code_ops() > 0, "post-JIT snapshot carries code");

        // A restored clone resumes after the snapshot point, fully JITted,
        // with zero compile cost.
        let mut clone = GuestRuntime::from_snapshot(&snap);
        let RunOutcome::Done(r) = clone.run(&clock, &mut NoopHost).expect("resumes") else {
            panic!("expected completion");
        };
        assert_eq!(r.value, Value::Int(12_497_500));
        assert_eq!(r.stats.compiles, 0);
        assert!(r.stats.jit_ops > r.stats.interp_ops);
    }

    #[test]
    fn code_cache_budget_reaches_the_vm() {
        // A starved code cache through the runtime layer: no compiled
        // code is ever resident.
        let clock = Clock::new();
        let src = "@jit fn hot(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
                   fn main(n) { return hot(n); }";
        let mut rt = GuestRuntime::launch(
            &clock,
            RuntimeProfile::node(),
            program(src),
            JitConfig::default()
                .with_policy(Some(JitPolicy::AnnotatedEager))
                .with_code_cache_capacity_bytes(8),
        );
        rt.invoke(&clock, "main", vec![Value::Int(10_000)], &mut NoopHost)
            .expect("runs");
        assert_eq!(rt.jit_code_bytes(), 0);
        assert_eq!(rt.vm().stats().compiles, 0);
    }

    #[test]
    fn python_jit_code_is_bigger_due_to_duplication() {
        let clock = Clock::new();
        let src = "@jit fn hot(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
                   fn main(n) { return hot(n); }";
        let mut node = GuestRuntime::launch(
            &clock,
            RuntimeProfile::node(),
            program(src),
            JitConfig::default().with_policy(Some(JitPolicy::AnnotatedEager)),
        );
        let mut py = GuestRuntime::launch(
            &clock,
            RuntimeProfile::python(),
            program(src),
            JitConfig::default().with_policy(Some(JitPolicy::AnnotatedEager)),
        );
        node.invoke(&clock, "main", vec![Value::Int(10)], &mut NoopHost)
            .expect("runs");
        py.invoke(&clock, "main", vec![Value::Int(10)], &mut NoopHost)
            .expect("runs");
        assert!(py.jit_code_bytes() > 5 * node.jit_code_bytes());
    }
}
