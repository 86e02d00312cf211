//! The tiered Flame virtual machine.
//!
//! Cold functions run in a profiling interpreter that records per-site type
//! feedback. Depending on the [`JitPolicy`], hot or `@jit`-annotated
//! functions are *quickened*: the function's bytecode is copied 1:1 and
//! every op whose feedback is monomorphic gets a guard on that operand
//! class. A failed guard deoptimises the whole function back to generic
//! bytecode (recording the polymorphic site so re-compilation won't repeat
//! the mistake), mirroring speculative optimisation in V8 and
//! annotation-driven compilation in Numba. Every op has one implementation
//! for all tiers (`ops`, `ic`); what a tier changes is bookkeeping (`jit`).
//! Compiled code also holds fused ops, which run common runs of ops in one
//! dispatch through those implementations and retire as the ops they fuse.
//!
//! The VM is resumable: executing the `fireworks_snapshot()` host op
//! suspends it with [`Outcome::Snapshot`]; [`Vm::snapshot_state`] then
//! deep-clones the complete execution state so any number of clones can be
//! created with [`Vm::from_snapshot`], each resuming right after the
//! snapshot point.

use std::collections::HashMap;
use std::rc::Rc;

use crate::bytecode::{Chunk, Class, Op};
use crate::compiler::Program;
use crate::error::LangError;
use crate::jit::JitConfig;
use crate::tagged::TaggedValue;
use crate::value::Value;

mod builtins;
mod ic;
mod jit;
mod ops;
#[cfg(test)]
mod tests;

pub use ic::IcSummary;
use jit::{FnState, Heat, Level, Tier};

/// When to JIT-compile functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitPolicy {
    /// Never compile — a pure interpreter (the CPython profile).
    Off,
    /// Compile when a function gets hot (the V8 profile).
    HotSpot {
        /// Calls before a function is compiled.
        call_threshold: u32,
        /// Loop back-edges before a function is compiled (enables
        /// on-stack replacement at the back edge).
        loop_threshold: u32,
    },
    /// Compile `@jit`-annotated functions eagerly and nothing else (the
    /// Numba `@jit(cache=True)` profile). The first call runs in the
    /// interpreter to gather type information (the analogue of Numba's
    /// argument-type inference); compilation happens at the second call.
    AnnotatedEager,
}

impl Default for JitPolicy {
    fn default() -> Self {
        JitPolicy::HotSpot {
            call_threshold: 8,
            loop_threshold: 64,
        }
    }
}

/// Execution counters, the currency the runtime crate converts into
/// virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Ops retired in the interpreter tier.
    pub interp_ops: u64,
    /// Ops retired in a compiled tier (quickened *or* optimized).
    pub jit_ops: u64,
    /// Ops retired in the top (optimized) tier — a subset of `jit_ops`.
    pub opt_ops: u64,
    /// Functions compiled (including recompilations).
    pub compiles: u64,
    /// Total bytecode ops fed to the JIT compiler (compile-cost proxy).
    pub compile_ops: u64,
    /// Deoptimisations taken.
    pub deopts: u64,
    /// Function calls dispatched.
    pub calls: u64,
    /// Host calls dispatched (I/O, DB, bus, ...).
    pub host_calls: u64,
    /// Builtin calls dispatched.
    pub builtin_calls: u64,
    /// Inline-cache hits (property access matched a cached shape).
    pub ic_hits: u64,
    /// Inline-cache misses (first observation, shape change, or a
    /// megamorphic site — each pays the slow lookup path).
    pub ic_misses: u64,
    /// Compiled functions evicted from the code cache to fit the budget
    /// (each eviction demotes the function back to the interpreter).
    pub code_evictions: u64,
}

impl ExecStats {
    /// Total ops retired in either tier.
    pub fn total_ops(&self) -> u64 {
        self.interp_ops + self.jit_ops
    }

    /// Component-wise sum.
    pub fn merge(&self, other: &ExecStats) -> ExecStats {
        ExecStats {
            interp_ops: self.interp_ops + other.interp_ops,
            jit_ops: self.jit_ops + other.jit_ops,
            opt_ops: self.opt_ops + other.opt_ops,
            compiles: self.compiles + other.compiles,
            compile_ops: self.compile_ops + other.compile_ops,
            deopts: self.deopts + other.deopts,
            calls: self.calls + other.calls,
            host_calls: self.host_calls + other.host_calls,
            builtin_calls: self.builtin_calls + other.builtin_calls,
            ic_hits: self.ic_hits + other.ic_hits,
            ic_misses: self.ic_misses + other.ic_misses,
            code_evictions: self.code_evictions + other.code_evictions,
        }
    }
}

/// Why [`Vm::run`] returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The entry function returned this value.
    Done(Value),
    /// `fireworks_snapshot()` was executed; the VM is suspended and can be
    /// snapshotted and/or resumed with another [`Vm::run`] call.
    Snapshot,
}

/// The embedding environment of a VM.
///
/// All I/O-shaped calls in guest code (`io_read`, `db_put`,
/// `bus_consume`, `mmds_get`, `invoke`, ...) compile to host calls and are
/// served here, which is where sandboxes charge their I/O path costs.
pub trait Host {
    /// Serves `print(...)` output.
    fn print(&mut self, text: &str);

    /// Serves a named host call.
    ///
    /// `args` are the call's arguments in push order, borrowed where they
    /// lie on the VM's operand stack and valid for this call only: read
    /// them with [`TaggedValue::as_str`], [`TaggedValue::as_int`] and the
    /// other views, and call [`TaggedValue::to_value`] on one the host
    /// keeps. The VM drops them after the call returns, on success or
    /// error alike.
    fn host_call(&mut self, name: &str, args: &[TaggedValue]) -> Result<Value, LangError>;
}

/// A host that discards prints and rejects host calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHost;

impl Host for NoopHost {
    fn print(&mut self, _text: &str) {}

    fn host_call(&mut self, name: &str, _args: &[TaggedValue]) -> Result<Value, LangError> {
        Err(LangError::runtime(format!(
            "host call `{name}` not available in this environment"
        )))
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    func: usize,
    ip: usize,
    base: usize,
}

/// The op being dispatched: index `ip` of function `func`, fetched from
/// compiled code or from the interpreter's bytecode.
#[derive(Debug, Clone, Copy)]
struct Site {
    func: usize,
    ip: usize,
    compiled: bool,
}

/// One stretch of the dispatch loop: the frame it runs in and the tier its
/// ops are fetched from and retired on, held in locals until a call, a
/// return, a suspension, an error, fuel running out, or a tier change ends
/// it ([`Vm::run`]).
struct Stretch {
    /// Index of the stretch's frame in `Vm::frames`.
    frame: usize,
    func: usize,
    base: usize,
    /// The next op to fetch.
    ip: usize,
    /// The tier: `None` is the interpreter.
    level: Option<Level>,
    /// [`Vm::epoch`] when the stretch began.
    epoch: u64,
    /// Ops fetched so far (the last one unpaid if fuel ran out) and the
    /// fuel the stretch may burn.
    retired: u64,
    budget: u64,
}

/// Why a stretch ended.
enum End {
    /// The frame or the tier changed: start the next stretch.
    Next,
    /// [`Vm::run`] returns this.
    Yield(Outcome),
    /// The op at the stretch's `ip` could not be paid for.
    OutOfFuel,
}

/// A deep-cloned, immutable image of a suspended VM.
///
/// The [`Program`], chunks, and JIT code are shared by `Rc` (immutable);
/// globals and the value stack are deep clones, so restored VMs share no
/// mutable state with the original or each other.
#[derive(Debug, Clone)]
pub struct VmSnapshot {
    program: Rc<Program>,
    fn_states: Vec<FnState>,
    globals: Vec<Value>,
    stack: Vec<Value>,
    frames: Vec<Frame>,
    policy: JitPolicy,
    jit: JitConfig,
    code_bytes_used: u64,
    exec_tick: u64,
}

impl VmSnapshot {
    /// Number of compiled ops resident in the snapshot's JIT code cache.
    pub fn jit_code_ops(&self) -> usize {
        self.fn_states.iter().map(FnState::code_ops).sum()
    }

    /// Modelled code-cache occupancy captured in the snapshot, in bytes.
    pub fn code_cache_used_bytes(&self) -> u64 {
        self.code_bytes_used
    }
}

/// The Flame virtual machine.
#[derive(Debug)]
pub struct Vm {
    program: Rc<Program>,
    fn_states: Vec<FnState>,
    globals: Vec<TaggedValue>,
    stack: Vec<TaggedValue>,
    frames: Vec<Frame>,
    stats: ExecStats,
    policy: JitPolicy,
    /// Code-cache budget, IC limits, and code-size model.
    jit: JitConfig,
    /// Modelled bytes of compiled code currently resident.
    code_bytes_used: u64,
    /// Monotonic execution clock (call dispatches and back-edges), the
    /// LRU time base for code-cache eviction.
    exec_tick: u64,
    /// Bumped by every compile, eviction and deopt: a stretch of the
    /// dispatch loop that sees it move refetches its tier.
    epoch: u64,
    /// Remaining op budget; `None` is unlimited. Exhaustion aborts the
    /// run with [`LangError::Timeout`] (the platform invocation timeout).
    fuel: Option<u64>,
}

impl Vm {
    /// Creates a VM for a program with the default (HotSpot) JIT policy.
    pub fn new(program: Rc<Program>) -> Self {
        Vm::with_policy(program, JitPolicy::default())
    }

    /// Creates a VM with an explicit JIT policy and default [`JitConfig`]
    /// limits (generous code-cache budget, poly limit 4).
    pub fn with_policy(program: Rc<Program>, policy: JitPolicy) -> Self {
        Vm::with_config(program, JitConfig::default().with_policy(Some(policy)))
    }

    /// Creates a VM with a full [`JitConfig`]. A `None` policy in the
    /// config falls back to [`JitPolicy::default`] (embedders that carry
    /// a runtime profile resolve `None` to the profile's policy first).
    pub fn with_config(program: Rc<Program>, jit: JitConfig) -> Self {
        let n_funcs = program.functions.len();
        let n_globals = program.global_names.len();
        Vm {
            program,
            fn_states: (0..n_funcs).map(|_| FnState::new()).collect(),
            globals: vec![TaggedValue::null(); n_globals],
            stack: Vec::with_capacity(256),
            frames: Vec::with_capacity(16),
            stats: ExecStats::default(),
            policy: jit.policy.unwrap_or_default(),
            jit,
            code_bytes_used: 0,
            exec_tick: 0,
            epoch: 0,
            fuel: None,
        }
    }

    /// Rebuilds a VM from a snapshot. The clone resumes exactly where the
    /// snapshot was taken (right after the `fireworks_snapshot()` call),
    /// carrying the warmed JIT state: tiers, inline caches and code-cache
    /// occupancy.
    pub fn from_snapshot(snapshot: &VmSnapshot) -> Self {
        // One identity map for globals and stack, so aliasing between
        // them survives the clone.
        let mut seen = HashMap::new();
        let mut clone = |values: &[Value]| {
            let tagged = |v: &Value| TaggedValue::from_value(v.deep_clone_with(&mut seen));
            values.iter().map(tagged).collect()
        };
        Vm {
            program: snapshot.program.clone(),
            fn_states: snapshot.fn_states.clone(),
            globals: clone(&snapshot.globals),
            stack: clone(&snapshot.stack),
            frames: snapshot.frames.clone(),
            stats: ExecStats::default(),
            policy: snapshot.policy,
            jit: snapshot.jit,
            code_bytes_used: snapshot.code_bytes_used,
            exec_tick: snapshot.exec_tick,
            epoch: 0,
            fuel: None,
        }
    }

    /// Sets the op budget for subsequent execution; `None` is unlimited.
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.fuel = fuel;
    }

    /// Remaining op budget, if one is set.
    pub fn fuel(&self) -> Option<u64> {
        self.fuel
    }

    /// Captures a deep-cloned snapshot of the current execution state.
    pub fn snapshot_state(&self) -> VmSnapshot {
        // One identity map for globals and stack, so aliasing between
        // them survives both the untagging and the clone.
        let mut seen = HashMap::new();
        let mut clone = |words: &[TaggedValue]| {
            let untagged = |w: &TaggedValue| w.to_value().deep_clone_with(&mut seen);
            words.iter().map(untagged).collect()
        };
        VmSnapshot {
            program: self.program.clone(),
            fn_states: self.fn_states.clone(),
            globals: clone(&self.globals),
            stack: clone(&self.stack),
            frames: self.frames.clone(),
            policy: self.policy,
            jit: self.jit,
            code_bytes_used: self.code_bytes_used,
            exec_tick: self.exec_tick,
        }
    }

    /// The program this VM executes.
    pub fn program(&self) -> &Rc<Program> {
        &self.program
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Returns the counters and resets them.
    pub fn take_stats(&mut self) -> ExecStats {
        std::mem::take(&mut self.stats)
    }

    /// Whether the named function is currently JIT-compiled (either
    /// compiled tier).
    pub fn is_jitted(&self, name: &str) -> bool {
        self.level_of(name).is_some()
    }

    /// Whether the named function is in the top (optimized) tier.
    pub fn is_optimized(&self, name: &str) -> bool {
        self.level_of(name) == Some(Level::Opt)
    }

    fn level_of(&self, name: &str) -> Option<Level> {
        self.fn_states[self.program.function(name)?].level()
    }

    /// Total compiled ops resident in the JIT code cache.
    pub fn jit_code_ops(&self) -> usize {
        self.fn_states.iter().map(FnState::code_ops).sum()
    }

    /// Modelled code-cache occupancy in bytes (always within the
    /// configured `code_cache_capacity_bytes` budget).
    pub fn code_cache_used_bytes(&self) -> u64 {
        self.code_bytes_used
    }

    /// Reads a global by name (for tests and embedders).
    pub fn global(&self, name: &str) -> Option<Value> {
        let i = self.program.global_names.iter().position(|g| g == name)?;
        Some(self.globals[i].to_value())
    }

    /// Whether the VM has a suspended call stack (is mid-execution).
    pub fn is_suspended(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Rough heap footprint of live guest values in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.globals
            .iter()
            .chain(self.stack.iter())
            .map(|v| v.to_value().heap_estimate())
            .sum()
    }

    /// Prepares the VM to run `entry(args...)`. Fails if the function is
    /// unknown or the arity does not match.
    pub fn start(&mut self, entry: &str, args: Vec<Value>) -> Result<(), LangError> {
        assert!(
            self.frames.is_empty(),
            "start() on a VM that is already running"
        );
        let func = self
            .program
            .function(entry)
            .ok_or_else(|| LangError::runtime(format!("unknown function `{entry}`")))?;
        let argc = args.len();
        self.stack
            .extend(args.into_iter().map(TaggedValue::from_value));
        self.enter(func, argc)
    }

    /// Opens a frame of `func` over the `argc` arguments on top of the
    /// stack.
    #[inline(never)]
    fn enter(&mut self, func: usize, argc: usize) -> Result<(), LangError> {
        let base = self.stack.len() - argc;
        let chunk = self.chunk(func);
        if chunk.arity as usize != argc {
            let error = format!(
                "`{}` expects {} arguments, got {argc}",
                chunk.name, chunk.arity
            );
            self.stack.truncate(base);
            return Err(LangError::runtime(error));
        }
        let n_locals = chunk.n_locals as usize;
        self.stack.resize(base + n_locals, TaggedValue::null());
        self.heat(func, Heat::Call);
        self.frames.push(Frame { func, ip: 0, base });
        Ok(())
    }

    fn chunk(&self, func: usize) -> &Rc<Chunk> {
        &self.program.functions[func].chunk
    }

    // ---- stack helpers ---------------------------------------------------

    fn pop(&mut self) -> TaggedValue {
        self.stack.pop().expect("stack underflow is a compiler bug")
    }

    fn pop_value(&mut self) -> Value {
        self.pop().into_value()
    }

    /// Pops the top `n` stack values, in push order, into the aggregate
    /// they build.
    fn pop_values(&mut self, n: usize) -> Vec<Value> {
        let at = self.stack.len() - n;
        let top = self.stack.split_off(at);
        top.into_iter().map(TaggedValue::into_value).collect()
    }

    fn push_value(&mut self, v: Value) {
        self.stack.push(TaggedValue::from_value(v));
    }

    /// Pushes the value in stack slot `at` (a frame's local).
    #[inline]
    fn load_local(&mut self, at: usize) {
        let v = self.stack[at].clone();
        self.stack.push(v);
    }

    fn peek(&self, depth: usize) -> &TaggedValue {
        &self.stack[self.stack.len() - 1 - depth]
    }

    // ---- the dispatch loop -------------------------------------------------

    /// Runs until the entry function returns or the VM hits a snapshot
    /// point. Call [`Vm::start`] first; call `run` again after
    /// [`Outcome::Snapshot`] to resume.
    pub fn run(&mut self, host: &mut dyn Host) -> Result<Outcome, LangError> {
        assert!(
            !self.frames.is_empty(),
            "run() without start() or after completion"
        );
        loop {
            let Frame { func, ip, base } = *self.frames.last().expect("frame stack non-empty");
            // Every tier runs the same ops; a tier decides where the op is
            // fetched from and which counters it retires on.
            let chunk = self.chunk(func).clone();
            let (level, code) = match &self.fn_states[func].tier {
                Tier::Compiled(level, code) => (Some(*level), Some(code.clone())),
                Tier::Interp => (None, None),
            };
            let mut s = Stretch {
                frame: self.frames.len() - 1,
                func,
                base,
                ip,
                level,
                epoch: self.epoch,
                retired: 0,
                budget: self.fuel.unwrap_or(u64::MAX),
            };
            let ops = code.as_deref().unwrap_or(&chunk.ops);
            let end = match level {
                Some(_) => self.stretch::<true>(host, &mut s, &chunk, ops),
                None => self.stretch::<false>(host, &mut s, &chunk, ops),
            };
            self.retire(&s);
            match end? {
                End::Next => {}
                End::Yield(outcome) => return Ok(outcome),
                End::OutOfFuel => {
                    return Err(LangError::Timeout {
                        ops: self.stats.total_ops(),
                    })
                }
            }
        }
    }

    /// Books a finished stretch: its frame's next op (unless the frame
    /// returned), its ops on the tier they ran in, the fuel they burnt.
    fn retire(&mut self, s: &Stretch) {
        if let Some(frame) = self.frames.get_mut(s.frame) {
            frame.ip = s.ip;
        }
        match s.level {
            None => self.stats.interp_ops += s.retired,
            Some(level) => {
                self.stats.jit_ops += s.retired;
                if level == Level::Opt {
                    self.stats.opt_ops += s.retired;
                }
            }
        }
        if let Some(fuel) = &mut self.fuel {
            *fuel = fuel.saturating_sub(s.retired);
        }
    }

    /// Runs `ops` — the code of `chunk` in the stretch's tier — from
    /// `s.ip` until something ends the stretch. One copy serves compiled
    /// code and one the interpreter, whose code holds no fused ops: without
    /// their arms the interpreter's loop keeps its speed.
    #[inline(always)]
    fn stretch<const COMPILED: bool>(
        &mut self,
        host: &mut dyn Host,
        s: &mut Stretch,
        chunk: &Chunk,
        ops: &[Op],
    ) -> Result<End, LangError> {
        let (func, base, compiled) = (s.func, s.base, COMPILED);
        // A compile, an eviction or a deopt ends the stretch after the op
        // that caused it: the next op is fetched from the new tier.
        macro_rules! end_on_retier {
            () => {
                if self.epoch != s.epoch {
                    return Ok(End::Next);
                }
            };
        }
        // A fused op takes its fast path only if the fuel left pays for its
        // parts after the head, which the fast path retires and skips.
        macro_rules! pays {
            ($op:expr) => {
                s.budget - s.retired >= $op.parts() as u64 - 1
            };
        }
        macro_rules! skip {
            ($op:expr) => {{
                s.retired += $op.parts() as u64 - 1;
                s.ip += $op.parts() - 1;
            }};
        }
        let local = move |slot: u16| base + slot as usize;
        loop {
            let ip = s.ip;
            let op = ops[ip];
            if s.retired == s.budget {
                // The op that cannot be paid for is counted, not run.
                s.retired += 1;
                return Ok(End::OutOfFuel);
            }
            s.retired += 1;
            s.ip = ip + 1;
            // Built in the arms that use it, so the others do not pay for
            // spilling it.
            let at = || Site { func, ip, compiled };

            match op {
                Op::LocalsCompareJump(..)
                | Op::LocalConstStore(..)
                | Op::LocalsBinary(..)
                | Op::LocalConstBinary(..)
                | Op::CompareJump(..)
                | Op::EqJump(_)
                | Op::BinaryStore(..)
                | Op::LocalsIndex(..)
                | Op::LocalIndex(_)
                | Op::LocalGetProp(..)
                    if !COMPILED =>
                {
                    unreachable!("a fused op in interpreter code")
                }
                Op::Const(c) => self.stack.push(chunk.consts[c as usize].clone()),
                Op::LoadLocal(slot) => self.load_local(local(slot)),
                Op::StoreLocal(slot) => {
                    let v = self.pop();
                    self.stack[local(slot)] = v;
                }
                Op::LoadGlobal(g) => {
                    self.stack.push(self.globals[g as usize].clone());
                }
                Op::StoreGlobal(g) => {
                    let v = self.pop();
                    self.globals[g as usize] = v;
                }

                Op::Binary { kind, guard } => {
                    self.binary(at(), kind, guard)?;
                    end_on_retier!();
                }
                Op::Eq | Op::Ne => {
                    let r = self.pop();
                    let l = self.pop();
                    // Not `op == Op::Eq`: the derived comparison makes the
                    // optimiser treat every op as one 64-bit word and
                    // re-assemble its fields with shifts, on every dispatch.
                    let equal = matches!(op, Op::Eq);
                    self.stack.push(TaggedValue::bool((l == r) == equal));
                }
                Op::Neg => {
                    let v = self.pop();
                    let out = if let Some(i) = v.as_int() {
                        TaggedValue::int(i.wrapping_neg())
                    } else if let Some(f) = v.as_float() {
                        TaggedValue::float(-f)
                    } else {
                        return Err(LangError::runtime(format!(
                            "cannot negate {}",
                            v.type_name()
                        )));
                    };
                    self.stack.push(out);
                }
                Op::Not => {
                    let v = self.pop();
                    self.stack.push(TaggedValue::bool(!v.truthy()));
                }

                Op::Jump(target) => {
                    s.ip = target as usize;
                    if target as usize <= ip {
                        // Loop back-edge: profile, maybe tier up (OSR —
                        // safe because quickening is 1:1 on op indices).
                        self.heat(func, Heat::BackEdge);
                        end_on_retier!();
                    }
                }
                Op::JumpIfFalse(target) => {
                    if !self.pop().truthy() {
                        s.ip = target as usize;
                    }
                }
                Op::JumpIfFalsePeek(target) => {
                    if !self.peek(0).truthy() {
                        s.ip = target as usize;
                    }
                }
                Op::JumpIfTruePeek(target) => {
                    if self.peek(0).truthy() {
                        s.ip = target as usize;
                    }
                }

                Op::Call { func: callee, argc } => {
                    self.stats.calls += 1;
                    self.enter(callee as usize, argc as usize)?;
                    return Ok(End::Next);
                }
                Op::CallBuiltin { builtin, argc } => {
                    self.stats.builtin_calls += 1;
                    let at = self.stack.len() - argc as usize;
                    let result = builtins::eval_builtin(builtin, &self.stack[at..], host);
                    self.stack.truncate(at);
                    self.push_value(result?);
                }
                Op::CallHost { name, argc } => {
                    self.stats.host_calls += 1;
                    let name = &chunk.consts[name as usize];
                    let Some(name) = name.as_str() else {
                        return Err(LangError::runtime(format!(
                            "host-call name must be a string, got {}",
                            name.type_name()
                        )));
                    };
                    let at = self.stack.len() - argc as usize;
                    let result = host.host_call(name, &self.stack[at..]);
                    self.stack.truncate(at);
                    self.push_value(result?);
                }
                Op::Snapshot => {
                    // The call's result (null) is pushed *before*
                    // suspending so the captured state resumes cleanly.
                    self.stack.push(TaggedValue::null());
                    return Ok(End::Yield(Outcome::Snapshot));
                }
                Op::Return => {
                    let value = self.pop();
                    let frame = self.frames.pop().expect("frame stack non-empty");
                    self.stack.truncate(frame.base);
                    if self.frames.is_empty() {
                        return Ok(End::Yield(Outcome::Done(value.into_value())));
                    }
                    self.stack.push(value);
                    return Ok(End::Next);
                }
                Op::Pop => {
                    let _ = self.pop();
                }
                Op::MakeArray(n) => {
                    let items = self.pop_values(n as usize);
                    self.push_value(Value::array(items));
                }
                Op::MakeMap(n) => {
                    let mut flat = self.pop_values(2 * n as usize).into_iter();
                    let mut entries = Vec::with_capacity(n as usize);
                    while let (Some(k), Some(v)) = (flat.next(), flat.next()) {
                        let Value::Str(k) = k else {
                            return Err(LangError::runtime("map keys must be strings"));
                        };
                        entries.push((k.to_string(), v));
                    }
                    self.push_value(Value::map(entries));
                }
                Op::Index { guard } => {
                    self.index(at(), guard)?;
                    end_on_retier!();
                }
                Op::SetIndex { guard } => {
                    self.set_index(at(), guard)?;
                    end_on_retier!();
                }
                Op::GetProp(c) => {
                    self.get_prop(at(), &chunk.consts[c as usize])?;
                    end_on_retier!();
                }
                Op::SetProp(c) => {
                    self.set_prop(at(), &chunk.consts[c as usize])?;
                    end_on_retier!();
                }

                // A fused op takes its fast path when running its parts
                // one at a time would do nothing more: their guards hold
                // (so `observe` is a no-op), none fails, and the fuel pays
                // for all of them. Otherwise it runs as its head op, and
                // dispatch goes on to the parts left in place after it.
                Op::LocalsCompareJump(a, b, kind, target) => {
                    let (a, b) = (local(a.into()), local(b.into()));
                    match (self.stack[a].as_int(), self.stack[b].as_int()) {
                        (Some(l), Some(r)) if pays!(op) => {
                            skip!(op);
                            if !ops::ordered(kind, &l, &r) {
                                s.ip = target as usize;
                            }
                        }
                        _ => self.load_local(a),
                    }
                }
                Op::LocalConstStore(slot, c, kind, dst) => {
                    let (l, r) = (&self.stack[local(slot)], &chunk.consts[c as usize]);
                    match ops::int_binary(kind, l, r) {
                        Some(v) if pays!(op) => {
                            self.stack[local(dst)] = v;
                            skip!(op);
                        }
                        _ => self.load_local(local(slot)),
                    }
                }
                Op::LocalsBinary(a, b, kind) => {
                    let (l, r) = (&self.stack[local(a)], &self.stack[local(b)]);
                    match ops::int_binary(kind, l, r) {
                        Some(v) if pays!(op) => {
                            self.stack.push(v);
                            skip!(op);
                        }
                        _ => self.load_local(local(a)),
                    }
                }
                Op::LocalConstBinary(slot, c, kind) => {
                    let (l, r) = (&self.stack[local(slot)], &chunk.consts[c as usize]);
                    match ops::int_binary(kind, l, r) {
                        Some(v) if pays!(op) => {
                            self.stack.push(v);
                            skip!(op);
                        }
                        _ => self.load_local(local(slot)),
                    }
                }
                Op::CompareJump(kind, target) => {
                    match (self.peek(1).as_int(), self.peek(0).as_int()) {
                        (Some(l), Some(r)) if pays!(op) => {
                            self.stack.truncate(self.stack.len() - 2);
                            skip!(op);
                            if !ops::ordered(kind, &l, &r) {
                                s.ip = target as usize;
                            }
                        }
                        _ => {
                            self.binary(at(), kind, Some(Class::IntInt))?;
                            end_on_retier!();
                        }
                    }
                }
                Op::EqJump(target) => {
                    let r = self.pop();
                    let l = self.pop();
                    if pays!(op) {
                        skip!(op);
                        if l != r {
                            s.ip = target as usize;
                        }
                    } else {
                        self.stack.push(TaggedValue::bool(l == r));
                    }
                }
                Op::BinaryStore(kind, slot) => {
                    match ops::int_binary(kind, self.peek(1), self.peek(0)) {
                        Some(v) if pays!(op) => {
                            self.stack.truncate(self.stack.len() - 2);
                            self.stack[local(slot)] = v;
                            skip!(op);
                        }
                        _ => {
                            self.binary(at(), kind, Some(Class::IntInt))?;
                            end_on_retier!();
                        }
                    }
                }
                Op::LocalsIndex(a, b) => {
                    match ops::element(&self.stack[local(a)], &self.stack[local(b)]) {
                        Some(v) if pays!(op) => {
                            self.stack.push(v);
                            skip!(op);
                        }
                        _ => self.load_local(local(a)),
                    }
                }
                Op::LocalIndex(slot) => {
                    match ops::element(self.peek(0), &self.stack[local(slot)]) {
                        Some(v) if pays!(op) => {
                            *self.stack.last_mut().expect("base on stack") = v;
                            skip!(op);
                        }
                        _ => self.load_local(local(slot)),
                    }
                }
                Op::LocalGetProp(slot, c) => {
                    self.load_local(local(slot));
                    if self.peek(0).is_map() && pays!(op) {
                        skip!(op);
                        let at = Site { ip: ip + 1, ..at() };
                        self.get_prop(at, &chunk.consts[c as usize])?;
                        end_on_retier!();
                    }
                }
            }
        }
    }
}
