//! The tiered Flame virtual machine.
//!
//! Cold functions run in a profiling interpreter that records per-site type
//! feedback. Depending on the [`JitPolicy`], hot or `@jit`-annotated
//! functions are *quickened*: every bytecode op whose feedback is
//! monomorphic is replaced 1:1 by a type-specialised op with a guard.
//! A failed guard deoptimises the whole function back to generic bytecode
//! (recording the polymorphic site so re-compilation won't repeat the
//! mistake), mirroring speculative optimisation in V8 and annotation-driven
//! compilation in Numba.
//!
//! The VM is resumable: executing the `fireworks_snapshot()` host op
//! suspends it with [`Outcome::Snapshot`]; [`Vm::snapshot_state`] then
//! deep-clones the complete execution state so any number of clones can be
//! created with [`Vm::from_snapshot`], each resuming right after the
//! snapshot point.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use crate::bytecode::{Builtin, Chunk, Op};
use crate::compiler::Program;
use crate::error::LangError;
use crate::jit::JitConfig;
use crate::tagged::TaggedValue;
use crate::value::Value;

/// Type-feedback bits recorded per op site.
mod feedback {
    /// Both operands int (or `arr[int]` for index sites).
    pub const INT_INT: u8 = 1;
    /// Numeric with at least one float.
    pub const FLOAT_NUM: u8 = 2;
    /// Both operands strings.
    pub const STR_STR: u8 = 4;
    /// Array indexed by int.
    pub const ARR_INT: u8 = 8;
    /// Map indexed by string.
    pub const MAP_STR: u8 = 16;
    /// Anything else, or a site that caused a deopt.
    pub const OTHER: u8 = 128;
}

/// Maximum recompilations of one function before JIT gives up on it.
const MAX_COMPILES: u32 = 3;

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
    fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, LangError>;
}

/// A host that discards prints and rejects host calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHost;

impl Host for NoopHost {
    fn print(&mut self, _text: &str) {}

    fn host_call(&mut self, name: &str, _args: &[Value]) -> Result<Value, LangError> {
        Err(LangError::runtime(format!(
            "host call `{name}` not available in this environment"
        )))
    }
}

/// JIT tier of one function: interpreter → quickened (baseline compiled,
/// type-specialised) → optimized (the top tier, reached under sustained
/// heat or by forced annotation — V8's TurboFan, Numba's nopython mode).
#[derive(Debug, Clone)]
enum Tier {
    Interp,
    Quick(Rc<Vec<Op>>),
    Opt(Rc<Vec<Op>>),
}

/// Compilation target chosen by the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TargetTier {
    Quick,
    Opt,
}

/// How much more compile work the optimizing tier does per bytecode op.
const OPT_COMPILE_FACTOR: u64 = 3;
/// Multiplier on the hot-spot thresholds before a quickened function is
/// promoted to the optimized tier. High enough that one or two serverless
/// invocations do not organically reach the top tier — only forced
/// annotation or sustained traffic does.
const OPT_PROMOTE_FACTOR: u32 = 25;

/// One property-access site's inline-cache state: monomorphic after the
/// first observed shape, polymorphic up to the configured limit, then
/// megamorphic (every access a miss) — the V8/SpiderMonkey ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
enum IcState {
    Uninit,
    Mono(u32),
    Poly(Vec<u32>),
    Mega,
}

/// Per-site inline cache with hit/miss counters.
#[derive(Debug, Clone)]
struct IcSite {
    state: IcState,
    hits: u64,
    misses: u64,
}

impl IcSite {
    fn new() -> IcSite {
        IcSite {
            state: IcState::Uninit,
            hits: 0,
            misses: 0,
        }
    }
}

/// Aggregate inline-cache telemetry, exported as `vm.ic.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IcSummary {
    /// Property-access sites that have been executed at least once.
    pub sites: u64,
    /// Sites currently monomorphic (one cached shape).
    pub mono: u64,
    /// Sites currently polymorphic (several cached shapes).
    pub poly: u64,
    /// Sites that went megamorphic (cache disabled, every access slow).
    pub mega: u64,
    /// Total hits across all sites (lifetime, survives snapshots).
    pub hits: u64,
    /// Total misses across all sites (lifetime, survives snapshots).
    pub misses: u64,
}

/// Interns content-based map shapes to dense ids.
///
/// A shape is the FNV-1a hash of a map's key list; ids are assigned in
/// first-seen order, so — execution being single-threaded and
/// deterministic — shape ids are reproducible across runs (no pointer
/// identity, which would break byte-identical benchmark output).
#[derive(Debug, Clone, Default)]
struct ShapeTable {
    ids: HashMap<u64, u32>,
}

impl ShapeTable {
    fn intern(&mut self, hash: u64) -> u32 {
        let next = self.ids.len() as u32 + 1;
        *self.ids.entry(hash).or_insert(next)
    }
}

/// FNV-1a over a map's key list (values do not affect shape).
fn shape_hash(map: &BTreeMap<String, Value>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in map.keys() {
        for b in k.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Mutable per-function state (profiling counters, tier, feedback,
/// inline caches, code-cache accounting).
#[derive(Debug, Clone)]
struct FnState {
    calls: u32,
    back_edges: u32,
    tier: Tier,
    feedback: Vec<u8>,
    compiles: u32,
    banned: bool,
    /// Inline caches keyed by op index (only property-access sites).
    ics: BTreeMap<u32, IcSite>,
    /// Last execution tick (call dispatch or back-edge) — the LRU key
    /// for code-cache eviction.
    last_exec: u64,
    /// Modelled code bytes this function holds in the code cache
    /// (0 while interpreted).
    code_bytes: u64,
}

impl FnState {
    fn new() -> Self {
        FnState {
            calls: 0,
            back_edges: 0,
            tier: Tier::Interp,
            feedback: Vec::new(),
            compiles: 0,
            banned: false,
            ics: BTreeMap::new(),
            last_exec: 0,
            code_bytes: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    func: usize,
    ip: usize,
    base: usize,
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
    shapes: ShapeTable,
    code_bytes_used: u64,
    exec_tick: u64,
}

impl VmSnapshot {
    /// Number of compiled ops resident in the snapshot's JIT code cache.
    pub fn jit_code_ops(&self) -> usize {
        self.fn_states
            .iter()
            .map(|s| match &s.tier {
                Tier::Quick(code) | Tier::Opt(code) => code.len(),
                Tier::Interp => 0,
            })
            .sum()
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
    /// Content-based map-shape interner shared by all IC sites.
    shapes: ShapeTable,
    /// Modelled bytes of compiled code currently resident.
    code_bytes_used: u64,
    /// Monotonic execution clock (call dispatches and back-edges), the
    /// LRU time base for code-cache eviction.
    exec_tick: u64,
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
            shapes: ShapeTable::default(),
            code_bytes_used: 0,
            exec_tick: 0,
            fuel: None,
        }
    }

    /// Rebuilds a VM from a snapshot. The clone resumes exactly where the
    /// snapshot was taken (right after the `fireworks_snapshot()` call),
    /// carrying the warmed JIT state: tiers, inline caches, shape table,
    /// and code-cache occupancy.
    pub fn from_snapshot(snapshot: &VmSnapshot) -> Self {
        let mut seen = HashMap::new();
        let globals = deep_clone_values(&snapshot.globals, &mut seen);
        let stack = deep_clone_values(&snapshot.stack, &mut seen);
        Vm {
            program: snapshot.program.clone(),
            fn_states: snapshot.fn_states.clone(),
            globals: globals.into_iter().map(TaggedValue::from_value).collect(),
            stack: stack.into_iter().map(TaggedValue::from_value).collect(),
            frames: snapshot.frames.clone(),
            stats: ExecStats::default(),
            policy: snapshot.policy,
            jit: snapshot.jit,
            shapes: snapshot.shapes.clone(),
            code_bytes_used: snapshot.code_bytes_used,
            exec_tick: snapshot.exec_tick,
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
        let mut seen = HashMap::new();
        // Unbox through one shared identity map so aliasing between
        // globals and stack survives both the untagging and the clone.
        let globals: Vec<Value> = self.globals.iter().map(TaggedValue::to_value).collect();
        let stack: Vec<Value> = self.stack.iter().map(TaggedValue::to_value).collect();
        VmSnapshot {
            program: self.program.clone(),
            fn_states: self.fn_states.clone(),
            globals: deep_clone_values(&globals, &mut seen),
            stack: deep_clone_values(&stack, &mut seen),
            frames: self.frames.clone(),
            policy: self.policy,
            jit: self.jit,
            shapes: self.shapes.clone(),
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
        self.program
            .function(name)
            .map(|i| matches!(self.fn_states[i].tier, Tier::Quick(_) | Tier::Opt(_)))
            .unwrap_or(false)
    }

    /// Whether the named function is in the top (optimized) tier.
    pub fn is_optimized(&self, name: &str) -> bool {
        self.program
            .function(name)
            .map(|i| matches!(self.fn_states[i].tier, Tier::Opt(_)))
            .unwrap_or(false)
    }

    /// Total compiled ops resident in the JIT code cache.
    pub fn jit_code_ops(&self) -> usize {
        self.fn_states
            .iter()
            .map(|s| match &s.tier {
                Tier::Quick(code) | Tier::Opt(code) => code.len(),
                Tier::Interp => 0,
            })
            .sum()
    }

    /// Modelled code-cache occupancy in bytes (always within the
    /// configured `code_cache_capacity_bytes` budget).
    pub fn code_cache_used_bytes(&self) -> u64 {
        self.code_bytes_used
    }

    /// Aggregates inline-cache state across all functions.
    pub fn ic_summary(&self) -> IcSummary {
        let mut out = IcSummary::default();
        for st in &self.fn_states {
            for site in st.ics.values() {
                out.sites += 1;
                out.hits += site.hits;
                out.misses += site.misses;
                match &site.state {
                    IcState::Uninit => {}
                    IcState::Mono(_) => out.mono += 1,
                    IcState::Poly(_) => out.poly += 1,
                    IcState::Mega => out.mega += 1,
                }
            }
        }
        out
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
        let chunk = self.chunk(func);
        if chunk.arity as usize != args.len() {
            return Err(LangError::runtime(format!(
                "`{entry}` expects {} arguments, got {}",
                chunk.arity,
                args.len()
            )));
        }
        let n_locals = chunk.n_locals;
        let base = self.stack.len();
        self.stack
            .extend(args.into_iter().map(TaggedValue::from_value));
        for _ in self.stack.len() - base..n_locals as usize {
            self.stack.push(TaggedValue::null());
        }
        self.exec_tick += 1;
        let st = &mut self.fn_states[func];
        st.last_exec = self.exec_tick;
        st.calls += 1;
        self.maybe_tier_up(func);
        self.frames.push(Frame { func, ip: 0, base });
        Ok(())
    }

    fn chunk(&self, func: usize) -> &Rc<Chunk> {
        &self.program.functions[func].chunk
    }

    // ---- JIT machinery ---------------------------------------------------

    fn should_compile(&self, func: usize) -> Option<TargetTier> {
        let st = &self.fn_states[func];
        if st.banned || matches!(st.tier, Tier::Opt(_)) {
            return None;
        }
        match self.policy {
            JitPolicy::Off => None,
            JitPolicy::HotSpot {
                call_threshold,
                loop_threshold,
            } => match st.tier {
                // Interpreter → quickened at the base thresholds.
                Tier::Interp if st.calls >= call_threshold || st.back_edges >= loop_threshold => {
                    Some(TargetTier::Quick)
                }
                // Quickened → optimized only under sustained heat — one
                // warm benchmark run typically does not get there, which
                // is why forced post-JIT code still beats warm starts.
                Tier::Quick(_)
                    if st.calls >= call_threshold.saturating_mul(OPT_PROMOTE_FACTOR)
                        || st.back_edges >= loop_threshold.saturating_mul(OPT_PROMOTE_FACTOR) =>
                {
                    Some(TargetTier::Opt)
                }
                _ => None,
            },
            // Annotation forces the top tier directly (Numba nopython /
            // explicitly triggered V8 optimization), once type feedback
            // from the first call exists.
            JitPolicy::AnnotatedEager => {
                if self.program.functions[func].jit_hint
                    && !matches!(st.tier, Tier::Opt(_))
                    && (st.calls >= 2 || st.back_edges >= 1)
                {
                    Some(TargetTier::Opt)
                } else {
                    None
                }
            }
        }
    }

    fn maybe_tier_up(&mut self, func: usize) {
        let Some(target) = self.should_compile(func) else {
            return;
        };
        let chunk = self.chunk(func).clone();
        // Budgeted code cache: compiled code costs modelled bytes; a
        // compile that does not fit evicts least-recently-executed
        // functions first (demoting them to the interpreter), and a
        // function bigger than the whole budget is never compiled.
        let cost = chunk.ops.len() as u64 * self.jit.code_bytes_per_op;
        let capacity = self.jit.code_cache_capacity_bytes;
        if cost > capacity {
            return;
        }
        // Re-tiering replaces this function's resident code, so its own
        // bytes are freed by the same transaction.
        let already = self.fn_states[func].code_bytes;
        while self.code_bytes_used - already + cost > capacity {
            if !self.evict_coldest(func) {
                return;
            }
        }
        let quick = quicken(&chunk, &self.fn_states[func].feedback);
        self.stats.compiles += 1;
        self.code_bytes_used = self.code_bytes_used - already + cost;
        let st = &mut self.fn_states[func];
        st.compiles += 1;
        st.code_bytes = cost;
        match target {
            TargetTier::Quick => {
                self.stats.compile_ops += chunk.ops.len() as u64;
                st.tier = Tier::Quick(Rc::new(quick));
            }
            TargetTier::Opt => {
                self.stats.compile_ops += chunk.ops.len() as u64 * OPT_COMPILE_FACTOR;
                st.tier = Tier::Opt(Rc::new(quick));
            }
        }
    }

    /// Evicts the least-recently-executed compiled function (other than
    /// `protect`), demoting it to the interpreter and resetting its heat
    /// so it must re-earn compilation. Ties break on the lowest function
    /// index, keeping eviction order deterministic.
    fn evict_coldest(&mut self, protect: usize) -> bool {
        let victim = self
            .fn_states
            .iter()
            .enumerate()
            .filter(|(i, s)| *i != protect && s.code_bytes > 0)
            .min_by_key(|(i, s)| (s.last_exec, *i))
            .map(|(i, _)| i);
        let Some(i) = victim else {
            return false;
        };
        let st = &mut self.fn_states[i];
        self.code_bytes_used -= st.code_bytes;
        st.code_bytes = 0;
        st.tier = Tier::Interp;
        // Reset heat (but keep type feedback) so the next compile of
        // this function is driven by fresh traffic, not stale counters.
        st.calls = 0;
        st.back_edges = 0;
        self.stats.code_evictions += 1;
        true
    }

    /// Deoptimises `func`: back to the interpreter, release its code
    /// bytes, poison the site, and ban the function after too many
    /// recompilations.
    fn deopt(&mut self, func: usize, site: usize) {
        self.stats.deopts += 1;
        let ops_len = self.chunk(func).ops.len();
        let st = &mut self.fn_states[func];
        self.code_bytes_used -= st.code_bytes;
        st.code_bytes = 0;
        st.tier = Tier::Interp;
        if st.feedback.is_empty() {
            st.feedback = vec![0; ops_len];
        }
        st.feedback[site] |= feedback::OTHER;
        if st.compiles >= MAX_COMPILES {
            st.banned = true;
        }
    }

    /// Advances one property-access site's inline cache for an observed
    /// map shape. Returns `true` when the access must deoptimise: a
    /// monomorphic site compiled on one shape just saw another while
    /// running compiled code (the paper's restore-side deopt hazard).
    fn ic_access(&mut self, func: usize, site: usize, in_jit: bool, shape: u32) -> bool {
        let limit = usize::from(self.jit.ic_poly_limit.max(1));
        let ic = self.fn_states[func]
            .ics
            .entry(site as u32)
            .or_insert_with(IcSite::new);
        let mut hit = false;
        let mut deopt_now = false;
        let state = std::mem::replace(&mut ic.state, IcState::Uninit);
        ic.state = match state {
            IcState::Uninit => IcState::Mono(shape),
            IcState::Mono(s) if s == shape => {
                hit = true;
                IcState::Mono(s)
            }
            IcState::Mono(s) => {
                deopt_now = in_jit;
                if limit >= 2 {
                    IcState::Poly(vec![s, shape])
                } else {
                    IcState::Mega
                }
            }
            IcState::Poly(shapes) if shapes.contains(&shape) => {
                hit = true;
                IcState::Poly(shapes)
            }
            IcState::Poly(mut shapes) => {
                if shapes.len() < limit {
                    shapes.push(shape);
                    IcState::Poly(shapes)
                } else {
                    IcState::Mega
                }
            }
            IcState::Mega => IcState::Mega,
        };
        if hit {
            ic.hits += 1;
            self.stats.ic_hits += 1;
        } else {
            ic.misses += 1;
            self.stats.ic_misses += 1;
        }
        deopt_now
    }

    fn record_feedback(&mut self, func: usize, site: usize, mask: u8) {
        let ops_len = self.chunk(func).ops.len();
        let st = &mut self.fn_states[func];
        if st.feedback.is_empty() {
            st.feedback = vec![0; ops_len];
        }
        st.feedback[site] |= mask;
    }

    // ---- stack helpers ---------------------------------------------------

    fn pop(&mut self) -> TaggedValue {
        self.stack.pop().expect("stack underflow is a compiler bug")
    }

    fn pop_value(&mut self) -> Value {
        self.pop().into_value()
    }

    fn push_value(&mut self, v: Value) {
        self.stack.push(TaggedValue::from_value(v));
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
            let frame = *self.frames.last().expect("frame stack non-empty");
            let func = frame.func;
            let (op, in_jit) = match &self.fn_states[func].tier {
                Tier::Quick(code) => (code[frame.ip], true),
                Tier::Opt(code) => {
                    self.stats.opt_ops += 1;
                    (code[frame.ip], true)
                }
                Tier::Interp => (self.chunk(func).ops[frame.ip], false),
            };
            if in_jit {
                self.stats.jit_ops += 1;
            } else {
                self.stats.interp_ops += 1;
            }
            if let Some(fuel) = &mut self.fuel {
                if *fuel == 0 {
                    return Err(LangError::Timeout {
                        ops: self.stats.total_ops(),
                    });
                }
                *fuel -= 1;
            }
            let site = frame.ip;
            self.frames.last_mut().expect("frame stack non-empty").ip += 1;

            match op {
                Op::Const(c) => {
                    let v = self.chunk(func).consts[c as usize].clone();
                    self.push_value(v);
                }
                Op::LoadLocal(slot) => {
                    let v = self.stack[frame.base + slot as usize].clone();
                    self.stack.push(v);
                }
                Op::StoreLocal(slot) => {
                    let v = self.pop();
                    self.stack[frame.base + slot as usize] = v;
                }
                Op::LoadGlobal(g) => {
                    self.stack.push(self.globals[g as usize].clone());
                }
                Op::StoreGlobal(g) => {
                    let v = self.pop();
                    self.globals[g as usize] = v;
                }

                Op::Add => self.binary_generic(func, site, in_jit, BinKind::Add)?,
                Op::Sub => self.binary_generic(func, site, in_jit, BinKind::Sub)?,
                Op::Mul => self.binary_generic(func, site, in_jit, BinKind::Mul)?,
                Op::Div => self.binary_generic(func, site, in_jit, BinKind::Div)?,
                Op::Mod => self.binary_generic(func, site, in_jit, BinKind::Mod)?,
                Op::Eq => {
                    let r = self.pop();
                    let l = self.pop();
                    self.stack.push(TaggedValue::bool(l == r));
                }
                Op::Ne => {
                    let r = self.pop();
                    let l = self.pop();
                    self.stack.push(TaggedValue::bool(l != r));
                }
                Op::Lt => self.binary_generic(func, site, in_jit, BinKind::Lt)?,
                Op::Le => self.binary_generic(func, site, in_jit, BinKind::Le)?,
                Op::Gt => self.binary_generic(func, site, in_jit, BinKind::Gt)?,
                Op::Ge => self.binary_generic(func, site, in_jit, BinKind::Ge)?,

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
                    let t = target as usize;
                    if t <= site {
                        // Loop back-edge: profile, maybe tier up (OSR —
                        // safe because quickening is 1:1 on op indices).
                        self.exec_tick += 1;
                        let st = &mut self.fn_states[func];
                        st.last_exec = self.exec_tick;
                        st.back_edges += 1;
                        self.maybe_tier_up(func);
                    }
                    self.frames.last_mut().expect("frame stack non-empty").ip = t;
                }
                Op::JumpIfFalse(target) => {
                    let v = self.pop();
                    if !v.truthy() {
                        self.frames.last_mut().expect("frame stack non-empty").ip = target as usize;
                    }
                }
                Op::JumpIfFalsePeek(target) => {
                    if !self.peek(0).truthy() {
                        self.frames.last_mut().expect("frame stack non-empty").ip = target as usize;
                    }
                }
                Op::JumpIfTruePeek(target) => {
                    if self.peek(0).truthy() {
                        self.frames.last_mut().expect("frame stack non-empty").ip = target as usize;
                    }
                }

                Op::Call { func: callee, argc } => {
                    self.stats.calls += 1;
                    let callee = callee as usize;
                    let chunk = self.chunk(callee).clone();
                    if chunk.arity != argc {
                        return Err(LangError::runtime(format!(
                            "`{}` expects {} arguments, got {argc}",
                            chunk.name, chunk.arity
                        )));
                    }
                    let base = self.stack.len() - argc as usize;
                    for _ in argc as u16..chunk.n_locals {
                        self.stack.push(TaggedValue::null());
                    }
                    self.exec_tick += 1;
                    let st = &mut self.fn_states[callee];
                    st.last_exec = self.exec_tick;
                    st.calls += 1;
                    self.maybe_tier_up(callee);
                    self.frames.push(Frame {
                        func: callee,
                        ip: 0,
                        base,
                    });
                }
                Op::CallBuiltin { builtin, argc } => {
                    self.stats.builtin_calls += 1;
                    self.call_builtin(builtin, argc, host)?;
                }
                Op::CallHost { name, argc } => {
                    self.stats.host_calls += 1;
                    let name = match &self.chunk(func).consts[name as usize] {
                        Value::Str(s) => s.clone(),
                        other => {
                            return Err(LangError::runtime(format!(
                                "host-call name must be a string, got {}",
                                other.type_name()
                            )))
                        }
                    };
                    let at = self.stack.len() - argc as usize;
                    let args: Vec<Value> = self
                        .stack
                        .split_off(at)
                        .into_iter()
                        .map(TaggedValue::into_value)
                        .collect();
                    let result = host.host_call(&name, &args)?;
                    self.push_value(result);
                }
                Op::Snapshot => {
                    // The call's result (null) is pushed *before*
                    // suspending so the captured state resumes cleanly.
                    self.stack.push(TaggedValue::null());
                    return Ok(Outcome::Snapshot);
                }
                Op::Return => {
                    let value = self.pop();
                    let frame = self.frames.pop().expect("frame stack non-empty");
                    self.stack.truncate(frame.base);
                    if self.frames.is_empty() {
                        return Ok(Outcome::Done(value.into_value()));
                    }
                    self.stack.push(value);
                }
                Op::Pop => {
                    let _ = self.pop();
                }
                Op::MakeArray(n) => {
                    let at = self.stack.len() - n as usize;
                    let items: Vec<Value> = self
                        .stack
                        .split_off(at)
                        .into_iter()
                        .map(TaggedValue::into_value)
                        .collect();
                    self.push_value(Value::array(items));
                }
                Op::MakeMap(n) => {
                    let at = self.stack.len() - 2 * n as usize;
                    let mut flat: Vec<Value> = self
                        .stack
                        .split_off(at)
                        .into_iter()
                        .map(TaggedValue::into_value)
                        .collect();
                    let mut entries = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        let v = flat.pop().expect("compiler pushed 2n values");
                        let k = flat.pop().expect("compiler pushed 2n values");
                        let Value::Str(k) = k else {
                            return Err(LangError::runtime("map keys must be strings"));
                        };
                        entries.push((k.to_string(), v));
                    }
                    entries.reverse();
                    self.push_value(Value::map(entries));
                }
                Op::Index => self.index_generic(func, site, in_jit)?,
                Op::SetIndex => self.set_index_generic(func, site, in_jit)?,
                Op::GetProp(c) => self.get_prop(func, site, in_jit, c)?,
                Op::SetProp(c) => self.set_prop(func, site, in_jit, c)?,

                // ---- quickened ops ----------------------------------------
                Op::AddII | Op::SubII | Op::MulII | Op::ModII | Op::DivII => {
                    if let (Some(l), Some(r)) = (self.peek(1).as_int(), self.peek(0).as_int()) {
                        self.pop();
                        self.pop();
                        let out = match op {
                            Op::AddII => TaggedValue::int(l.wrapping_add(r)),
                            Op::SubII => TaggedValue::int(l.wrapping_sub(r)),
                            Op::MulII => TaggedValue::int(l.wrapping_mul(r)),
                            Op::ModII => {
                                if r == 0 {
                                    return Err(LangError::runtime("modulo by zero"));
                                }
                                TaggedValue::int(l.wrapping_rem(r))
                            }
                            Op::DivII => {
                                if r == 0 {
                                    return Err(LangError::runtime("division by zero"));
                                }
                                TaggedValue::int(l.wrapping_div(r))
                            }
                            _ => unreachable!(),
                        };
                        self.stack.push(out);
                    } else {
                        self.deopt(func, site);
                        let kind = match op {
                            Op::AddII => BinKind::Add,
                            Op::SubII => BinKind::Sub,
                            Op::MulII => BinKind::Mul,
                            Op::ModII => BinKind::Mod,
                            Op::DivII => BinKind::Div,
                            _ => unreachable!(),
                        };
                        self.binary_generic(func, site, false, kind)?;
                    }
                }
                Op::AddFF | Op::SubFF | Op::MulFF | Op::DivFF => {
                    if let (Some(l), Some(r)) = (self.peek(1).as_num(), self.peek(0).as_num()) {
                        self.pop();
                        self.pop();
                        let out = match op {
                            Op::AddFF => l + r,
                            Op::SubFF => l - r,
                            Op::MulFF => l * r,
                            Op::DivFF => l / r,
                            _ => unreachable!(),
                        };
                        self.stack.push(TaggedValue::float(out));
                    } else {
                        self.deopt(func, site);
                        let kind = match op {
                            Op::AddFF => BinKind::Add,
                            Op::SubFF => BinKind::Sub,
                            Op::MulFF => BinKind::Mul,
                            Op::DivFF => BinKind::Div,
                            _ => unreachable!(),
                        };
                        self.binary_generic(func, site, false, kind)?;
                    }
                }
                Op::LtII | Op::LeII | Op::GtII | Op::GeII => {
                    if let (Some(l), Some(r)) = (self.peek(1).as_int(), self.peek(0).as_int()) {
                        self.pop();
                        self.pop();
                        let out = match op {
                            Op::LtII => l < r,
                            Op::LeII => l <= r,
                            Op::GtII => l > r,
                            Op::GeII => l >= r,
                            _ => unreachable!(),
                        };
                        self.stack.push(TaggedValue::bool(out));
                    } else {
                        self.deopt(func, site);
                        let kind = match op {
                            Op::LtII => BinKind::Lt,
                            Op::LeII => BinKind::Le,
                            Op::GtII => BinKind::Gt,
                            Op::GeII => BinKind::Ge,
                            _ => unreachable!(),
                        };
                        self.binary_generic(func, site, false, kind)?;
                    }
                }
                Op::AddSS => {
                    if self.peek(1).as_str().is_some() && self.peek(0).as_str().is_some() {
                        let r = self.pop_value();
                        let l = self.pop_value();
                        let (Value::Str(l), Value::Str(r)) = (l, r) else {
                            unreachable!("guard checked strings")
                        };
                        let mut s = String::with_capacity(l.len() + r.len());
                        s.push_str(&l);
                        s.push_str(&r);
                        self.push_value(Value::str(s));
                    } else {
                        self.deopt(func, site);
                        self.binary_generic(func, site, false, BinKind::Add)?;
                    }
                }
                Op::IndexArrI => {
                    if self.peek(1).is_array() && self.peek(0).as_int().is_some() {
                        let i = self.pop().as_int().expect("guard checked int");
                        let Value::Array(a) = self.pop_value() else {
                            unreachable!("guard checked array")
                        };
                        let a = a.borrow();
                        let item = usize::try_from(i)
                            .ok()
                            .and_then(|i| a.get(i).cloned())
                            .ok_or_else(|| {
                                LangError::runtime(format!(
                                    "array index {i} out of bounds (len {})",
                                    a.len()
                                ))
                            })?;
                        drop(a);
                        self.push_value(item);
                    } else {
                        self.deopt(func, site);
                        self.index_generic(func, site, false)?;
                    }
                }
                Op::IndexMapS => {
                    if self.peek(1).is_map() && self.peek(0).as_str().is_some() {
                        let Value::Str(k) = self.pop_value() else {
                            unreachable!("guard checked string")
                        };
                        let Value::Map(m) = self.pop_value() else {
                            unreachable!("guard checked map")
                        };
                        let v = m.borrow().get(&*k).cloned().unwrap_or(Value::Null);
                        self.push_value(v);
                    } else {
                        self.deopt(func, site);
                        self.index_generic(func, site, false)?;
                    }
                }
                Op::SetIndexArrI => {
                    if self.peek(2).is_array() && self.peek(1).as_int().is_some() {
                        let v = self.pop_value();
                        let i = self.pop().as_int().expect("guard checked int");
                        let Value::Array(a) = self.pop_value() else {
                            unreachable!("guard checked array")
                        };
                        let mut a = a.borrow_mut();
                        let len = a.len();
                        let slot = usize::try_from(i)
                            .ok()
                            .and_then(|i| a.get_mut(i))
                            .ok_or_else(|| {
                                LangError::runtime(format!(
                                    "array index {i} out of bounds (len {len})"
                                ))
                            })?;
                        *slot = v;
                    } else {
                        self.deopt(func, site);
                        self.set_index_generic(func, site, false)?;
                    }
                }
            }
        }
    }

    // ---- generic operators -------------------------------------------------

    fn binary_generic(
        &mut self,
        func: usize,
        site: usize,
        in_jit: bool,
        kind: BinKind,
    ) -> Result<(), LangError> {
        let r = self.pop_value();
        let l = self.pop_value();
        if !in_jit {
            let mask = classify_pair(&l, &r);
            self.record_feedback(func, site, mask);
        }
        let out = apply_binary(kind, l, r)?;
        self.push_value(out);
        Ok(())
    }

    fn index_generic(&mut self, func: usize, site: usize, in_jit: bool) -> Result<(), LangError> {
        let index = self.pop_value();
        let base = self.pop_value();
        if !in_jit {
            let mask = match (&base, &index) {
                (Value::Array(_), Value::Int(_)) => feedback::ARR_INT,
                (Value::Map(_), Value::Str(_)) => feedback::MAP_STR,
                _ => feedback::OTHER,
            };
            self.record_feedback(func, site, mask);
        }
        let out = match (&base, &index) {
            (Value::Array(a), Value::Int(i)) => {
                let a = a.borrow();
                usize::try_from(*i)
                    .ok()
                    .and_then(|i| a.get(i).cloned())
                    .ok_or_else(|| {
                        LangError::runtime(format!(
                            "array index {i} out of bounds (len {})",
                            a.len()
                        ))
                    })?
            }
            (Value::Map(m), Value::Str(k)) => m.borrow().get(&**k).cloned().unwrap_or(Value::Null),
            (Value::Str(s), Value::Int(i)) => {
                let chars: Vec<char> = s.chars().collect();
                usize::try_from(*i)
                    .ok()
                    .and_then(|i| chars.get(i))
                    .map(|c| Value::str(c.to_string()))
                    .ok_or_else(|| {
                        LangError::runtime(format!(
                            "string index {i} out of bounds (len {})",
                            chars.len()
                        ))
                    })?
            }
            _ => {
                return Err(LangError::runtime(format!(
                    "cannot index {} with {}",
                    base.type_name(),
                    index.type_name()
                )))
            }
        };
        self.push_value(out);
        Ok(())
    }

    fn set_index_generic(
        &mut self,
        func: usize,
        site: usize,
        in_jit: bool,
    ) -> Result<(), LangError> {
        let value = self.pop_value();
        let index = self.pop_value();
        let base = self.pop_value();
        if !in_jit {
            let mask = match (&base, &index) {
                (Value::Array(_), Value::Int(_)) => feedback::ARR_INT,
                _ => feedback::OTHER,
            };
            self.record_feedback(func, site, mask);
        }
        match (&base, &index) {
            (Value::Array(a), Value::Int(i)) => {
                let mut a = a.borrow_mut();
                let len = a.len();
                let slot = usize::try_from(*i)
                    .ok()
                    .and_then(|i| a.get_mut(i))
                    .ok_or_else(|| {
                        LangError::runtime(format!("array index {i} out of bounds (len {len})"))
                    })?;
                *slot = value;
            }
            (Value::Map(m), Value::Str(k)) => {
                m.borrow_mut().insert(k.to_string(), value);
            }
            _ => {
                return Err(LangError::runtime(format!(
                    "cannot assign into {} with {} index",
                    base.type_name(),
                    index.type_name()
                )))
            }
        }
        Ok(())
    }

    /// `base.name` through the site's inline cache. Lookup semantics are
    /// identical to `base["name"]`; the IC only shapes the cost model
    /// (hit/miss counters, deopt on shape change in compiled code).
    fn get_prop(
        &mut self,
        func: usize,
        site: usize,
        in_jit: bool,
        key_const: u16,
    ) -> Result<(), LangError> {
        let key = match &self.chunk(func).consts[key_const as usize] {
            Value::Str(s) => s.clone(),
            other => {
                return Err(LangError::runtime(format!(
                    "property name must be a string, got {}",
                    other.type_name()
                )))
            }
        };
        let base = self.pop_value();
        match &base {
            Value::Map(m) => {
                let hash = shape_hash(&m.borrow());
                let shape = self.shapes.intern(hash);
                if self.ic_access(func, site, in_jit, shape) {
                    self.deopt(func, site);
                }
                let v = m.borrow().get(&*key).cloned().unwrap_or(Value::Null);
                self.push_value(v);
                Ok(())
            }
            other => Err(LangError::runtime(format!(
                "cannot index {} with string",
                other.type_name()
            ))),
        }
    }

    /// `base.name = value` through the site's inline cache. The shape is
    /// observed *before* the insert, so a store that adds a new key is a
    /// transition: the next access at this site sees the grown shape.
    fn set_prop(
        &mut self,
        func: usize,
        site: usize,
        in_jit: bool,
        key_const: u16,
    ) -> Result<(), LangError> {
        let key = match &self.chunk(func).consts[key_const as usize] {
            Value::Str(s) => s.clone(),
            other => {
                return Err(LangError::runtime(format!(
                    "property name must be a string, got {}",
                    other.type_name()
                )))
            }
        };
        let value = self.pop_value();
        let base = self.pop_value();
        match &base {
            Value::Map(m) => {
                let hash = shape_hash(&m.borrow());
                let shape = self.shapes.intern(hash);
                if self.ic_access(func, site, in_jit, shape) {
                    self.deopt(func, site);
                }
                m.borrow_mut().insert(key.to_string(), value);
                Ok(())
            }
            other => Err(LangError::runtime(format!(
                "cannot assign into {} with string index",
                other.type_name()
            ))),
        }
    }

    fn call_builtin(
        &mut self,
        builtin: Builtin,
        argc: u8,
        host: &mut dyn Host,
    ) -> Result<(), LangError> {
        let at = self.stack.len() - argc as usize;
        let args: Vec<Value> = self
            .stack
            .split_off(at)
            .into_iter()
            .map(TaggedValue::into_value)
            .collect();
        let result = eval_builtin(builtin, args, host)?;
        self.push_value(result);
        Ok(())
    }
}

fn deep_clone_values(values: &[Value], seen: &mut HashMap<usize, Value>) -> Vec<Value> {
    // Clone through one shared identity map so aliasing *between* globals
    // and stack values is preserved in the clone.
    values
        .iter()
        .map(|v| {
            // `Value::deep_clone` uses a fresh map; inline the recursive
            // step with the shared one.
            clone_with(v, seen)
        })
        .collect()
}

fn clone_with(v: &Value, seen: &mut HashMap<usize, Value>) -> Value {
    match v {
        Value::Array(rc) => {
            let key = Rc::as_ptr(rc) as usize;
            if let Some(existing) = seen.get(&key) {
                return existing.clone();
            }
            let new_rc = Rc::new(std::cell::RefCell::new(Vec::new()));
            seen.insert(key, Value::Array(new_rc.clone()));
            let cloned: Vec<Value> = rc.borrow().iter().map(|x| clone_with(x, seen)).collect();
            *new_rc.borrow_mut() = cloned;
            Value::Array(new_rc)
        }
        Value::Map(rc) => {
            let key = Rc::as_ptr(rc) as usize;
            if let Some(existing) = seen.get(&key) {
                return existing.clone();
            }
            let new_rc = Rc::new(std::cell::RefCell::new(std::collections::BTreeMap::new()));
            seen.insert(key, Value::Map(new_rc.clone()));
            let cloned: std::collections::BTreeMap<String, Value> = rc
                .borrow()
                .iter()
                .map(|(k, x)| (k.clone(), clone_with(x, seen)))
                .collect();
            *new_rc.borrow_mut() = cloned;
            Value::Map(new_rc)
        }
        other => other.clone(),
    }
}

#[derive(Debug, Clone, Copy)]
enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Lt,
    Le,
    Gt,
    Ge,
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => unreachable!("guard checked numeric"),
    }
}

fn classify_pair(l: &Value, r: &Value) -> u8 {
    match (l, r) {
        (Value::Int(_), Value::Int(_)) => feedback::INT_INT,
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => feedback::FLOAT_NUM,
        (Value::Str(_), Value::Str(_)) => feedback::STR_STR,
        _ => feedback::OTHER,
    }
}

fn apply_binary(kind: BinKind, l: Value, r: Value) -> Result<Value, LangError> {
    use BinKind::*;
    let type_err = |what: &str, l: &Value, r: &Value| {
        LangError::runtime(format!(
            "cannot {what} {} and {}",
            l.type_name(),
            r.type_name()
        ))
    };
    Ok(match (kind, &l, &r) {
        (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
        (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
        (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
        (Div, Value::Int(a), Value::Int(b)) => {
            if *b == 0 {
                return Err(LangError::runtime("division by zero"));
            }
            Value::Int(a.wrapping_div(*b))
        }
        (Mod, Value::Int(a), Value::Int(b)) => {
            if *b == 0 {
                return Err(LangError::runtime("modulo by zero"));
            }
            Value::Int(a.wrapping_rem(*b))
        }
        (Add, Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            Value::Float(as_f64(&l) + as_f64(&r))
        }
        (Sub, Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            Value::Float(as_f64(&l) - as_f64(&r))
        }
        (Mul, Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            Value::Float(as_f64(&l) * as_f64(&r))
        }
        (Div, Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            Value::Float(as_f64(&l) / as_f64(&r))
        }
        (Mod, Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            Value::Float(as_f64(&l) % as_f64(&r))
        }
        (Add, Value::Str(a), _) => {
            let mut s = a.to_string();
            s.push_str(&r.to_string());
            Value::str(s)
        }
        (Add, _, Value::Str(b)) => {
            let mut s = l.to_string();
            s.push_str(b);
            Value::str(s)
        }
        (Add, Value::Array(a), Value::Array(b)) => {
            let mut out = a.borrow().clone();
            out.extend(b.borrow().iter().cloned());
            Value::array(out)
        }
        (Lt | Le | Gt | Ge, Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            let (a, b) = (as_f64(&l), as_f64(&r));
            Value::Bool(match kind {
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            })
        }
        (Lt | Le | Gt | Ge, Value::Str(a), Value::Str(b)) => Value::Bool(match kind {
            Lt => a < b,
            Le => a <= b,
            Gt => a > b,
            Ge => a >= b,
            _ => unreachable!(),
        }),
        (Add, _, _) => return Err(type_err("add", &l, &r)),
        (Sub, _, _) => return Err(type_err("subtract", &l, &r)),
        (Mul, _, _) => return Err(type_err("multiply", &l, &r)),
        (Div, _, _) => return Err(type_err("divide", &l, &r)),
        (Mod, _, _) => return Err(type_err("mod", &l, &r)),
        (Lt | Le | Gt | Ge, _, _) => return Err(type_err("compare", &l, &r)),
    })
}

fn eval_builtin(
    builtin: Builtin,
    args: Vec<Value>,
    host: &mut dyn Host,
) -> Result<Value, LangError> {
    let arity_err =
        |want: &str| LangError::runtime(format!("builtin {builtin:?} expects {want} arguments"));
    Ok(match builtin {
        Builtin::Len => {
            let [v] = take::<1>(args).map_err(|_| arity_err("1"))?;
            match v {
                Value::Str(s) => Value::Int(s.chars().count() as i64),
                Value::Array(a) => Value::Int(a.borrow().len() as i64),
                Value::Map(m) => Value::Int(m.borrow().len() as i64),
                other => {
                    return Err(LangError::runtime(format!(
                        "len() of {}",
                        other.type_name()
                    )))
                }
            }
        }
        Builtin::Push => {
            let [arr, v] = take::<2>(args).map_err(|_| arity_err("2"))?;
            let Value::Array(a) = &arr else {
                return Err(LangError::runtime("push() needs an array"));
            };
            a.borrow_mut().push(v);
            arr
        }
        Builtin::Pop => {
            let [arr] = take::<1>(args).map_err(|_| arity_err("1"))?;
            let Value::Array(a) = &arr else {
                return Err(LangError::runtime("pop() needs an array"));
            };
            let out = a.borrow_mut().pop();
            out.ok_or_else(|| LangError::runtime("pop() from empty array"))?
        }
        Builtin::Keys => {
            let [v] = take::<1>(args).map_err(|_| arity_err("1"))?;
            let Value::Map(m) = v else {
                return Err(LangError::runtime("keys() needs a map"));
            };
            let keys: Vec<Value> = m.borrow().keys().map(Value::str).collect();
            Value::array(keys)
        }
        Builtin::Has => {
            let [c, needle] = take::<2>(args).map_err(|_| arity_err("2"))?;
            match c {
                Value::Map(m) => {
                    let Value::Str(k) = &needle else {
                        return Err(LangError::runtime("has() on a map needs a string key"));
                    };
                    Value::Bool(m.borrow().contains_key(&**k))
                }
                Value::Array(a) => Value::Bool(a.borrow().iter().any(|x| x.eq_value(&needle))),
                Value::Str(s) => {
                    let Value::Str(sub) = &needle else {
                        return Err(LangError::runtime("has() on a string needs a string"));
                    };
                    Value::Bool(s.contains(&**sub))
                }
                other => {
                    return Err(LangError::runtime(format!(
                        "has() of {}",
                        other.type_name()
                    )))
                }
            }
        }
        Builtin::Remove => {
            let [m, k] = take::<2>(args).map_err(|_| arity_err("2"))?;
            let (Value::Map(m), Value::Str(k)) = (&m, &k) else {
                return Err(LangError::runtime("remove() needs a map and a string key"));
            };
            let removed = m.borrow_mut().remove(&**k);
            removed.unwrap_or(Value::Null)
        }
        Builtin::Str => {
            let [v] = take::<1>(args).map_err(|_| arity_err("1"))?;
            Value::str(v.to_string())
        }
        Builtin::Int => {
            let [v] = take::<1>(args).map_err(|_| arity_err("1"))?;
            match v {
                Value::Int(i) => Value::Int(i),
                Value::Float(f) => Value::Int(f as i64),
                Value::Bool(b) => Value::Int(i64::from(b)),
                Value::Str(s) => Value::Int(
                    s.trim()
                        .parse::<i64>()
                        .map_err(|_| LangError::runtime(format!("int() cannot parse `{s}`")))?,
                ),
                other => {
                    return Err(LangError::runtime(format!(
                        "int() of {}",
                        other.type_name()
                    )))
                }
            }
        }
        Builtin::Float => {
            let [v] = take::<1>(args).map_err(|_| arity_err("1"))?;
            match v {
                Value::Int(i) => Value::Float(i as f64),
                Value::Float(f) => Value::Float(f),
                Value::Str(s) => Value::Float(
                    s.trim()
                        .parse::<f64>()
                        .map_err(|_| LangError::runtime(format!("float() cannot parse `{s}`")))?,
                ),
                other => {
                    return Err(LangError::runtime(format!(
                        "float() of {}",
                        other.type_name()
                    )))
                }
            }
        }
        Builtin::Floor => {
            let [v] = take::<1>(args).map_err(|_| arity_err("1"))?;
            match v {
                Value::Int(i) => Value::Int(i),
                Value::Float(f) => Value::Int(f.floor() as i64),
                other => {
                    return Err(LangError::runtime(format!(
                        "floor() of {}",
                        other.type_name()
                    )))
                }
            }
        }
        Builtin::Sqrt => {
            let [v] = take::<1>(args).map_err(|_| arity_err("1"))?;
            let f = match v {
                Value::Int(i) => i as f64,
                Value::Float(f) => f,
                other => {
                    return Err(LangError::runtime(format!(
                        "sqrt() of {}",
                        other.type_name()
                    )))
                }
            };
            Value::Float(f.sqrt())
        }
        Builtin::Abs => {
            let [v] = take::<1>(args).map_err(|_| arity_err("1"))?;
            match v {
                Value::Int(i) => Value::Int(i.wrapping_abs()),
                Value::Float(f) => Value::Float(f.abs()),
                other => {
                    return Err(LangError::runtime(format!(
                        "abs() of {}",
                        other.type_name()
                    )))
                }
            }
        }
        Builtin::Min | Builtin::Max => {
            let [a, b] = take::<2>(args).map_err(|_| arity_err("2"))?;
            let (x, y) = match (&a, &b) {
                (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                    (as_f64(&a), as_f64(&b))
                }
                _ => return Err(LangError::runtime("min()/max() need numbers")),
            };
            let pick_a = if builtin == Builtin::Min {
                x <= y
            } else {
                x >= y
            };
            if pick_a {
                a
            } else {
                b
            }
        }
        Builtin::Split => {
            let [s, sep] = take::<2>(args).map_err(|_| arity_err("2"))?;
            let (Value::Str(s), Value::Str(sep)) = (&s, &sep) else {
                return Err(LangError::runtime("split() needs two strings"));
            };
            let parts: Vec<Value> = if sep.is_empty() {
                s.chars().map(|c| Value::str(c.to_string())).collect()
            } else {
                s.split(&**sep).map(Value::str).collect()
            };
            Value::array(parts)
        }
        Builtin::Join => {
            let [arr, sep] = take::<2>(args).map_err(|_| arity_err("2"))?;
            let (Value::Array(a), Value::Str(sep)) = (&arr, &sep) else {
                return Err(LangError::runtime("join() needs an array and a string"));
            };
            let joined = a
                .borrow()
                .iter()
                .map(Value::to_string)
                .collect::<Vec<_>>()
                .join(sep);
            Value::str(joined)
        }
        Builtin::Substr => {
            let [s, start, len] = take::<3>(args).map_err(|_| arity_err("3"))?;
            let (Value::Str(s), Value::Int(start), Value::Int(len)) = (&s, &start, &len) else {
                return Err(LangError::runtime("substr() needs (string, int, int)"));
            };
            let chars: Vec<char> = s.chars().collect();
            let start = (*start).max(0) as usize;
            let len = (*len).max(0) as usize;
            let out: String = chars.iter().skip(start).take(len).collect();
            Value::str(out)
        }
        Builtin::Type => {
            let [v] = take::<1>(args).map_err(|_| arity_err("1"))?;
            Value::str(v.type_name())
        }
        Builtin::Print => {
            let text = args
                .iter()
                .map(Value::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            host.print(&text);
            Value::Null
        }
    })
}

fn take<const N: usize>(args: Vec<Value>) -> Result<[Value; N], ()> {
    args.try_into().map_err(|_| ())
}

/// Quickens a chunk: each op with monomorphic feedback becomes its
/// specialised form, everything else stays generic. Output length equals
/// input length, so jump targets and deopt indices remain valid.
fn quicken(chunk: &Chunk, fb: &[u8]) -> Vec<Op> {
    chunk
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let mask = fb.get(i).copied().unwrap_or(0);
            if mask & feedback::OTHER != 0 {
                return *op;
            }
            match (op, mask) {
                (Op::Add, m) if m == feedback::INT_INT => Op::AddII,
                (Op::Add, m) if m == feedback::FLOAT_NUM => Op::AddFF,
                (Op::Add, m) if m == feedback::STR_STR => Op::AddSS,
                (Op::Sub, m) if m == feedback::INT_INT => Op::SubII,
                (Op::Sub, m) if m == feedback::FLOAT_NUM => Op::SubFF,
                (Op::Mul, m) if m == feedback::INT_INT => Op::MulII,
                (Op::Mul, m) if m == feedback::FLOAT_NUM => Op::MulFF,
                (Op::Div, m) if m == feedback::INT_INT => Op::DivII,
                (Op::Div, m) if m == feedback::FLOAT_NUM => Op::DivFF,
                (Op::Mod, m) if m == feedback::INT_INT => Op::ModII,
                (Op::Lt, m) if m == feedback::INT_INT => Op::LtII,
                (Op::Le, m) if m == feedback::INT_INT => Op::LeII,
                (Op::Gt, m) if m == feedback::INT_INT => Op::GtII,
                (Op::Ge, m) if m == feedback::INT_INT => Op::GeII,
                (Op::Index, m) if m == feedback::ARR_INT => Op::IndexArrI,
                (Op::Index, m) if m == feedback::MAP_STR => Op::IndexMapS,
                (Op::SetIndex, m) if m == feedback::ARR_INT => Op::SetIndexArrI,
                _ => *op,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    /// A host that records prints and serves a couple of host calls.
    #[derive(Default)]
    struct TestHost {
        printed: Vec<String>,
        host_calls: Vec<String>,
    }

    impl Host for TestHost {
        fn print(&mut self, text: &str) {
            self.printed.push(text.to_string());
        }

        fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, LangError> {
            self.host_calls.push(name.to_string());
            match name {
                "give_seven" => Ok(Value::Int(7)),
                "echo" => Ok(args[0].clone()),
                other => Err(LangError::runtime(format!("unknown host call `{other}`"))),
            }
        }
    }

    fn run_main(src: &str, args: Vec<Value>) -> Value {
        run_main_with(src, args, JitPolicy::default()).0
    }

    fn run_main_with(src: &str, args: Vec<Value>, policy: JitPolicy) -> (Value, ExecStats) {
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::with_policy(program, policy);
        vm.start("main", args).expect("starts");
        let out = vm.run(&mut TestHost::default()).expect("runs");
        let Outcome::Done(v) = out else {
            panic!("expected completion, got {out:?}")
        };
        (v, vm.stats())
    }

    #[test]
    fn arithmetic_and_loops() {
        let v = run_main(
            "fn main(n) { let t = 0; for (let i = 1; i <= n; i = i + 1) { t = t + i * i; } return t; }",
            vec![Value::Int(10)],
        );
        assert_eq!(v, Value::Int(385));
    }

    #[test]
    fn recursion_works() {
        let v = run_main(
            "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             fn main(n) { return fib(n); }",
            vec![Value::Int(15)],
        );
        assert!(v.eq_value(&Value::Int(610)));
    }

    #[test]
    fn while_with_break_and_continue() {
        let v = run_main(
            "fn main(x) {
                let sum = 0;
                let i = 0;
                while (true) {
                    i = i + 1;
                    if (i > 100) { break; }
                    if (i % 2 == 0) { continue; }
                    sum = sum + i;
                }
                return sum;
            }",
            vec![Value::Int(0)],
        );
        // Sum of odd numbers 1..=99 = 2500.
        assert!(v.eq_value(&Value::Int(2500)));
    }

    #[test]
    fn arrays_maps_and_builtins() {
        let v = run_main(
            r#"fn main(x) {
                let a = [1, 2, 3];
                push(a, 4);
                let m = { count: len(a), name: "fw" };
                m["extra"] = a[3];
                return str(m.count) + "-" + m.name + "-" + str(m.extra);
            }"#,
            vec![Value::Int(0)],
        );
        assert!(v.eq_value(&Value::str("4-fw-4")));
    }

    #[test]
    fn string_builtins() {
        let v = run_main(
            r#"fn main(x) {
                let parts = split("a,b,c", ",");
                return join(parts, "|") + ":" + substr("hello", 1, 3);
            }"#,
            vec![Value::Int(0)],
        );
        assert!(v.eq_value(&Value::str("a|b|c:ell")));
    }

    #[test]
    fn globals_are_shared_across_functions() {
        let program = Rc::new(
            compile(
                "let counter = 0;
                 fn bump() { counter = counter + 1; return counter; }
                 fn main(x) { bump(); bump(); return bump(); }",
            )
            .expect("compiles"),
        );
        let mut vm = Vm::new(program.clone());
        // Run the module body first (defines globals), then main.
        vm.start(crate::compiler::TOPLEVEL, vec![]).expect("starts");
        let out = vm.run(&mut TestHost::default()).expect("runs");
        assert!(matches!(out, Outcome::Done(_)));
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done");
        };
        assert!(v.eq_value(&Value::Int(3)));
    }

    #[test]
    fn short_circuit_does_not_evaluate_rhs() {
        let mut host = TestHost::default();
        let program = Rc::new(
            compile("fn main(x) { let v = false && give_seven(); return v; }").expect("compiles"),
        );
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut host).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Bool(false)));
        assert!(host.host_calls.is_empty(), "rhs must not run");
    }

    #[test]
    fn host_calls_route_to_host() {
        let mut host = TestHost::default();
        let program =
            Rc::new(compile("fn main(x) { return give_seven() + echo(x); }").expect("compiles"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::Int(5)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut host).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(12)));
        assert_eq!(host.host_calls, vec!["give_seven", "echo"]);
        assert_eq!(vm.stats().host_calls, 2);
    }

    #[test]
    fn print_goes_to_host() {
        let mut host = TestHost::default();
        let program =
            Rc::new(compile(r#"fn main(x) { print("hello", x); return null; }"#).expect("ok"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::Int(3)]).expect("starts");
        vm.run(&mut host).expect("runs");
        assert_eq!(host.printed, vec!["hello 3"]);
    }

    #[test]
    fn hotspot_policy_tiers_up_loops() {
        let (_, stats) = run_main_with(
            "fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }",
            vec![Value::Int(10_000)],
            JitPolicy::default(),
        );
        assert!(stats.compiles >= 1, "hot loop should tier up");
        assert!(
            stats.jit_ops > stats.interp_ops,
            "most ops should retire in the JIT tier: {stats:?}"
        );
        assert_eq!(stats.deopts, 0);
    }

    #[test]
    fn off_policy_never_compiles() {
        let (_, stats) = run_main_with(
            "fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }",
            vec![Value::Int(10_000)],
            JitPolicy::Off,
        );
        assert_eq!(stats.compiles, 0);
        assert_eq!(stats.jit_ops, 0);
    }

    #[test]
    fn annotated_eager_compiles_only_hinted() {
        let program = Rc::new(
            compile(
                "@jit fn hot(n) { return n * 2; }
                 fn cold(n) { return n + 1; }
                 fn main(n) { hot(n); cold(n); return hot(n) + cold(n); }",
            )
            .expect("compiles"),
        );
        let mut vm = Vm::with_policy(program, JitPolicy::AnnotatedEager);
        vm.start("main", vec![Value::Int(10)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(31)));
        assert!(vm.is_jitted("hot"));
        assert!(!vm.is_jitted("cold"));
        assert!(!vm.is_jitted("main"));
    }

    #[test]
    fn jit_results_match_interpreter_results() {
        let src = "fn work(n) {
            let acc = 0.0;
            for (let i = 1; i <= n; i = i + 1) {
                acc = acc + sqrt(float(i)) * 1.5;
                if (i % 7 == 0) { acc = acc - 1.0; }
            }
            return acc;
        }
        fn main(n) { return work(n); }";
        let (jit, s1) = run_main_with(src, vec![Value::Int(5_000)], JitPolicy::default());
        let (interp, s2) = run_main_with(src, vec![Value::Int(5_000)], JitPolicy::Off);
        assert!(jit.eq_value(&interp), "{jit} != {interp}");
        assert!(s1.compiles > 0 && s2.compiles == 0);
    }

    #[test]
    fn type_change_triggers_deopt_and_correct_result() {
        // Warm up `add` with ints so it quickens to AddII, then call it
        // with strings: the guard must fail, deopt, and still produce the
        // right answer.
        let src = r#"
            fn add(a, b) { return a + b; }
            fn main(x) {
                let t = 0;
                for (let i = 0; i < 200; i = i + 1) { t = add(t, 1); }
                return add("a", "b") + str(t);
            }"#;
        let (v, stats) = run_main_with(src, vec![Value::Int(0)], JitPolicy::default());
        assert!(v.eq_value(&Value::str("ab200")));
        assert!(stats.deopts >= 1, "expected a deopt: {stats:?}");
    }

    #[test]
    fn repeated_deopts_ban_function() {
        let src = r#"
            fn add(a, b) { return a + b; }
            fn main(x) {
                let t = 0;
                // Alternate hot int phases with type changes to force
                // repeated recompile + deopt cycles.
                for (let round = 0; round < 6; round = round + 1) {
                    for (let i = 0; i < 100; i = i + 1) { t = add(t, 1); }
                    let s = add("x", "y");
                }
                return t;
            }"#;
        let (v, stats) = run_main_with(src, vec![Value::Int(0)], JitPolicy::default());
        assert!(v.eq_value(&Value::Int(600)));
        // Compiles are bounded by the ban (each function may tier up twice
        // — quickened then optimized — per recompile allowance).
        assert!(
            stats.compiles <= 2 * (u64::from(MAX_COMPILES) + 1),
            "{stats:?}"
        );
    }

    #[test]
    fn snapshot_suspends_and_resumes() {
        let src = "fn main(x) {
            let a = 1;
            fireworks_snapshot();
            return a + x;
        }";
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::Int(10)]).expect("starts");
        let out = vm.run(&mut TestHost::default()).expect("runs");
        assert_eq!(out, Outcome::Snapshot);
        assert!(vm.is_suspended());
        let out = vm.run(&mut TestHost::default()).expect("resumes");
        let Outcome::Done(v) = out else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(11)));
    }

    #[test]
    fn snapshot_clones_resume_independently() {
        let src = "fn main(x) {
            let log = [];
            push(log, \"pre\");
            fireworks_snapshot();
            push(log, str(x));
            return join(log, \",\");
        }";
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::Int(1)]).expect("starts");
        assert_eq!(
            vm.run(&mut TestHost::default()).expect("runs"),
            Outcome::Snapshot
        );
        let snap = vm.snapshot_state();

        // Two clones resume from the same snapshot. The argument `x` is
        // frozen in the snapshot — exactly the paper's problem that the
        // parameter passer solves at a higher layer.
        let mut a = Vm::from_snapshot(&snap);
        let mut b = Vm::from_snapshot(&snap);
        let Outcome::Done(va) = a.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        let Outcome::Done(vb) = b.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(va.eq_value(&Value::str("pre,1")));
        assert!(vb.eq_value(&Value::str("pre,1")));

        // And the original can still finish, unaffected by the clones.
        let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::str("pre,1")));
    }

    #[test]
    fn snapshot_preserves_jit_tier() {
        let src = "
            fn hot(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
            fn main(x) {
                hot(1000);
                fireworks_snapshot();
                return hot(100);
            }";
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        assert_eq!(
            vm.run(&mut TestHost::default()).expect("runs"),
            Outcome::Snapshot
        );
        assert!(vm.is_jitted("hot"));
        let snap = vm.snapshot_state();
        assert!(snap.jit_code_ops() > 0);

        let mut clone = Vm::from_snapshot(&snap);
        assert!(clone.is_jitted("hot"), "JIT code must survive the snapshot");
        let Outcome::Done(v) = clone.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(4950)));
        let stats = clone.stats();
        // The resumed run executes `hot` in the JIT tier without paying
        // any compile cost — the post-JIT benefit.
        assert_eq!(stats.compiles, 0);
        assert!(stats.jit_ops > 0);
    }

    #[test]
    fn snapshot_clone_mutations_do_not_leak() {
        let src = "
            let state = { n: 0 };
            fn main(x) {
                state.n = state.n + 1;
                return state.n;
            }";
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::new(program);
        vm.start(crate::compiler::TOPLEVEL, vec![]).expect("starts");
        vm.run(&mut TestHost::default()).expect("runs");
        let snap = vm.snapshot_state();

        for _ in 0..3 {
            let mut clone = Vm::from_snapshot(&snap);
            clone.start("main", vec![Value::Int(0)]).expect("starts");
            let Outcome::Done(v) = clone.run(&mut TestHost::default()).expect("runs") else {
                panic!("expected done")
            };
            // Every clone starts from n = 0: no cross-clone leakage.
            assert!(v.eq_value(&Value::Int(1)));
        }
    }

    #[test]
    fn arity_mismatch_is_a_runtime_error() {
        let program = Rc::new(compile("fn f(a) { } fn main(x) { return x; }").expect("ok"));
        let mut vm = Vm::new(program);
        assert!(vm.start("main", vec![]).is_err());
        assert!(vm.start("nonexistent", vec![]).is_err());
    }

    #[test]
    fn division_by_zero_is_reported() {
        let program = Rc::new(compile("fn main(x) { return 1 / x; }").expect("ok"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        assert!(vm.run(&mut TestHost::default()).is_err());
    }

    #[test]
    fn quickened_division_by_zero_is_reported() {
        let src = "fn d(a, b) { return a / b; }
                   fn main(x) {
                       let t = 0;
                       for (let i = 1; i < 200; i = i + 1) { t = t + d(100, i); }
                       return d(1, x);
                   }";
        let program = Rc::new(compile(src).expect("ok"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        assert!(vm.run(&mut TestHost::default()).is_err());
    }

    #[test]
    fn out_of_bounds_index_is_reported() {
        let program = Rc::new(compile("fn main(x) { let a = [1]; return a[x]; }").expect("ok"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::Int(5)]).expect("starts");
        assert!(vm.run(&mut TestHost::default()).is_err());
    }

    #[test]
    fn missing_map_key_yields_null() {
        let v = run_main(
            "fn main(x) { let m = { a: 1 }; return m[\"missing\"]; }",
            vec![Value::Int(0)],
        );
        assert!(v.eq_value(&Value::Null));
    }

    #[test]
    fn annotation_reaches_top_tier_but_organic_heat_only_quickens() {
        let src = "
            @jit fn hot(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
            fn main(n) { hot(n); return hot(n); }";
        // Forced annotation: straight to the optimized tier.
        let program = Rc::new(compile(src).expect("ok"));
        let mut vm = Vm::with_policy(program.clone(), JitPolicy::AnnotatedEager);
        vm.start("main", vec![Value::Int(100)]).expect("starts");
        vm.run(&mut TestHost::default()).expect("runs");
        assert!(vm.is_optimized("hot"), "annotation forces the top tier");
        assert!(vm.stats().opt_ops > 0);

        // Organic heat at serverless scale: quickened, not optimized.
        let mut vm = Vm::with_policy(
            program,
            JitPolicy::HotSpot {
                call_threshold: 1,
                loop_threshold: 10,
            },
        );
        vm.start("main", vec![Value::Int(100)]).expect("starts");
        vm.run(&mut TestHost::default()).expect("runs");
        assert!(vm.is_jitted("hot"));
        assert!(
            !vm.is_optimized("hot"),
            "two invocations' heat must not reach the top tier"
        );
    }

    #[test]
    fn sustained_heat_promotes_to_top_tier() {
        let src = "fn hot(n) { return n + 1; }
                   fn main(reps) {
                       let t = 0;
                       for (let i = 0; i < reps; i = i + 1) { t = hot(t); }
                       return t;
                   }";
        let program = Rc::new(compile(src).expect("ok"));
        let mut vm = Vm::with_policy(
            program,
            JitPolicy::HotSpot {
                call_threshold: 4,
                loop_threshold: 1_000_000,
            },
        );
        // 4 × 25 (promote factor) = 100 calls needed; run well past it.
        vm.start("main", vec![Value::Int(500)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(500)));
        assert!(
            vm.is_optimized("hot"),
            "sustained traffic reaches the top tier"
        );
    }

    #[test]
    fn fuel_limits_execution() {
        let program = Rc::new(
            compile("fn main(x) { let i = 0; while (true) { i = i + 1; } return i; }").expect("ok"),
        );
        let mut vm = Vm::new(program);
        vm.set_fuel(Some(10_000));
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        let err = vm.run(&mut TestHost::default());
        assert!(matches!(err, Err(LangError::Timeout { ops }) if ops >= 10_000));
    }

    #[test]
    fn sufficient_fuel_completes_and_decrements() {
        let program = Rc::new(
            compile("fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }")
                .expect("ok"),
        );
        let mut vm = Vm::new(program);
        vm.set_fuel(Some(1_000_000));
        vm.start("main", vec![Value::Int(100)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(4950)));
        let remaining = vm.fuel().expect("fuel still set");
        assert!(remaining < 1_000_000 && remaining > 0);
    }

    #[test]
    fn no_fuel_means_unlimited() {
        let program = Rc::new(compile("fn main(n) { return n; }").expect("ok"));
        let vm = Vm::new(program);
        assert_eq!(vm.fuel(), None);
    }

    #[test]
    fn property_sites_go_monomorphic_and_hit() {
        let src = "fn main(n) {
            let p = { x: 1, y: 2 };
            let t = 0;
            for (let i = 0; i < n; i = i + 1) { t = t + p.x + p.y; }
            return t;
        }";
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::with_policy(program, JitPolicy::Off);
        vm.start("main", vec![Value::Int(100)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(300)));
        let ic = vm.ic_summary();
        assert_eq!(ic.mono, 2, "both access sites stay monomorphic: {ic:?}");
        assert_eq!(ic.mega, 0);
        // One miss per site (first observation), hits for the other 99.
        assert_eq!(vm.stats().ic_misses, 2);
        assert_eq!(vm.stats().ic_hits, 2 * 100 - 2);
    }

    #[test]
    fn ic_transitions_mono_to_poly_to_mega() {
        // One access site (`read`) sees four distinct map shapes. With a
        // poly limit of 2 the ladder is: mono(a) → poly(a,b) → mega.
        let src = "
            fn read(m) { return m.k; }
            fn main(x) {
                let a = { k: 1 };
                let b = { k: 2, extra: 0 };
                let c = { k: 3, other: 0 };
                let d = { k: 4, more: 0, yet: 1 };
                return read(a) + read(a) + read(b) + read(c) + read(d);
            }";
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::with_config(
            program,
            JitConfig::default()
                .with_policy(Some(JitPolicy::Off))
                .with_ic_poly_limit(2),
        );
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(11)));
        let ic = vm.ic_summary();
        assert_eq!(ic.sites, 1, "{ic:?}");
        assert_eq!(ic.mega, 1, "site must end megamorphic: {ic:?}");
        // Misses: first sight of a, then b (poly), c (to mega), d (mega).
        assert_eq!(vm.stats().ic_misses, 4);
        assert_eq!(vm.stats().ic_hits, 1, "second read(a) hits");
    }

    #[test]
    fn mono_shape_miss_in_compiled_code_deopts() {
        // Warm `read` on one shape until it compiles, then feed it a
        // different shape: the mono IC misses inside compiled code and
        // the function deoptimises (the restore-side hazard).
        let src = "
            fn read(m) { return m.k; }
            fn main(x) {
                let a = { k: 1 };
                let t = 0;
                for (let i = 0; i < 50; i = i + 1) { t = t + read(a); }
                let b = { k: 10, extra: 0 };
                return t + read(b);
            }";
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::with_config(
            program,
            JitConfig::default().with_policy(Some(JitPolicy::HotSpot {
                call_threshold: 4,
                loop_threshold: 1_000_000,
            })),
        );
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(60)));
        assert!(
            vm.stats().deopts >= 1,
            "shape miss must deopt: {:?}",
            vm.stats()
        );
        assert!(!vm.is_jitted("read"), "deopt demotes to the interpreter");
        assert_eq!(
            vm.ic_summary().poly,
            1,
            "site is polymorphic after the miss"
        );
    }

    #[test]
    fn code_cache_budget_evicts_lru_and_stays_within_budget() {
        // Two hot functions, a budget that fits only one compiled body:
        // compiling the second evicts the first (LRU), and occupancy
        // never exceeds the budget.
        let src = "
            fn f(n) { return n + 1; }
            fn g(n) { return n + 2; }
            fn main(x) {
                let t = 0;
                for (let i = 0; i < 40; i = i + 1) { t = f(t); }
                for (let i = 0; i < 40; i = i + 1) { t = g(t); }
                return t;
            }";
        let program = Rc::new(compile(src).expect("compiles"));
        let f_ops = program.functions[program.function("f").expect("f")]
            .chunk
            .ops
            .len();
        let g_ops = program.functions[program.function("g").expect("g")]
            .chunk
            .ops
            .len();
        let per_op = 8u64;
        // Enough for the larger of the two, not for both.
        let budget = per_op * f_ops.max(g_ops) as u64 + per_op;
        let mut vm = Vm::with_config(
            program,
            JitConfig::default()
                .with_policy(Some(JitPolicy::HotSpot {
                    call_threshold: 4,
                    loop_threshold: 1_000_000,
                }))
                .with_code_cache_capacity_bytes(budget)
                .with_code_bytes_per_op(per_op),
        );
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(120)));
        let stats = vm.stats();
        assert!(stats.code_evictions >= 1, "g must evict f: {stats:?}");
        assert!(vm.code_cache_used_bytes() <= budget);
        assert!(!vm.is_jitted("f"), "f was evicted and demoted");
        assert!(vm.is_jitted("g"), "g holds the cache at the end");
    }

    #[test]
    fn function_larger_than_budget_never_compiles() {
        let src =
            "fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }";
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::with_config(
            program,
            JitConfig::default()
                .with_policy(Some(JitPolicy::default()))
                .with_code_cache_capacity_bytes(4),
        );
        vm.start("main", vec![Value::Int(10_000)]).expect("starts");
        vm.run(&mut TestHost::default()).expect("runs");
        let stats = vm.stats();
        assert_eq!(stats.compiles, 0, "{stats:?}");
        assert_eq!(stats.jit_ops, 0);
        assert_eq!(vm.code_cache_used_bytes(), 0);
    }

    #[test]
    fn eviction_keeps_tier_accounting_consistent() {
        // The eviction bugfix invariant: total retired ops are identical
        // whether functions thrash in and out of the code cache or the
        // JIT is off entirely — demoted functions retire their ops in
        // the interpreter, never double-counted in `jit_ops`.
        let src = "
            fn f(n) { return n + 1; }
            fn g(n) { return n + 2; }
            fn main(x) {
                let t = 0;
                for (let i = 0; i < 30; i = i + 1) { t = f(t); t = g(t); }
                return t;
            }";
        let program = Rc::new(compile(src).expect("compiles"));
        let hot = JitPolicy::HotSpot {
            call_threshold: 2,
            loop_threshold: 1_000_000,
        };
        let run = |jit: JitConfig| {
            let mut vm = Vm::with_config(Rc::new(compile(src).expect("compiles")), jit);
            vm.start("main", vec![Value::Int(0)]).expect("starts");
            let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
                panic!("expected done")
            };
            (v, vm.stats())
        };
        let _ = program;
        let (v_off, s_off) = run(JitConfig::default().with_policy(Some(JitPolicy::Off)));
        let (v_thrash, s_thrash) = run(JitConfig::default()
            .with_policy(Some(hot))
            // Budget fits one tiny function at a time → constant
            // evictions as f and g alternate.
            .with_code_cache_capacity_bytes(80)
            .with_code_bytes_per_op(8));
        assert!(v_off.eq_value(&v_thrash));
        assert!(s_thrash.code_evictions > 0, "{s_thrash:?}");
        assert_eq!(
            s_off.total_ops(),
            s_thrash.total_ops(),
            "eviction must not double-count retired ops: {s_off:?} vs {s_thrash:?}"
        );
        assert_eq!(s_thrash.jit_ops + s_thrash.interp_ops, s_thrash.total_ops());
        assert!(s_thrash.opt_ops <= s_thrash.jit_ops);
    }

    #[test]
    fn snapshot_carries_ic_state_and_code_cache() {
        let src = "
            fn read(m) { return m.k; }
            fn hot(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
            fn main(x) {
                let a = { k: 7 };
                let t = 0;
                for (let i = 0; i < 50; i = i + 1) { t = t + read(a); }
                hot(1000);
                fireworks_snapshot();
                for (let i = 0; i < 50; i = i + 1) { t = t + read(a); }
                return t + hot(100);
            }";
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        assert_eq!(
            vm.run(&mut TestHost::default()).expect("runs"),
            Outcome::Snapshot
        );
        let warm_ic = vm.ic_summary();
        assert!(warm_ic.mono >= 1);
        assert!(vm.code_cache_used_bytes() > 0);
        let snap = vm.snapshot_state();
        assert_eq!(snap.code_cache_used_bytes(), vm.code_cache_used_bytes());

        let mut clone = Vm::from_snapshot(&snap);
        assert_eq!(
            clone.ic_summary(),
            warm_ic,
            "IC state survives the snapshot"
        );
        assert_eq!(clone.code_cache_used_bytes(), vm.code_cache_used_bytes());
        let Outcome::Done(v) = clone.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(700 + 4950)));
        let stats = clone.stats();
        // The warmed mono IC keeps hitting after restore: no misses and
        // no deopts — the post-JIT snapshot benefit. (Tier *promotions*
        // may still happen; what must not recur is warmup-from-cold.)
        assert_eq!(stats.ic_misses, 0, "{stats:?}");
        assert!(stats.ic_hits >= 50);
        assert_eq!(stats.deopts, 0);
    }

    #[test]
    fn restored_clone_deopts_when_traffic_changes_shape() {
        // Snapshot warmed on shape A; the clone serves shape B — it
        // must deopt after restore and still produce correct results.
        let src = "
            fn read(m) { return m.k; }
            let req = null;
            fn main(x) {
                let a = { k: 1 };
                let t = 0;
                for (let i = 0; i < 50; i = i + 1) { t = t + read(a); }
                fireworks_snapshot();
                return read(req);
            }";
        let program = Rc::new(compile(src).expect("compiles"));
        let mut vm = Vm::with_policy(
            program.clone(),
            JitPolicy::HotSpot {
                call_threshold: 4,
                loop_threshold: 1_000_000,
            },
        );
        vm.start(crate::compiler::TOPLEVEL, vec![]).expect("starts");
        vm.run(&mut TestHost::default()).expect("runs");
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        assert_eq!(
            vm.run(&mut TestHost::default()).expect("runs"),
            Outcome::Snapshot
        );
        assert!(vm.is_jitted("read"));
        let snap = vm.snapshot_state();

        let mut clone = Vm::from_snapshot(&snap);
        // Inject a different-shaped request into the clone's global.
        let g = clone
            .program
            .global_names
            .iter()
            .position(|g| g == "req")
            .expect("global exists");
        clone.globals[g] = TaggedValue::from_value(Value::map([
            ("k".to_string(), Value::Int(99)),
            ("trace".to_string(), Value::Null),
        ]));
        let Outcome::Done(v) = clone.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        assert!(v.eq_value(&Value::Int(99)));
        let stats = clone.stats();
        assert!(
            stats.deopts >= 1,
            "restore-side shape change deopts: {stats:?}"
        );
        assert!(stats.ic_misses >= 1);
    }

    #[test]
    fn heap_bytes_reflects_live_values() {
        let program = Rc::new(
            compile("let big = null; fn main(n) { big = []; for (let i = 0; i < n; i = i + 1) { push(big, \"xxxxxxxxxx\"); } return len(big); }")
                .expect("ok"),
        );
        let mut vm = Vm::new(program);
        vm.start(crate::compiler::TOPLEVEL, vec![]).expect("starts");
        vm.run(&mut TestHost::default()).expect("runs");
        let before = vm.heap_bytes();
        vm.start("main", vec![Value::Int(1000)]).expect("starts");
        vm.run(&mut TestHost::default()).expect("runs");
        assert!(vm.heap_bytes() > before + 10_000);
    }
}
