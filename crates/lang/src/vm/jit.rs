//! Tiering: per-function heat and type feedback, the compile decision,
//! the budgeted code cache, guards and deoptimisation.
//!
//! A tier is data, not code: compiled code is the function's own bytecode
//! with a [`Class`] guard attached to the sites whose feedback was
//! monomorphic ([`quicken`]), and the dispatch loop runs it through the
//! same op implementations as the interpreter. What a tier changes is what
//! [`Vm::observe`] does at a guardable site and which counter an op retires
//! on — the speed gap itself is the runtime profile's virtual per-op cost.

use std::rc::Rc;

use super::ic::IcSite;
use super::{JitPolicy, Site, Vm};
use crate::bytecode::{BinKind, Chunk, Class, Op};

/// Maximum recompilations of one function before JIT gives up on it.
pub(super) const MAX_COMPILES: u32 = 3;
/// How much more compile work the optimizing tier does per bytecode op.
const OPT_COMPILE_FACTOR: u64 = 3;
/// Multiplier on the hot-spot thresholds before a quickened function is
/// promoted to the optimized tier. High enough that one or two serverless
/// invocations do not organically reach the top tier — only forced
/// annotation or sustained traffic does.
const OPT_PROMOTE_FACTOR: u32 = 25;

/// The two compiled tiers: quickened (baseline) and optimized (the top
/// tier, reached under sustained heat or by forced annotation — V8's
/// TurboFan, Numba's nopython mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Level {
    Quick,
    Opt,
}

/// What makes a function hotter.
#[derive(Debug, Clone, Copy)]
pub(super) enum Heat {
    Call,
    BackEdge,
}

/// JIT tier of one function: interpreted, or compiled at a [`Level`].
#[derive(Debug, Clone)]
pub(super) enum Tier {
    Interp,
    Compiled(Level, Rc<Vec<Op>>),
}

/// Mutable per-function state (profiling counters, tier, feedback,
/// inline caches, code-cache accounting).
#[derive(Debug, Clone)]
pub(super) struct FnState {
    calls: u32,
    back_edges: u32,
    pub(super) tier: Tier,
    /// Per-site union of the [`Class`] bits observed outside compiled code.
    feedback: Vec<u8>,
    compiles: u32,
    banned: bool,
    /// Inline caches indexed by op index: empty until the function's first
    /// property access, then one per op (only property-access sites step).
    pub(super) ics: Vec<IcSite>,
    /// Last execution tick (call dispatch or back-edge) — the LRU key
    /// for code-cache eviction.
    last_exec: u64,
    /// Modelled code bytes this function holds in the code cache
    /// (0 while interpreted).
    code_bytes: u64,
}

impl FnState {
    pub(super) fn new() -> Self {
        FnState {
            calls: 0,
            back_edges: 0,
            tier: Tier::Interp,
            feedback: Vec::new(),
            compiles: 0,
            banned: false,
            ics: Vec::new(),
            last_exec: 0,
            code_bytes: 0,
        }
    }

    /// The compiled tier this function runs in, if any.
    pub(super) fn level(&self) -> Option<Level> {
        match self.tier {
            Tier::Interp => None,
            Tier::Compiled(level, _) => Some(level),
        }
    }

    /// Compiled ops this function holds in the code cache.
    pub(super) fn code_ops(&self) -> usize {
        match &self.tier {
            Tier::Interp => 0,
            Tier::Compiled(_, code) => code.len(),
        }
    }
}

impl Vm {
    fn should_compile(&self, func: usize) -> Option<Level> {
        let st = &self.fn_states[func];
        let level = st.level();
        if st.banned || level == Some(Level::Opt) {
            return None;
        }
        match self.policy {
            JitPolicy::Off => None,
            JitPolicy::HotSpot {
                call_threshold,
                loop_threshold,
            } => {
                // Interpreter → quickened at the base thresholds;
                // quickened → optimized only under sustained heat — one
                // warm benchmark run typically does not get there, which
                // is why forced post-JIT code still beats warm starts.
                let (target, factor) = match level {
                    None => (Level::Quick, 1),
                    Some(_) => (Level::Opt, OPT_PROMOTE_FACTOR),
                };
                (st.calls >= call_threshold.saturating_mul(factor)
                    || st.back_edges >= loop_threshold.saturating_mul(factor))
                .then_some(target)
            }
            // Annotation forces the top tier directly (Numba nopython /
            // explicitly triggered V8 optimization), once type feedback
            // from the first call exists.
            JitPolicy::AnnotatedEager => (self.program.functions[func].jit_hint
                && (st.calls >= 2 || st.back_edges >= 1))
                .then_some(Level::Opt),
        }
    }

    /// Counts a call dispatch or a loop back-edge of `func`, stamps its LRU
    /// tick, and compiles it if that made it hot enough.
    pub(super) fn heat(&mut self, func: usize, by: Heat) {
        self.exec_tick += 1;
        let st = &mut self.fn_states[func];
        st.last_exec = self.exec_tick;
        match by {
            Heat::Call => st.calls += 1,
            Heat::BackEdge => st.back_edges += 1,
        }
        self.maybe_tier_up(func);
    }

    /// Compiles `func` if the policy says it is time and the code cache
    /// can hold it.
    fn maybe_tier_up(&mut self, func: usize) {
        let Some(level) = self.should_compile(func) else {
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
        let work = match level {
            Level::Quick => 1,
            Level::Opt => OPT_COMPILE_FACTOR,
        };
        self.stats.compiles += 1;
        self.stats.compile_ops += chunk.ops.len() as u64 * work;
        self.epoch += 1;
        self.code_bytes_used = self.code_bytes_used - already + cost;
        let st = &mut self.fn_states[func];
        st.compiles += 1;
        st.code_bytes = cost;
        st.tier = Tier::Compiled(level, Rc::new(quicken(&chunk, &st.feedback)));
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
        self.epoch += 1;
        true
    }

    /// Deoptimises the function running at `at`: back to the interpreter,
    /// release its code bytes, poison the site, and ban the function after
    /// too many recompilations.
    pub(super) fn deopt(&mut self, at: Site) {
        self.stats.deopts += 1;
        self.epoch += 1;
        let st = &mut self.fn_states[at.func];
        self.code_bytes_used -= st.code_bytes;
        st.code_bytes = 0;
        st.tier = Tier::Interp;
        if st.compiles >= MAX_COMPILES {
            st.banned = true;
        }
        self.record_feedback(at, Class::Other);
    }

    fn record_feedback(&mut self, at: Site, class: Class) {
        let st = &mut self.fn_states[at.func];
        if st.feedback.is_empty() {
            st.feedback = vec![0; self.program.functions[at.func].chunk.ops.len()];
        }
        st.feedback[at.ip] |= class as u8;
    }

    /// The tier bookkeeping of a guardable site whose operands are
    /// `class`. Compiled code checks the site's guard: a mismatch
    /// deoptimises, and the op carries on as the interpreter would run it.
    /// Anything not running compiled code records what it saw.
    #[inline]
    pub(super) fn observe(&mut self, at: Site, guard: Option<Class>, class: Class) {
        // Only the holding guard is inlined into the op: with the rest of
        // the bookkeeping out of line, the dispatch loop keeps its registers.
        if !(at.compiled && guard == Some(class)) {
            self.observe_slow(at, guard, class);
        }
    }

    #[inline(never)]
    fn observe_slow(&mut self, at: Site, guard: Option<Class>, class: Class) {
        if at.compiled {
            if guard.is_none() {
                return;
            }
            self.deopt(at);
        }
        self.record_feedback(at, class);
    }
}

/// The operand classes an op has a compiled form for. This table decides
/// which sites carry a guard and can therefore deoptimise.
fn guardable(op: &Op) -> &'static [Class] {
    use BinKind::*;
    match op {
        Op::Binary { kind, .. } => match kind {
            Add => &[Class::IntInt, Class::FloatNum, Class::StrStr],
            Sub | Mul | Div => &[Class::IntInt, Class::FloatNum],
            Mod | Lt | Le | Gt | Ge => &[Class::IntInt],
        },
        Op::Index { .. } => &[Class::ArrInt, Class::MapStr],
        Op::SetIndex { .. } => &[Class::ArrInt],
        _ => &[],
    }
}

/// Quickens a chunk: each guardable op whose feedback is exactly one class
/// it has a compiled form for gets that class as its guard; everything
/// else is copied. Output length equals input length, so jump targets and
/// deopt indices remain valid.
fn quicken(chunk: &Chunk, feedback: &[u8]) -> Vec<Op> {
    let mut code = chunk.ops.clone();
    for (i, op) in code.iter_mut().enumerate() {
        let seen = feedback.get(i).copied().unwrap_or(0);
        let assumed = guardable(op).iter().copied().find(|c| *c as u8 == seen);
        if let Op::Binary { guard, .. } | Op::Index { guard } | Op::SetIndex { guard } = op {
            *guard = assumed;
        }
    }
    code
}
