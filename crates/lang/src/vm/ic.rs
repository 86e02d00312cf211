//! Property access (`base.name`) and its per-site inline caches.
//!
//! Lookup semantics are identical to `base["name"]`; the cache only
//! shapes the cost model (hit/miss counters, deopt on a shape change in
//! compiled code).

use std::collections::{BTreeMap, HashMap};

use super::{Site, Vm};
use crate::error::LangError;
use crate::value::Value;

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
pub(super) struct IcSite {
    state: IcState,
    hits: u64,
    misses: u64,
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
pub(super) struct ShapeTable {
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

impl Vm {
    /// Aggregates inline-cache state across all functions.
    pub fn ic_summary(&self) -> IcSummary {
        let mut out = IcSummary::default();
        for site in self.fn_states.iter().flat_map(|st| st.ics.values()) {
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
        out
    }

    /// Advances one property-access site's inline cache for an observed
    /// map shape. Returns `true` when the access must deoptimise: a
    /// monomorphic site compiled on one shape just saw another while
    /// running compiled code (the paper's restore-side deopt hazard).
    fn ic_access(&mut self, at: Site, shape: u32) -> bool {
        let limit = usize::from(self.jit.ic_poly_limit.max(1));
        let ic = self.fn_states[at.func]
            .ics
            .entry(at.ip as u32)
            .or_insert_with(|| IcSite {
                state: IcState::Uninit,
                hits: 0,
                misses: 0,
            });
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
                deopt_now = at.compiled;
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

    /// What a property load and a property store share: resolves the key
    /// constant, requires a map under `base`, steps the site's inline cache
    /// on the map's shape as it is *before* the access — so a store that
    /// adds a key is a transition the next access at this site sees — and
    /// then runs `access` on the map.
    fn prop<R>(
        &mut self,
        at: Site,
        key_const: u16,
        base: Value,
        store: bool,
        access: impl FnOnce(&mut BTreeMap<String, Value>, &str) -> R,
    ) -> Result<R, LangError> {
        let key = match &self.chunk(at.func).consts[key_const as usize] {
            Value::Str(s) => s.clone(),
            other => {
                return Err(LangError::runtime(format!(
                    "property name must be a string, got {}",
                    other.type_name()
                )))
            }
        };
        let Value::Map(map) = &base else {
            let ty = base.type_name();
            return Err(LangError::runtime(if store {
                format!("cannot assign into {ty} with string index")
            } else {
                format!("cannot index {ty} with string")
            }));
        };
        let hash = shape_hash(&map.borrow());
        let shape = self.shapes.intern(hash);
        if self.ic_access(at, shape) {
            self.deopt(at);
        }
        let out = access(&mut map.borrow_mut(), &key);
        Ok(out)
    }

    /// `base.name`.
    #[inline(never)]
    pub(super) fn get_prop(&mut self, at: Site, key_const: u16) -> Result<(), LangError> {
        let base = self.pop_value();
        let load = |map: &mut BTreeMap<String, Value>, key: &str| map.get(key).cloned();
        let v = self.prop(at, key_const, base, false, load)?;
        self.push_value(v.unwrap_or(Value::Null));
        Ok(())
    }

    /// `base.name = value`.
    #[inline(never)]
    pub(super) fn set_prop(&mut self, at: Site, key_const: u16) -> Result<(), LangError> {
        let value = self.pop_value();
        let base = self.pop_value();
        let store =
            |map: &mut BTreeMap<String, Value>, key: &str| map.insert(key.to_string(), value);
        self.prop(at, key_const, base, true, store)?;
        Ok(())
    }
}
