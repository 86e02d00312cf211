//! Property access (`base.name`) and its per-site inline caches.
//!
//! A map carries its shape word ([`Map::shape`]: FNV-1a over its sorted key
//! list, cached until the key set changes), and a site caches, per shape it
//! has seen, the offset of its key in maps of that shape. A hit compares the
//! shape word and loads the entry at the cached offset — after checking
//! that entry's key is the site's, since a shape word is a hash. A miss
//! looks the key up and moves the site along the ladder mono → poly → mega;
//! a monomorphic site that misses in compiled code deoptimises the
//! function. The base map and the result stay tagged words on the stack.

use super::{Site, Vm};
use crate::error::LangError;
use crate::tagged::TaggedValue;
use crate::value::Map;

/// A shape a site has seen, and where the site's key sits in maps of that
/// shape ([`ABSENT`] when they lack it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cached {
    shape: u64,
    offset: u32,
}

/// The offset cached for a shape whose maps lack the site's key.
const ABSENT: u32 = u32::MAX;

/// One property-access site's inline-cache state: monomorphic after the
/// first observed shape, polymorphic up to the configured limit, then
/// megamorphic (every access a miss) — the V8/SpiderMonkey ladder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum IcState {
    #[default]
    Uninit,
    Mono(Cached),
    Poly(Vec<Cached>),
    Mega,
}

/// Per-site inline cache with hit/miss counters. Every op index of a
/// function that runs a property access has one (`FnState::ics`).
#[derive(Debug, Clone, Default)]
pub(super) struct IcSite {
    state: IcState,
    hits: u64,
    misses: u64,
}

impl IcSite {
    /// The offset cached for `shape`, if the site has seen it.
    #[inline]
    fn lookup(&self, shape: u64) -> Option<u32> {
        match &self.state {
            IcState::Mono(c) if c.shape == shape => Some(c.offset),
            IcState::Poly(cached) => cached.iter().find(|c| c.shape == shape).map(|c| c.offset),
            _ => None,
        }
    }

    /// Records a miss on `seen` and moves up the ladder. Returns `true`
    /// when a monomorphic site compiled on another shape must deoptimise.
    fn miss(&mut self, seen: Cached, limit: usize, compiled: bool) -> bool {
        self.misses += 1;
        let mut deopt = false;
        self.state = match std::mem::take(&mut self.state) {
            IcState::Uninit => IcState::Mono(seen),
            IcState::Mono(c) => {
                deopt = compiled;
                if limit >= 2 {
                    IcState::Poly(vec![c, seen])
                } else {
                    IcState::Mega
                }
            }
            IcState::Poly(mut cached) if cached.len() < limit => {
                cached.push(seen);
                IcState::Poly(cached)
            }
            IcState::Poly(_) | IcState::Mega => IcState::Mega,
        };
        deopt
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

impl Vm {
    /// Aggregates inline-cache state across all functions.
    pub fn ic_summary(&self) -> IcSummary {
        let mut out = IcSummary::default();
        for site in self.fn_states.iter().flat_map(|st| &st.ics) {
            match &site.state {
                IcState::Uninit => continue,
                IcState::Mono(_) => out.mono += 1,
                IcState::Poly(_) => out.poly += 1,
                IcState::Mega => out.mega += 1,
            }
            out.sites += 1;
            out.hits += site.hits;
            out.misses += site.misses;
        }
        out
    }

    /// What a property load and a property store share: requires a map on
    /// top of the stack, steps the site's inline cache on the map's shape
    /// as it is *before* the access — so a store that adds a key is a
    /// transition the next access at this site sees — and runs `access` on
    /// the map with the key and where it sits.
    #[inline]
    fn prop<R>(
        &mut self,
        at: Site,
        key: &TaggedValue,
        store: bool,
        access: impl FnOnce(&mut Map, &str, Option<usize>) -> R,
    ) -> Result<R, LangError> {
        let Some(key) = key.as_str() else {
            return Err(LangError::runtime(format!(
                "property name must be a string, got {}",
                key.type_name()
            )));
        };
        let base = self.stack.last().expect("base on stack");
        let Some(map) = base.as_map() else {
            return Err(not_a_map(base, store));
        };
        let mut map = map.borrow_mut();
        let shape = map.shape();
        let st = &mut self.fn_states[at.func];
        if st.ics.is_empty() {
            let n_ops = self.program.functions[at.func].chunk.ops.len();
            st.ics.resize_with(n_ops, IcSite::default);
        }
        let site = &mut st.ics[at.ip];
        let mut deopt = false;
        let offset = match site.lookup(shape) {
            Some(offset) => {
                site.hits += 1;
                self.stats.ic_hits += 1;
                match map.entry_at(offset as usize) {
                    Some((k, _)) if k == key => Some(offset as usize),
                    // A shape word is a hash: another key set may share it.
                    _ => map.position(key),
                }
            }
            None => {
                let offset = map.position(key);
                let seen = Cached {
                    shape,
                    offset: offset.map_or(ABSENT, |i| i as u32),
                };
                let limit = usize::from(self.jit.ic_poly_limit.max(1));
                deopt = site.miss(seen, limit, at.compiled);
                self.stats.ic_misses += 1;
                offset
            }
        };
        let out = access(&mut map, key, offset);
        drop(map);
        if deopt {
            self.deopt(at);
        }
        Ok(out)
    }

    /// `base.name`: the base on top of the stack becomes the value.
    #[inline(never)]
    pub(super) fn get_prop(&mut self, at: Site, key: &TaggedValue) -> Result<(), LangError> {
        let load = |map: &mut Map, _: &str, offset: Option<usize>| match offset {
            Some(i) => TaggedValue::from_value(map.entry_at(i).expect("offset in map").1.clone()),
            None => TaggedValue::null(),
        };
        match self.prop(at, key, false, load) {
            Ok(v) => {
                *self.stack.last_mut().expect("base on stack") = v;
                Ok(())
            }
            Err(e) => {
                self.pop();
                Err(e)
            }
        }
    }

    /// `base.name = value`; the stack is `base, value`.
    #[inline(never)]
    pub(super) fn set_prop(&mut self, at: Site, key: &TaggedValue) -> Result<(), LangError> {
        let value = self.pop().into_value();
        let store = |map: &mut Map, key: &str, offset: Option<usize>| match offset {
            Some(i) => map.set_at(i, value),
            None => {
                map.insert(key.to_string(), value);
            }
        };
        let out = self.prop(at, key, true, store);
        self.pop();
        out
    }
}

#[cold]
fn not_a_map(base: &TaggedValue, store: bool) -> LangError {
    let ty = base.type_name();
    LangError::runtime(if store {
        format!("cannot assign into {ty} with string index")
    } else {
        format!("cannot index {ty} with string")
    })
}
