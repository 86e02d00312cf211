//! Interned identifiers for the Platform API v3.
//!
//! Every hot path in the simulator used to carry function and host
//! names as strings: `InvokeRequest.function: String`, routers FNV-
//! hashing `&str` per decision, registries and meshes keyed by
//! `String`. At planet scale (128 hosts × millions of invocations) the
//! per-event hashing and cloning dominates the event loop. API v3
//! interns names once into dense `u32` identifiers — [`FunctionId`]
//! and [`HostId`] — and keys everything downstream by id:
//!
//! - equality and hashing are single-word operations;
//! - registries become dense id-indexed tables ([`IdMap`]) instead of
//!   string hash maps;
//! - the human-readable name is recovered only at the edges (error
//!   construction, metric labels, JSON export) via [`FunctionId::name`].
//!
//! Interning goes through a per-thread [`SymbolTable`]: the simulator
//! is single-threaded by construction (everything is `Rc`-based), so a
//! thread-local table gives every component the same id for the same
//! name with no handle-threading. Ids are assigned in first-intern
//! order, which is itself a pure function of program flow — two
//! same-seed runs intern in the same order and therefore agree on
//! every id, keeping byte-identical determinism.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// An interned function name.
///
/// Mint one with the free function [`fid`]; recover the name with
/// [`FunctionId::name`]. Comparing,
/// hashing, and indexing by `FunctionId` never touches the string.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub struct FunctionId(u32);

impl FunctionId {
    /// The interned name, cheaply cloned out of the table.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this thread's table (e.g. a
    /// raw id fabricated with [`FunctionId::from_raw`] that was never
    /// interned).
    pub fn name(self) -> Rc<str> {
        GLOBAL.with(|t| {
            t.borrow()
                .resolve(self)
                .unwrap_or_else(|| panic!("FunctionId({}) was never interned", self.0))
        })
    }

    /// The raw dense index (0-based, in first-intern order).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from [`FunctionId::raw`]. Only meaningful for
    /// values obtained from `raw` on the same thread.
    pub fn from_raw(raw: u32) -> FunctionId {
        FunctionId(raw)
    }
}

impl fmt::Debug for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = GLOBAL.with(|t| t.borrow().resolve(*self));
        match name {
            Some(name) => write!(f, "FunctionId({} \"{name}\")", self.0),
            None => write!(f, "FunctionId({})", self.0),
        }
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = GLOBAL.with(|t| t.borrow().resolve(*self));
        match name {
            Some(name) => write!(f, "{name}"),
            None => write!(f, "#{}", self.0),
        }
    }
}

/// A typed cluster host index.
///
/// Hosts are dense 0-based indices assigned by the cluster in creation
/// order (plus reserved sentinel slots like the elastic archive), so no
/// interning is needed — the type exists so host ids and other integers
/// cannot be confused at API boundaries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub struct HostId(u32);

impl HostId {
    /// Wraps a dense host index.
    pub fn from_index(index: usize) -> HostId {
        HostId(u32::try_from(index).expect("host index fits u32"))
    }

    /// The dense index, for table addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HostId({})", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A bidirectional name ↔ id table.
///
/// The simulator normally uses the thread-local instance through
/// [`fid`] / [`FunctionId::name`], but the table is a plain value type
/// and can be used standalone:
///
/// ```
/// use fireworks_core::symbols::SymbolTable;
///
/// let mut table = SymbolTable::new();
/// let hot = table.intern("hot");
/// assert_eq!(table.intern("hot"), hot, "interning is idempotent");
/// assert_eq!(table.resolve(hot).as_deref(), Some("hot"));
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SymbolTable {
    names: Vec<Rc<str>>,
    index: HashMap<Rc<str>, u32>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Interns `name`, assigning the next dense id on first sight.
    pub fn intern(&mut self, name: &str) -> FunctionId {
        if let Some(&id) = self.index.get(name) {
            return FunctionId(id);
        }
        let id = u32::try_from(self.names.len()).expect("symbol table fits u32");
        let name: Rc<str> = Rc::from(name);
        self.names.push(name.clone());
        self.index.insert(name, id);
        FunctionId(id)
    }

    /// The name behind `id`, if `id` was minted by this table.
    pub fn resolve(&self, id: FunctionId) -> Option<Rc<str>> {
        self.names.get(id.0 as usize).cloned()
    }

    /// The id for `name`, if already interned (no insertion).
    pub fn lookup(&self, name: &str) -> Option<FunctionId> {
        self.index.get(name).map(|&id| FunctionId(id))
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

thread_local! {
    static GLOBAL: RefCell<SymbolTable> = RefCell::new(SymbolTable::new());
}

/// Interns `name` in the thread-local [`SymbolTable`] and returns its
/// id. Idempotent: the same name always yields the same id within a
/// thread.
pub fn fid(name: &str) -> FunctionId {
    GLOBAL.with(|t| t.borrow_mut().intern(name))
}

/// A dense id-indexed map: `Vec`-backed storage addressed by
/// [`FunctionId::raw`], replacing `HashMap<String, V>` on hot paths.
///
/// Lookups are a bounds check and an index; iteration is in ascending
/// id order (first-intern order), which is deterministic for
/// deterministic program flows. Slots for ids never inserted cost one
/// `Option<V>` each — fine for the dense ids the interner hands out.
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<V> IdMap<V> {
    /// An empty map.
    pub fn new() -> IdMap<V> {
        IdMap::default()
    }

    /// The value for `id`, if present.
    #[inline]
    pub fn get(&self, id: FunctionId) -> Option<&V> {
        self.slots.get(id.raw() as usize).and_then(Option::as_ref)
    }

    /// The value for `id`, mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, id: FunctionId) -> Option<&mut V> {
        self.slots
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
    }

    /// Whether `id` has a value.
    #[inline]
    pub fn contains(&self, id: FunctionId) -> bool {
        self.get(id).is_some()
    }

    /// Inserts (or replaces) the value for `id`, returning the previous
    /// value if any. Grows the backing table as needed.
    pub fn insert(&mut self, id: FunctionId, value: V) -> Option<V> {
        let idx = id.raw() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value for `id`.
    pub fn remove(&mut self, id: FunctionId) -> Option<V> {
        let old = self.slots.get_mut(id.raw() as usize)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Present `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (FunctionId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (FunctionId(i as u32), v)))
    }

    /// Present values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Present values, mutably, in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }

    /// Present ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = FunctionId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|_| FunctionId(i as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let a = fid("sym-test-a");
        let b = fid("sym-test-b");
        assert_ne!(a, b);
        assert_eq!(fid("sym-test-a"), a);
        assert_eq!(a.name().as_ref(), "sym-test-a");
        assert_eq!(FunctionId::from_raw(a.raw()), a);
        assert_eq!(format!("{a}"), "sym-test-a");
    }

    #[test]
    fn standalone_table_round_trips() {
        let mut t = SymbolTable::new();
        assert!(t.is_empty());
        let x = t.intern("x");
        let y = t.intern("y");
        assert_eq!(t.intern("x"), x);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(x).as_deref(), Some("x"));
        assert_eq!(t.lookup("y"), Some(y));
        assert_eq!(t.lookup("z"), None);
        assert_eq!(t.resolve(FunctionId::from_raw(99)), None);
    }

    #[test]
    fn host_ids_wrap_dense_indices() {
        let h = HostId::from_index(7);
        assert_eq!(h.index(), 7);
        assert_eq!(h.raw(), 7);
        assert_eq!(format!("{h}"), "7");
        assert!(HostId::from_index(1) < HostId::from_index(2));
    }

    #[test]
    fn id_map_inserts_removes_and_iterates_in_id_order() {
        let a = fid("idmap-a");
        let b = fid("idmap-b");
        let mut m: IdMap<u64> = IdMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(b, 2), None);
        assert_eq!(m.insert(a, 1), None);
        assert_eq!(m.insert(a, 10), Some(1));
        assert_eq!(m.len(), 2);
        assert!(m.contains(a));
        assert_eq!(m.get(b), Some(&2));
        *m.get_mut(b).expect("present") += 1;
        let pairs: Vec<(FunctionId, u64)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(pairs, vec![(a, 10), (b, 3)], "ascending id order");
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(m.remove(b), Some(3));
        assert_eq!(m.remove(b), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![10]);
    }
}
