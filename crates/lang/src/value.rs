//! Flame runtime values.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::ops::Index;
use std::rc::Rc;

/// A Flame value.
///
/// Arrays and maps are reference types (`Rc<RefCell<..>>`), matching the
/// aliasing semantics of JavaScript objects and Python lists/dicts. A
/// [`Map`] keeps its keys sorted, so iteration order (and thus simulation
/// output) is deterministic.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Immutable string.
    Str(Rc<str>),
    /// Mutable array.
    Array(Rc<RefCell<Vec<Value>>>),
    /// Mutable string-keyed map.
    Map(Rc<RefCell<Map>>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Builds an array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(items)))
    }

    /// Builds a map value.
    pub fn map(entries: impl IntoIterator<Item = (String, Value)>) -> Value {
        Value::Map(Rc::new(RefCell::new(entries.into_iter().collect())))
    }

    /// Truthiness: `null`, `false`, `0`, `0.0`, and `""` are falsy;
    /// everything else (including empty containers) is truthy.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Array(_) | Value::Map(_) => true,
        }
    }

    /// The type name used in error messages and type feedback.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Map(_) => "map",
        }
    }

    /// Structural equality (`==` in Flame). Numbers compare across
    /// int/float; containers compare by contents.
    pub fn eq_value(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => {
                if Rc::ptr_eq(a, b) {
                    return true;
                }
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.eq_value(y))
            }
            (Value::Map(a), Value::Map(b)) => {
                if Rc::ptr_eq(a, b) {
                    return true;
                }
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.eq_value(vb))
            }
            _ => false,
        }
    }

    /// Deep-clones a value, preserving aliasing: if the same array/map
    /// occurs twice in the input graph, the output contains one clone
    /// referenced twice. Used by VM snapshots so restored clones share no
    /// mutable state with the original.
    ///
    /// Cyclic structures are handled via the identity map.
    pub fn deep_clone(&self) -> Value {
        self.deep_clone_with(&mut HashMap::new())
    }

    /// [`Value::deep_clone`] against a caller-held identity map (source
    /// address → clone), so several roots cloned through the same map
    /// keep the aliasing between them.
    pub(crate) fn deep_clone_with(&self, seen: &mut HashMap<usize, Value>) -> Value {
        match self {
            Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_) => {
                self.clone()
            }
            Value::Array(rc) => {
                let key = Rc::as_ptr(rc) as usize;
                if let Some(existing) = seen.get(&key) {
                    return existing.clone();
                }
                let new_rc = Rc::new(RefCell::new(Vec::new()));
                seen.insert(key, Value::Array(new_rc.clone()));
                let cloned: Vec<Value> = rc
                    .borrow()
                    .iter()
                    .map(|v| v.deep_clone_with(seen))
                    .collect();
                *new_rc.borrow_mut() = cloned;
                Value::Array(new_rc)
            }
            Value::Map(rc) => {
                let key = Rc::as_ptr(rc) as usize;
                if let Some(existing) = seen.get(&key) {
                    return existing.clone();
                }
                let new_rc = Rc::new(RefCell::new(Map::new()));
                seen.insert(key, Value::Map(new_rc.clone()));
                let cloned = {
                    let map = rc.borrow();
                    let entries = map.entries.iter();
                    let entries = entries.map(|(k, v)| (k.clone(), v.deep_clone_with(seen)));
                    Map {
                        shape: map.shape.clone(),
                        ..Map::from_sorted(entries.collect())
                    }
                };
                *new_rc.borrow_mut() = cloned;
                Value::Map(new_rc)
            }
        }
    }

    /// A rough heap-size estimate in bytes, used by the runtime memory
    /// model to size the execution-state region.
    pub fn heap_estimate(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) => 16,
            Value::Str(s) => 24 + s.len(),
            Value::Array(a) => 32 + a.borrow().iter().map(Value::heap_estimate).sum::<usize>(),
            Value::Map(m) => {
                48 + m
                    .borrow()
                    .iter()
                    .map(|(k, v)| 24 + k.len() + v.heap_estimate())
                    .sum::<usize>()
            }
        }
    }
}

/// A Flame map: string keys in sorted order, and the map's *shape*.
///
/// Entries are one `Vec` kept sorted by key, so printing, [`Map::keys`],
/// equality and deep clones see the order a `BTreeMap` would give; guest
/// maps are small (every shipped guest's have at most eight keys), where a
/// sorted vector beats a tree.
///
/// The shape is FNV-1a over the sorted key list: computed on first use,
/// kept while values are overwritten, dropped when the key set changes
/// (an insert of a new key, a removal). Two maps with the same keys have
/// the same shape, and the key at a given offset is the same in both —
/// which is what a property-access inline cache relies on to turn a hit
/// into a compare and a load.
#[derive(Clone, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
    shape: Cell<Option<u64>>,
}

/// Entries a map built from entries has room for before it first grows:
/// like CPython's dict (`PyDict_MINSIZE`), room for eight, so the keys a
/// guest adds to a small map do not reallocate it. Exact-size maps (two
/// slots for a request's arguments) also changed which heap pages glibc
/// keeps between the benchmark's repetitions: `warm_io`'s set-up refaulted
/// ~2 800 pages per repetition and took 1.7× as long.
const MIN_CAPACITY: usize = 8;

impl Map {
    /// An empty map.
    pub fn new() -> Map {
        Map::default()
    }

    /// A map of `entries`, which are sorted by key without duplicates.
    fn from_sorted(mut entries: Vec<(String, Value)>) -> Map {
        entries.reserve_exact(MIN_CAPACITY.saturating_sub(entries.len()));
        Map {
            entries,
            shape: Cell::new(None),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Where `key` sits in the entry list, if present.
    pub(crate) fn position(&self, key: &str) -> Option<usize> {
        self.search(key).ok()
    }

    fn search(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).map(|i| &self.entries[i].1)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.position(key).is_some()
    }

    /// The entry at `offset` in key order.
    pub(crate) fn entry_at(&self, offset: usize) -> Option<(&str, &Value)> {
        self.entries.get(offset).map(|(k, v)| (k.as_str(), v))
    }

    /// Overwrites the value at `offset` (see [`Map::position`]); the key
    /// set, and so the shape, stays as it is.
    pub(crate) fn set_at(&mut self, offset: usize, value: Value) {
        self.entries[offset].1 = value;
    }

    /// Sets `key` to `value`, returning the value it replaces.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                self.shape.set(None);
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.position(key)?;
        self.shape.set(None);
        Some(self.entries.remove(i).1)
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The map's shape word: FNV-1a over the key list (values do not
    /// affect it), cached until the key set changes.
    #[inline]
    pub fn shape(&self) -> u64 {
        match self.shape.get() {
            Some(shape) => shape,
            None => self.compute_shape(),
        }
    }

    #[inline(never)]
    fn compute_shape(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for k in self.keys() {
            for b in k.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.shape.set(Some(h));
        h
    }
}

impl FromIterator<(String, Value)> for Map {
    /// Collects entries; of several under one key the last wins, as for
    /// repeated [`Map::insert`]s.
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(entries: I) -> Map {
        let mut entries: Vec<_> = entries.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        // The sort is stable, so of equal keys the last one written is the
        // last one of its run: keep its value in the run's first slot.
        entries.dedup_by(|later, kept| {
            let duplicate = later.0 == kept.0;
            if duplicate {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            duplicate
        });
        Map::from_sorted(entries)
    }
}

impl Index<&str> for Map {
    type Output = Value;

    /// The value under `key`; panics when it is absent.
    fn index(&self, key: &str) -> &Value {
        self.get(key).expect("key not found in map")
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl PartialEq for Value {
    /// Structural equality, same as [`Value::eq_value`].
    fn eq(&self, other: &Value) -> bool {
        self.eq_value(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_dynamic_languages() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Float(0.0).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::Int(-1).truthy());
        assert!(Value::array(vec![]).truthy());
        assert!(Value::map([]).truthy());
    }

    #[test]
    fn equality_is_structural_and_numeric_cross_type() {
        assert!(Value::Int(3).eq_value(&Value::Float(3.0)));
        assert!(!Value::Int(3).eq_value(&Value::str("3")));
        let a = Value::array(vec![Value::Int(1), Value::str("x")]);
        let b = Value::array(vec![Value::Int(1), Value::str("x")]);
        assert!(a.eq_value(&b));
        let m1 = Value::map([("k".to_string(), Value::Int(1))]);
        let m2 = Value::map([("k".to_string(), Value::Int(1))]);
        assert!(m1.eq_value(&m2));
    }

    #[test]
    fn deep_clone_severs_aliasing_with_original() {
        let inner = Value::array(vec![Value::Int(1)]);
        let outer = Value::array(vec![inner.clone(), inner.clone()]);
        let cloned = outer.deep_clone();
        // Mutate the original inner array.
        if let Value::Array(rc) = &inner {
            rc.borrow_mut().push(Value::Int(2));
        }
        // The clone must not see the mutation.
        if let Value::Array(rc) = &cloned {
            let items = rc.borrow();
            if let Value::Array(first) = &items[0] {
                assert_eq!(first.borrow().len(), 1);
            } else {
                panic!("expected array");
            }
        } else {
            panic!("expected array");
        }
    }

    #[test]
    fn deep_clone_preserves_internal_aliasing() {
        let shared = Value::array(vec![Value::Int(7)]);
        let outer = Value::array(vec![shared.clone(), shared.clone()]);
        let cloned = outer.deep_clone();
        let Value::Array(rc) = &cloned else {
            panic!("expected array")
        };
        let items = rc.borrow();
        let (Value::Array(a), Value::Array(b)) = (&items[0], &items[1]) else {
            panic!("expected arrays")
        };
        assert!(Rc::ptr_eq(a, b), "shared substructure must stay shared");
    }

    #[test]
    fn deep_clone_handles_cycles() {
        let arr = Rc::new(RefCell::new(vec![Value::Int(1)]));
        arr.borrow_mut().push(Value::Array(arr.clone()));
        let v = Value::Array(arr);
        let cloned = v.deep_clone();
        let Value::Array(rc) = &cloned else {
            panic!("expected array")
        };
        let items = rc.borrow();
        let Value::Array(inner) = &items[1] else {
            panic!("expected array")
        };
        assert!(Rc::ptr_eq(rc, inner), "cycle must be reproduced");
    }

    #[test]
    fn display_formats_containers() {
        let v = Value::array(vec![
            Value::Int(1),
            Value::str("a"),
            Value::map([("k".to_string(), Value::Float(2.0))]),
        ]);
        assert_eq!(v.to_string(), "[1, a, {k: 2.0}]");
    }

    #[test]
    fn map_keeps_keys_sorted_and_the_last_duplicate() {
        let m: Map = [
            ("b".to_string(), Value::Int(1)),
            ("a".to_string(), Value::Int(2)),
            ("b".to_string(), Value::Int(3)),
        ]
        .into_iter()
        .collect();
        assert_eq!(m.keys().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(m["b"], Value::Int(3));
        assert_eq!(format!("{m:?}"), r#"{"a": Int(2), "b": Int(3)}"#);
    }

    #[test]
    fn shape_follows_the_key_set_not_the_values() {
        let mut m: Map = [("a".to_string(), Value::Int(1))].into_iter().collect();
        let one_key = m.shape();
        assert_eq!(
            m.insert("a".to_string(), Value::Int(2)),
            Some(Value::Int(1))
        );
        assert_eq!(m.shape(), one_key, "overwriting keeps the shape");
        m.insert("b".to_string(), Value::Null);
        let two_keys = m.shape();
        assert_ne!(two_keys, one_key);
        let fresh: Map = [
            ("b".to_string(), Value::Int(0)),
            ("a".to_string(), Value::Int(0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(fresh.shape(), two_keys, "the shape is the key list's");
        assert_eq!(m.remove("b"), Some(Value::Null));
        assert_eq!(m.shape(), one_key);
        assert_eq!(m.remove("b"), None);
        // FNV-1a of the empty key list is its offset basis.
        assert_eq!(Map::new().shape(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn heap_estimate_grows_with_contents() {
        let small = Value::array(vec![Value::Int(1)]);
        let big = Value::array(vec![Value::str("x".repeat(1000))]);
        assert!(big.heap_estimate() > small.heap_estimate() + 900);
    }
}
