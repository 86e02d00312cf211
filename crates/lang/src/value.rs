//! Flame runtime values.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

/// A Flame value.
///
/// Arrays and maps are reference types (`Rc<RefCell<..>>`), matching the
/// aliasing semantics of JavaScript objects and Python lists/dicts. Maps
/// use a `BTreeMap` so iteration order (and thus simulation output) is
/// deterministic.
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
    Map(Rc<RefCell<BTreeMap<String, Value>>>),
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
                let new_rc = Rc::new(RefCell::new(BTreeMap::new()));
                seen.insert(key, Value::Map(new_rc.clone()));
                let cloned: BTreeMap<String, Value> = rc
                    .borrow()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.deep_clone_with(seen)))
                    .collect();
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
    fn heap_estimate_grows_with_contents() {
        let small = Value::array(vec![Value::Int(1)]);
        let big = Value::array(vec![Value::str("x".repeat(1000))]);
        assert!(big.heap_estimate() > small.heap_estimate() + 900);
    }
}
