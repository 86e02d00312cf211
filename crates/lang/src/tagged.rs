//! NaN-boxed (tagged) value representation for the VM hot loop.
//!
//! The interpreter's operand stack, globals and constant pools hold
//! [`TaggedValue`]s: a single `u64` word that is either a real IEEE-754
//! double or a tagged payload packed into the quiet-NaN space. Heap
//! values (array elements, map entries) keep the plain [`Value`] enum, so
//! the compact form lives only where the dispatch loop touches it. It
//! also crosses the builtin and host-call boundary: a builtin or a
//! [`Host`](crate::Host) borrows its arguments as the words on top of the
//! stack and reads them through the views below (`as_str`, `as_int`, ...),
//! so a call copies nothing; [`TaggedValue::to_value`] converts one it
//! keeps.
//!
//! Encoding: any bit pattern whose top 13 bits are *not* all ones is a
//! plain double. Tagged values set the sign bit, the full exponent, and
//! the quiet bit (`0xFFF8_...`), leaving bits 48..=50 for a tag and the
//! low 48 bits for a payload:
//!
//! | tag | payload |
//! |-----|---------|
//! | 0 (special) | 1 = `null`, 2 = `false`, 3 = `true` |
//! | 1 (int)     | 48-bit two's-complement integer |
//! | 2 (box)     | thin `Rc<Value>` (strings, out-of-range ints) |
//! | 3 (array)   | thin `Rc<RefCell<Vec<Value>>>` |
//! | 4 (map)     | thin `Rc<RefCell<Map>>` (sorted entries + cached shape) |
//!
//! Guest floats that are NaN are canonicalised to the positive quiet NaN
//! `0x7FF8_0000_0000_0000` on construction so no guest value can collide
//! with the tag space. Negative zero and every finite/infinite double
//! round-trip bit-exactly.
#![allow(unsafe_code)]

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

use crate::value::{Map, Value};

/// Low 48 bits: payload (small int, special code, or thin pointer).
const PAYLOAD_MASK: u64 = 0x0000_FFFF_FFFF_FFFF;
/// Sign + all-ones exponent + quiet bit: the base of the tag space.
const BOXED_BASE: u64 = 0xFFF8_0000_0000_0000;
/// The canonical (positive, quiet) NaN guest floats collapse to.
const CANONICAL_NAN: u64 = 0x7FF8_0000_0000_0000;

const TAG_SPECIAL: u64 = 0;
const TAG_INT: u64 = 1;
const TAG_BOX: u64 = 2;
const TAG_ARR: u64 = 3;
const TAG_MAP: u64 = 4;

const SPECIAL_NULL: u64 = 1;
const SPECIAL_FALSE: u64 = 2;
const SPECIAL_TRUE: u64 = 3;

const fn encode(tag: u64, payload: u64) -> u64 {
    BOXED_BASE | (tag << 48) | payload
}

/// Smallest integer that fits the inline 48-bit payload.
pub const MIN_INLINE_INT: i64 = -(1 << 47);
/// Largest integer that fits the inline 48-bit payload.
pub const MAX_INLINE_INT: i64 = (1 << 47) - 1;

/// A Flame value packed into one 64-bit word (see module docs).
///
/// Owns one `Rc` strong reference for the pointer tags; `Clone` and
/// `Drop` adjust the count accordingly. Not `Send`/`Sync` (it aliases
/// `Rc` state), which the `PhantomData<Rc<()>>` marker enforces.
pub struct TaggedValue(u64, PhantomData<Rc<()>>);

impl TaggedValue {
    /// The `null` value.
    #[inline]
    pub const fn null() -> TaggedValue {
        TaggedValue(encode(TAG_SPECIAL, SPECIAL_NULL), PhantomData)
    }

    /// A boolean.
    #[inline]
    pub const fn bool(b: bool) -> TaggedValue {
        let payload = if b { SPECIAL_TRUE } else { SPECIAL_FALSE };
        TaggedValue(encode(TAG_SPECIAL, payload), PhantomData)
    }

    /// An integer: inline when it fits 48 bits, boxed otherwise.
    #[inline]
    pub fn int(v: i64) -> TaggedValue {
        if ((v << 16) >> 16) == v {
            TaggedValue(encode(TAG_INT, (v as u64) & PAYLOAD_MASK), PhantomData)
        } else {
            TaggedValue::box_value(Value::Int(v))
        }
    }

    /// A float. NaNs are canonicalised so they cannot alias the tag space.
    #[inline]
    pub fn float(v: f64) -> TaggedValue {
        let bits = if v.is_nan() {
            CANONICAL_NAN
        } else {
            v.to_bits()
        };
        TaggedValue(bits, PhantomData)
    }

    fn box_value(v: Value) -> TaggedValue {
        let ptr = Rc::into_raw(Rc::new(v)) as u64;
        debug_assert_eq!(ptr & !PAYLOAD_MASK, 0, "pointer exceeds 48 bits");
        TaggedValue(encode(TAG_BOX, ptr), PhantomData)
    }

    /// Converts from the enum representation, consuming it. Scalars pack
    /// inline at the call site; heap references (arrays, maps) transfer
    /// their `Rc` without cloning contents, so aliasing is preserved
    /// exactly.
    #[inline(always)]
    pub fn from_value(v: Value) -> TaggedValue {
        match v {
            Value::Null => TaggedValue::null(),
            Value::Bool(b) => TaggedValue::bool(b),
            Value::Int(i) => TaggedValue::int(i),
            Value::Float(f) => TaggedValue::float(f),
            heap => TaggedValue::from_heap(heap),
        }
    }

    #[inline(never)]
    fn from_heap(v: Value) -> TaggedValue {
        let (tag, ptr) = match v {
            s @ Value::Str(_) => return TaggedValue::box_value(s),
            Value::Array(rc) => (TAG_ARR, Rc::into_raw(rc) as u64),
            Value::Map(rc) => (TAG_MAP, Rc::into_raw(rc) as u64),
            _ => unreachable!("scalars pack in `from_value`"),
        };
        debug_assert_eq!(ptr & !PAYLOAD_MASK, 0, "pointer exceeds 48 bits");
        TaggedValue(encode(tag, ptr), PhantomData)
    }

    #[inline]
    fn tag(&self) -> u64 {
        (self.0 >> 48) & 0x7
    }

    #[inline]
    fn payload(&self) -> u64 {
        self.0 & PAYLOAD_MASK
    }

    /// True when the word is a plain double (not in the tag space).
    #[inline]
    pub fn is_float(&self) -> bool {
        (self.0 & BOXED_BASE) != BOXED_BASE
    }

    /// The double, if this is a float.
    #[inline]
    pub fn as_float(&self) -> Option<f64> {
        if self.is_float() {
            Some(f64::from_bits(self.0))
        } else {
            None
        }
    }

    /// The integer, if this is an (inline or boxed) int.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        if !self.is_float() {
            if self.tag() == TAG_INT {
                return Some(((self.0 << 16) as i64) >> 16);
            }
            if self.tag() == TAG_BOX {
                if let Value::Int(i) = unsafe { &*(self.payload() as *const Value) } {
                    return Some(*i);
                }
            }
        }
        None
    }

    /// The string contents, if this is a (boxed) string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        if !self.is_float() && self.tag() == TAG_BOX {
            if let Value::Str(s) = unsafe { &*(self.payload() as *const Value) } {
                return Some(s);
            }
        }
        None
    }

    /// Whether this is an array reference.
    #[inline]
    pub fn is_array(&self) -> bool {
        !self.is_float() && self.tag() == TAG_ARR
    }

    /// Whether this is a map reference.
    #[inline]
    pub fn is_map(&self) -> bool {
        !self.is_float() && self.tag() == TAG_MAP
    }

    /// The array this word references, borrowed for as long as the word
    /// (which holds a strong count) lives.
    #[inline]
    pub(crate) fn as_array(&self) -> Option<&RefCell<Vec<Value>>> {
        if self.is_array() {
            // SAFETY: an array word's payload is the pointer of an `Rc`
            // whose strong count this word holds until it drops, so the
            // cell outlives the returned borrow of `self`.
            Some(unsafe { &*(self.payload() as *const RefCell<Vec<Value>>) })
        } else {
            None
        }
    }

    /// The map this word references, borrowed for as long as the word
    /// (which holds a strong count) lives.
    #[inline]
    pub fn as_map(&self) -> Option<&RefCell<Map>> {
        if self.is_map() {
            // SAFETY: a map word's payload is the pointer of an `Rc` whose
            // strong count this word holds until it drops.
            Some(unsafe { &*(self.payload() as *const RefCell<Map>) })
        } else {
            None
        }
    }

    /// Numeric view: ints widened to f64, floats as-is.
    #[inline]
    pub fn as_num(&self) -> Option<f64> {
        if let Some(f) = self.as_float() {
            Some(f)
        } else {
            self.as_int().map(|i| i as f64)
        }
    }

    /// Same truthiness rules as [`Value::truthy`].
    pub fn truthy(&self) -> bool {
        if self.is_float() {
            return f64::from_bits(self.0) != 0.0;
        }
        match self.tag() {
            TAG_SPECIAL => self.payload() == SPECIAL_TRUE,
            TAG_INT => self.payload() != 0,
            TAG_BOX => unsafe { &*(self.payload() as *const Value) }.truthy(),
            _ => true, // arrays and maps are always truthy
        }
    }

    /// The type name used in error messages, matching [`Value::type_name`].
    pub fn type_name(&self) -> &'static str {
        if self.is_float() {
            return "float";
        }
        match self.tag() {
            TAG_SPECIAL => {
                if self.payload() == SPECIAL_NULL {
                    "null"
                } else {
                    "bool"
                }
            }
            TAG_INT => "int",
            TAG_BOX => unsafe { &*(self.payload() as *const Value) }.type_name(),
            TAG_ARR => "array",
            _ => "map",
        }
    }

    /// Converts to the enum representation without consuming; heap tags
    /// clone the `Rc` handle (count bump), never the contents.
    pub fn to_value(&self) -> Value {
        if self.is_float() {
            return Value::Float(f64::from_bits(self.0));
        }
        match self.tag() {
            TAG_SPECIAL => match self.payload() {
                SPECIAL_NULL => Value::Null,
                SPECIAL_FALSE => Value::Bool(false),
                _ => Value::Bool(true),
            },
            TAG_INT => Value::Int(((self.0 << 16) as i64) >> 16),
            TAG_BOX => {
                let ptr = self.payload() as *const Value;
                unsafe { &*ptr }.clone()
            }
            TAG_ARR => {
                let ptr = self.payload() as *const RefCell<Vec<Value>>;
                unsafe {
                    Rc::increment_strong_count(ptr);
                    Value::Array(Rc::from_raw(ptr))
                }
            }
            _ => {
                let ptr = self.payload() as *const RefCell<Map>;
                unsafe {
                    Rc::increment_strong_count(ptr);
                    Value::Map(Rc::from_raw(ptr))
                }
            }
        }
    }

    /// Converts to the enum representation, transferring ownership of the
    /// `Rc` strong reference held by this word (no count change).
    pub fn into_value(self) -> Value {
        let word = std::mem::ManuallyDrop::new(self);
        if !word.is_float() {
            let ptr = word.payload();
            // SAFETY: a pointer word holds one strong count of its `Rc`,
            // which moves into the `Rc` rebuilt here; `ManuallyDrop` keeps
            // the word from giving it back a second time.
            unsafe {
                match word.tag() {
                    TAG_BOX => {
                        let rc = Rc::from_raw(ptr as *const Value);
                        return Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone());
                    }
                    TAG_ARR => return Value::Array(Rc::from_raw(ptr as *const _)),
                    TAG_MAP => return Value::Map(Rc::from_raw(ptr as *const _)),
                    _ => {}
                }
            }
        }
        word.to_value()
    }

    /// `==` for what is not a number: through the enum representation.
    #[inline(never)]
    fn eq_on_values(&self, other: &TaggedValue) -> bool {
        self.to_value().eq_value(&other.to_value())
    }
}

impl From<Value> for TaggedValue {
    fn from(v: Value) -> TaggedValue {
        TaggedValue::from_value(v)
    }
}

impl From<TaggedValue> for Value {
    fn from(v: TaggedValue) -> Value {
        v.into_value()
    }
}

impl Clone for TaggedValue {
    fn clone(&self) -> TaggedValue {
        if !self.is_float() {
            let ptr = self.payload();
            unsafe {
                match self.tag() {
                    TAG_BOX => Rc::increment_strong_count(ptr as *const Value),
                    TAG_ARR => Rc::increment_strong_count(ptr as *const RefCell<Vec<Value>>),
                    TAG_MAP => Rc::increment_strong_count(ptr as *const RefCell<Map>),
                    _ => {}
                }
            }
        }
        TaggedValue(self.0, PhantomData)
    }
}

impl Drop for TaggedValue {
    fn drop(&mut self) {
        if !self.is_float() {
            let ptr = self.payload();
            unsafe {
                match self.tag() {
                    TAG_BOX => drop(Rc::from_raw(ptr as *const Value)),
                    TAG_ARR => drop(Rc::from_raw(ptr as *const RefCell<Vec<Value>>)),
                    TAG_MAP => drop(Rc::from_raw(ptr as *const RefCell<Map>)),
                    _ => {}
                }
            }
        }
    }
}

impl Default for TaggedValue {
    fn default() -> TaggedValue {
        TaggedValue::null()
    }
}

impl PartialEq for TaggedValue {
    /// Structural equality, same semantics as [`Value::eq_value`].
    #[inline]
    fn eq(&self, other: &TaggedValue) -> bool {
        // Identical non-NaN bit patterns are equal without conversion
        // (covers null/bool/inline ints and pointer-identical heaps).
        if self.0 == other.0 && !(self.is_float() && f64::from_bits(self.0).is_nan()) {
            return true;
        }
        // Numbers compare on the words: ints exactly, a float against
        // either kind in `f64`, as `eq_value` does.
        if let (Some(a), Some(b)) = (self.as_int(), other.as_int()) {
            return a == b;
        }
        if let (Some(a), Some(b)) = (self.as_num(), other.as_num()) {
            return a == b;
        }
        self.eq_on_values(other)
    }
}

impl fmt::Debug for TaggedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tagged({:?})", self.to_value())
    }
}

impl fmt::Display for TaggedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_value())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The strong count of the `Rc` a boxed word (a string, a wide int)
    /// holds a reference of.
    pub(crate) fn box_count(w: &TaggedValue) -> usize {
        assert!(!w.is_float() && w.tag() == TAG_BOX, "a boxed word");
        // SAFETY: the word holds one strong count of this `Rc`, which
        // `ManuallyDrop` leaves as it is.
        let rc = std::mem::ManuallyDrop::new(unsafe { Rc::from_raw(w.payload() as *const Value) });
        Rc::strong_count(&rc)
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(42),
            Value::Float(1.5),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::str("hello"),
        ] {
            let t = TaggedValue::from_value(v.clone());
            assert!(t.to_value().eq_value(&v), "{v:?}");
            assert_eq!(t.type_name(), v.type_name(), "{v:?}");
            assert_eq!(t.truthy(), v.truthy(), "{v:?}");
        }
    }

    #[test]
    fn negative_zero_is_bit_exact() {
        let t = TaggedValue::float(-0.0);
        let Value::Float(f) = t.to_value() else {
            panic!("expected float");
        };
        assert_eq!(f.to_bits(), (-0.0f64).to_bits());
        assert!(!t.truthy(), "-0.0 is falsy");
    }

    #[test]
    fn nan_is_canonicalised_not_misread() {
        // A hostile NaN whose payload collides with the tag space must
        // not decode as a pointer.
        let evil = f64::from_bits(0xFFF9_DEAD_BEEF_0000);
        assert!(evil.is_nan());
        let t = TaggedValue::float(evil);
        let Value::Float(f) = t.to_value() else {
            panic!("expected float");
        };
        assert!(f.is_nan());
        assert_eq!(f.to_bits(), CANONICAL_NAN);
    }

    #[test]
    fn inline_int_boundaries() {
        for v in [
            MIN_INLINE_INT,
            MIN_INLINE_INT + 1,
            MAX_INLINE_INT,
            MAX_INLINE_INT - 1,
            0,
            -1,
        ] {
            let t = TaggedValue::int(v);
            assert_eq!(t.as_int(), Some(v));
            assert_eq!(t.to_value(), Value::Int(v));
        }
    }

    #[test]
    fn out_of_range_ints_box_and_still_read_as_ints() {
        for v in [MIN_INLINE_INT - 1, MAX_INLINE_INT + 1, i64::MIN, i64::MAX] {
            let t = TaggedValue::int(v);
            assert_eq!(t.as_int(), Some(v), "boxed int must unbox via as_int");
            assert_eq!(t.to_value(), Value::Int(v));
            assert_eq!(t.type_name(), "int");
        }
    }

    #[test]
    fn heap_tags_preserve_aliasing_and_refcounts() {
        let arr = Value::array(vec![Value::Int(1)]);
        let Value::Array(rc) = &arr else {
            panic!("expected array")
        };
        assert_eq!(Rc::strong_count(rc), 1);
        let t = TaggedValue::from_value(arr.clone());
        assert_eq!(Rc::strong_count(rc), 2);
        let t2 = t.clone();
        assert_eq!(Rc::strong_count(rc), 3);
        assert!(std::ptr::eq(t2.as_array().expect("an array word"), &**rc));
        assert!(t2.as_map().is_none() && TaggedValue::int(1).as_array().is_none());
        // Mutations through the tagged handle are visible via the original.
        if let Value::Array(back) = t2.to_value() {
            back.borrow_mut().push(Value::Int(2));
        }
        assert_eq!(rc.borrow().len(), 2);
        drop(t);
        drop(t2);
        assert_eq!(Rc::strong_count(rc), 1);
    }

    #[test]
    fn into_value_transfers_ownership_without_leak() {
        let m = Value::map([("k".to_string(), Value::Int(7))]);
        let Value::Map(rc) = &m else {
            panic!("expected map")
        };
        let t = TaggedValue::from_value(m.clone());
        assert_eq!(Rc::strong_count(rc), 2);
        let back = t.into_value();
        assert_eq!(Rc::strong_count(rc), 2);
        let Value::Map(rc2) = &back else {
            panic!("expected map")
        };
        assert!(Rc::ptr_eq(rc, rc2));
        drop(back);
        assert_eq!(Rc::strong_count(rc), 1);
    }

    #[test]
    fn numeric_views() {
        assert_eq!(TaggedValue::int(3).as_num(), Some(3.0));
        assert_eq!(TaggedValue::float(2.5).as_num(), Some(2.5));
        assert_eq!(TaggedValue::float(2.5).as_int(), None);
        assert_eq!(TaggedValue::null().as_num(), None);
        assert_eq!(TaggedValue::bool(true).as_num(), None);
    }

    #[test]
    fn equality_matches_value_semantics() {
        assert_eq!(TaggedValue::int(3), TaggedValue::float(3.0));
        assert_ne!(
            TaggedValue::float(f64::NAN),
            TaggedValue::float(f64::NAN),
            "NaN != NaN"
        );
        let a = TaggedValue::from_value(Value::str("abc"));
        let b = TaggedValue::from_value(Value::str("abc"));
        assert_eq!(a, b);
    }
}
