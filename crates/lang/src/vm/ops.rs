//! Arithmetic, ordering and index operations: one implementation of each
//! for every tier. An op classifies its operands once, on the tagged
//! words, hands the [`Class`] to [`Vm::observe`] (guards, deopt, type
//! feedback), and computes — on the tagged words for the numeric classes
//! and array loads, through enum [`Value`]s for the rest of the heap.

use super::{Site, Vm};
use crate::bytecode::{BinKind, Class};
use crate::error::LangError;
use crate::tagged::TaggedValue;
use crate::value::Value;

/// The class of `base[index]`.
fn index_class(base: &TaggedValue, index: &TaggedValue) -> Class {
    if base.is_array() && index.as_int().is_some() {
        Class::ArrInt
    } else if base.is_map() && index.as_str().is_some() {
        Class::MapStr
    } else {
        Class::Other
    }
}

impl Vm {
    /// `l kind r` on the top two stack values. The numeric classes are
    /// computed on the tagged words; everything else goes through
    /// [`apply_binary`].
    #[inline]
    pub(super) fn binary(
        &mut self,
        at: Site,
        kind: BinKind,
        guard: Option<Class>,
    ) -> Result<(), LangError> {
        let (l, r) = (self.peek(1), self.peek(0));
        let out = if let (Some(a), Some(b)) = (l.as_int(), r.as_int()) {
            self.observe(at, guard, Class::IntInt);
            int_op(kind, a, b)?
        } else if let (Some(a), Some(b)) = (l.as_num(), r.as_num()) {
            self.observe(at, guard, Class::FloatNum);
            num_op(kind, a, b)
        } else {
            let class = if l.as_str().is_some() && r.as_str().is_some() {
                Class::StrStr
            } else {
                Class::Other
            };
            self.observe(at, guard, class);
            return self.binary_on_values(kind);
        };
        self.pop();
        *self.stack.last_mut().expect("two operands") = out;
        Ok(())
    }

    /// The non-numeric half of [`Vm::binary`], kept out of line so the
    /// dispatch loop's numeric path stays small.
    #[inline(never)]
    fn binary_on_values(&mut self, kind: BinKind) -> Result<(), LangError> {
        let r = self.pop_value();
        let l = self.pop_value();
        let out = apply_binary(kind, l, r)?;
        self.push_value(out);
        Ok(())
    }

    /// `base[index]`. An array indexed by an int reads the element
    /// straight from the borrowed array; the rest goes through enum
    /// [`Value`]s.
    #[inline(never)]
    pub(super) fn index(&mut self, at: Site, guard: Option<Class>) -> Result<(), LangError> {
        self.observe(at, guard, index_class(self.peek(1), self.peek(0)));
        let (base, index) = (self.peek(1), self.peek(0));
        let (Some(a), Some(i)) = (base.as_array(), index.as_int()) else {
            return self.index_on_values();
        };
        let out = {
            let a = a.borrow();
            let v = usize::try_from(i).ok().and_then(|i| a.get(i));
            v.map(|v| TaggedValue::from_value(v.clone()))
                .ok_or_else(|| out_of_bounds("array", i, a.len()))
        };
        self.pop();
        match out {
            Ok(v) => {
                *self.stack.last_mut().expect("two operands") = v;
                Ok(())
            }
            Err(e) => {
                self.pop();
                Err(e)
            }
        }
    }

    /// The non-array half of [`Vm::index`].
    #[inline(never)]
    fn index_on_values(&mut self) -> Result<(), LangError> {
        let index = self.pop_value();
        let base = self.pop_value();
        let out = match (&base, &index) {
            (Value::Map(m), Value::Str(k)) => m.borrow().get(k).cloned().unwrap_or(Value::Null),
            (Value::Str(s), Value::Int(i)) => usize::try_from(*i)
                .ok()
                .and_then(|i| s.chars().nth(i))
                .map(|c| Value::str(c.to_string()))
                .ok_or_else(|| out_of_bounds("string", *i, s.chars().count()))?,
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

    /// `base[index] = value`; the stack is `base, index, value`.
    #[inline(never)]
    pub(super) fn set_index(&mut self, at: Site, guard: Option<Class>) -> Result<(), LangError> {
        // Only the array store has a compiled form; a map store is
        // feedback no guard can be built from.
        let class = match index_class(self.peek(2), self.peek(1)) {
            Class::ArrInt => Class::ArrInt,
            _ => Class::Other,
        };
        self.observe(at, guard, class);
        let value = self.pop_value();
        let index = self.pop_value();
        let base = self.pop_value();
        match (&base, &index) {
            (Value::Array(a), Value::Int(i)) => {
                let mut a = a.borrow_mut();
                let len = a.len();
                let slot = usize::try_from(*i)
                    .ok()
                    .and_then(|i| a.get_mut(i))
                    .ok_or_else(|| out_of_bounds("array", *i, len))?;
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
}

#[cold]
fn out_of_bounds(what: &str, index: i64, len: usize) -> LangError {
    LangError::runtime(format!("{what} index {index} out of bounds (len {len})"))
}

/// `a kind b` for the four ordering operators.
#[inline]
fn ordered<T: PartialOrd + ?Sized>(kind: BinKind, a: &T, b: &T) -> bool {
    match kind {
        BinKind::Lt => a < b,
        BinKind::Le => a <= b,
        BinKind::Gt => a > b,
        BinKind::Ge => a >= b,
        _ => unreachable!("{kind:?} is not an ordering"),
    }
}

#[inline]
fn int_op(kind: BinKind, a: i64, b: i64) -> Result<TaggedValue, LangError> {
    use BinKind::*;
    Ok(TaggedValue::int(match kind {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div | Mod if b == 0 => return Err(zero_divisor(kind)),
        Div => a.wrapping_div(b),
        Mod => a.wrapping_rem(b),
        Lt | Le | Gt | Ge => return Ok(TaggedValue::bool(ordered(kind, &a, &b))),
    }))
}

#[cold]
fn zero_divisor(kind: BinKind) -> LangError {
    LangError::runtime(if kind == BinKind::Div {
        "division by zero"
    } else {
        "modulo by zero"
    })
}

#[inline]
fn num_op(kind: BinKind, a: f64, b: f64) -> TaggedValue {
    use BinKind::*;
    TaggedValue::float(match kind {
        Add => a + b,
        Sub => a - b,
        Mul => a * b,
        Div => a / b,
        Mod => a % b,
        Lt | Le | Gt | Ge => return TaggedValue::bool(ordered(kind, &a, &b)),
    })
}

/// Binary ops with a non-numeric operand.
fn apply_binary(kind: BinKind, l: Value, r: Value) -> Result<Value, LangError> {
    use BinKind::*;
    Ok(match (kind, &l, &r) {
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
        (Lt | Le | Gt | Ge, Value::Str(a), Value::Str(b)) => Value::Bool(ordered(kind, a, b)),
        _ => {
            let verb = match kind {
                Add => "add",
                Sub => "subtract",
                Mul => "multiply",
                Div => "divide",
                Mod => "mod",
                Lt | Le | Gt | Ge => "compare",
            };
            return Err(LangError::runtime(format!(
                "cannot {verb} {} and {}",
                l.type_name(),
                r.type_name()
            )));
        }
    })
}
