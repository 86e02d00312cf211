//! The pure builtins (`len`, `push`, `split`, ...), evaluated on their
//! arguments where they lie: the [`TaggedValue`] words on top of the
//! operand stack, borrowed for the call and dropped by the dispatch loop
//! after it. A builtin reads a word through its views (`as_str`,
//! `as_num`, `as_array`, ...) and converts one to a [`Value`] only where
//! it keeps or returns it.

use super::Host;
use crate::bytecode::Builtin;
use crate::error::LangError;
use crate::tagged::TaggedValue;
use crate::value::Value;

pub(super) fn eval_builtin(
    builtin: Builtin,
    args: &[TaggedValue],
    host: &mut dyn Host,
) -> Result<Value, LangError> {
    if builtin == Builtin::Print {
        let text = args
            .iter()
            .map(TaggedValue::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        host.print(&text);
        return Ok(Value::Null);
    }
    let arity = match builtin {
        Builtin::Substr => 3,
        Builtin::Push
        | Builtin::Has
        | Builtin::Remove
        | Builtin::Min
        | Builtin::Max
        | Builtin::Split
        | Builtin::Join => 2,
        _ => 1,
    };
    if args.len() != arity {
        return Err(LangError::runtime(format!(
            "builtin {builtin:?} expects {arity} arguments"
        )));
    }
    let v = &args[0];
    let fail = |msg: &str| Err(LangError::runtime(msg));
    let of = |name: &str| Err(LangError::runtime(format!("{name}() of {}", v.type_name())));
    Ok(match builtin {
        Builtin::Len => {
            let n = if let Some(s) = v.as_str() {
                s.chars().count()
            } else if let Some(a) = v.as_array() {
                a.borrow().len()
            } else if let Some(m) = v.as_map() {
                m.borrow().len()
            } else {
                return of("len");
            };
            Value::Int(n as i64)
        }
        Builtin::Push => {
            let Some(a) = v.as_array() else {
                return fail("push() needs an array");
            };
            a.borrow_mut().push(args[1].to_value());
            v.to_value()
        }
        Builtin::Pop => {
            let Some(a) = v.as_array() else {
                return fail("pop() needs an array");
            };
            let out = a.borrow_mut().pop();
            out.ok_or_else(|| LangError::runtime("pop() from empty array"))?
        }
        Builtin::Keys => {
            let Some(m) = v.as_map() else {
                return fail("keys() needs a map");
            };
            let keys: Vec<Value> = m.borrow().keys().map(Value::str).collect();
            Value::array(keys)
        }
        Builtin::Has => {
            let needle = &args[1];
            if let Some(m) = v.as_map() {
                let Some(k) = needle.as_str() else {
                    return fail("has() on a map needs a string key");
                };
                Value::Bool(m.borrow().contains_key(k))
            } else if let Some(a) = v.as_array() {
                let needle = needle.to_value();
                Value::Bool(a.borrow().iter().any(|x| x.eq_value(&needle)))
            } else if let Some(s) = v.as_str() {
                let Some(sub) = needle.as_str() else {
                    return fail("has() on a string needs a string");
                };
                Value::Bool(s.contains(sub))
            } else {
                return of("has");
            }
        }
        Builtin::Remove => {
            let (Some(m), Some(k)) = (v.as_map(), args[1].as_str()) else {
                return fail("remove() needs a map and a string key");
            };
            let removed = m.borrow_mut().remove(k);
            removed.unwrap_or(Value::Null)
        }
        Builtin::Str => Value::str(v.to_string()),
        Builtin::Int => match v.to_value() {
            Value::Int(i) => Value::Int(i),
            Value::Float(f) => Value::Int(f as i64),
            Value::Bool(b) => Value::Int(i64::from(b)),
            Value::Str(s) => Value::Int(
                s.trim()
                    .parse::<i64>()
                    .map_err(|_| LangError::runtime(format!("int() cannot parse `{s}`")))?,
            ),
            _ => return of("int"),
        },
        Builtin::Float => match v.to_value() {
            Value::Int(i) => Value::Float(i as f64),
            Value::Float(f) => Value::Float(f),
            Value::Str(s) => Value::Float(
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| LangError::runtime(format!("float() cannot parse `{s}`")))?,
            ),
            _ => return of("float"),
        },
        Builtin::Floor => match (v.as_int(), v.as_float()) {
            (Some(i), _) => Value::Int(i),
            (_, Some(f)) => Value::Int(f.floor() as i64),
            _ => return of("floor"),
        },
        Builtin::Sqrt => match v.as_num() {
            Some(f) => Value::Float(f.sqrt()),
            None => return of("sqrt"),
        },
        Builtin::Abs => match (v.as_int(), v.as_float()) {
            (Some(i), _) => Value::Int(i.wrapping_abs()),
            (_, Some(f)) => Value::Float(f.abs()),
            _ => return of("abs"),
        },
        Builtin::Min | Builtin::Max => {
            let (Some(x), Some(y)) = (v.as_num(), args[1].as_num()) else {
                return fail("min()/max() need numbers");
            };
            let pick_a = if builtin == Builtin::Min {
                x <= y
            } else {
                x >= y
            };
            if pick_a { v } else { &args[1] }.to_value()
        }
        Builtin::Split => {
            let (Some(s), Some(sep)) = (v.as_str(), args[1].as_str()) else {
                return fail("split() needs two strings");
            };
            let parts: Vec<Value> = if sep.is_empty() {
                s.chars().map(|c| Value::str(c.to_string())).collect()
            } else {
                s.split(sep).map(Value::str).collect()
            };
            Value::array(parts)
        }
        Builtin::Join => {
            let (Some(a), Some(sep)) = (v.as_array(), args[1].as_str()) else {
                return fail("join() needs an array and a string");
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
            let (Some(s), Some(start), Some(len)) =
                (v.as_str(), args[1].as_int(), args[2].as_int())
            else {
                return fail("substr() needs (string, int, int)");
            };
            let chars = s.chars().skip(start.max(0) as usize);
            Value::str(chars.take(len.max(0) as usize).collect::<String>())
        }
        Builtin::Type => Value::str(v.type_name()),
        Builtin::Print => unreachable!("served above"),
    })
}
