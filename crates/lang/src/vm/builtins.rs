//! The pure builtins (`len`, `push`, `split`, ...), evaluated on enum
//! [`Value`]s the dispatch loop pops off the stack.

use super::Host;
use crate::bytecode::Builtin;
use crate::error::LangError;
use crate::value::Value;

pub(super) fn eval_builtin(
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
                    Value::Bool(m.borrow().contains_key(k))
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
            let removed = m.borrow_mut().remove(k);
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
            let f = as_f64(&v)
                .ok_or_else(|| LangError::runtime(format!("sqrt() of {}", v.type_name())))?;
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
            let (Some(x), Some(y)) = (as_f64(&a), as_f64(&b)) else {
                return Err(LangError::runtime("min()/max() need numbers"));
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

/// Numeric view of a value: ints widened to `f64`.
fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}
