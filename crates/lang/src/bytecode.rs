//! Stack bytecode for the Flame VM.
//!
//! Every guest operation is one op with one implementation. The compiler
//! emits the arithmetic, comparison and index ops unguarded; the JIT
//! *quickens* a function by copying its body and attaching to each such op
//! the operand [`Class`] its type feedback saw (a *guard*). Quickening is
//! 1:1 — the same op at the same index — so jump targets stay valid and a
//! failed guard deoptimises by carrying on in the generic code at that index.

use std::fmt;

use crate::value::Value;

/// Built-in pure functions executed directly by the VM.
///
/// I/O-flavoured calls (file, network, database, message bus) are *not*
/// builtins: they compile to [`Op::CallHost`] and are served by the
/// embedding [`crate::vm::Host`], which is where sandbox I/O-path costs are
/// charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `len(x)` — length of a string, array, or map.
    Len,
    /// `push(arr, v)` — appends to an array, returns the array.
    Push,
    /// `pop(arr)` — removes and returns the last element.
    Pop,
    /// `keys(map)` — array of keys in deterministic order.
    Keys,
    /// `has(map, key)` / `has(arr, value)` — membership test.
    Has,
    /// `remove(map, key)` — removes a key, returns the removed value.
    Remove,
    /// `str(x)` — string conversion.
    Str,
    /// `int(x)` — integer conversion.
    Int,
    /// `float(x)` — float conversion.
    Float,
    /// `floor(x)`.
    Floor,
    /// `sqrt(x)`.
    Sqrt,
    /// `abs(x)`.
    Abs,
    /// `min(a, b)`.
    Min,
    /// `max(a, b)`.
    Max,
    /// `split(s, sep)`.
    Split,
    /// `join(arr, sep)`.
    Join,
    /// `substr(s, start, len)`.
    Substr,
    /// `type(x)` — type name as a string.
    Type,
    /// `print(x)` — writes to the host's stdout.
    Print,
}

impl Builtin {
    /// Looks up a builtin by its source-level name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "len" => Builtin::Len,
            "push" => Builtin::Push,
            "pop" => Builtin::Pop,
            "keys" => Builtin::Keys,
            "has" => Builtin::Has,
            "remove" => Builtin::Remove,
            "str" => Builtin::Str,
            "int" => Builtin::Int,
            "float" => Builtin::Float,
            "floor" => Builtin::Floor,
            "sqrt" => Builtin::Sqrt,
            "abs" => Builtin::Abs,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "split" => Builtin::Split,
            "join" => Builtin::Join,
            "substr" => Builtin::Substr,
            "type" => Builtin::Type,
            "print" => Builtin::Print,
            _ => return None,
        })
    }
}

/// The operators of [`Op::Binary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// `+` (numbers, strings, arrays).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Mod,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

/// What a guardable site's operands were: the unit of type feedback and
/// the assumption a guard checks. The discriminants are the bits of the
/// per-site feedback mask, so a site that saw exactly one class has a
/// mask equal to that class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Class {
    /// Both operands int.
    IntInt = 1,
    /// Both numeric, at least one float.
    FloatNum = 2,
    /// Both operands strings.
    StrStr = 4,
    /// Array indexed by int.
    ArrInt = 8,
    /// Map indexed by string.
    MapStr = 16,
    /// Anything else, or a site that caused a deopt.
    Other = 128,
}

/// One VM instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push constant `consts[i]`.
    Const(u16),
    /// Push local slot `i`.
    LoadLocal(u16),
    /// Pop into local slot `i`.
    StoreLocal(u16),
    /// Push global variable `globals[i]` (module-level binding).
    LoadGlobal(u16),
    /// Pop into global variable `globals[i]`.
    StoreGlobal(u16),

    /// Arithmetic or ordering on the top two stack values.
    Binary {
        /// Which operator.
        kind: BinKind,
        /// The operand class compiled code assumes here (`None` in the
        /// compiler's output and at sites without monomorphic feedback).
        guard: Option<Class>,
    },
    /// Numeric negation.
    Neg,
    /// Boolean not (truthiness).
    Not,
    /// Structural equality.
    Eq,
    /// Structural inequality.
    Ne,

    /// Unconditional jump to absolute index.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalse(u32),
    /// Jump when top-of-stack is falsy, keeping it (for `&&`).
    JumpIfFalsePeek(u32),
    /// Jump when top-of-stack is truthy, keeping it (for `||`).
    JumpIfTruePeek(u32),

    /// Call program function `i` with `argc` arguments.
    Call {
        /// Function table index.
        func: u16,
        /// Argument count.
        argc: u8,
    },
    /// Call pure builtin with `argc` arguments.
    CallBuiltin {
        /// Which builtin.
        builtin: Builtin,
        /// Argument count.
        argc: u8,
    },
    /// Call the embedding host: `consts[name]` is the call name.
    CallHost {
        /// Constant-pool index of the host-call name.
        name: u16,
        /// Argument count.
        argc: u8,
    },
    /// The Fireworks snapshot point: pushes `null` as its result and
    /// suspends the VM.
    Snapshot,
    /// Return from the current frame (value on top of stack).
    Return,
    /// Discard top of stack.
    Pop,
    /// Build an array from the top `n` stack values.
    MakeArray(u16),
    /// Build a map from the top `2n` stack values (key/value pairs).
    MakeMap(u16),
    /// Index load: `base[index]`.
    Index {
        /// The operand class compiled code assumes here.
        guard: Option<Class>,
    },
    /// Index store: stack is `base, index, value`.
    SetIndex {
        /// The operand class compiled code assumes here.
        guard: Option<Class>,
    },
    /// Property load `base.name` (`consts[i]` is the property name).
    /// Runs through the per-site inline cache: the base map's shape is
    /// matched against the site's mono/poly shape list, and a shape miss
    /// in compiled code deoptimises the function.
    GetProp(u16),
    /// Property store `base.name = v`; stack is `base, value`.
    /// Shares the inline-cache machinery with [`Op::GetProp`].
    SetProp(u16),
}

/// The compiled body of one function.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Function name (for errors and disassembly).
    pub name: String,
    /// Number of parameters.
    pub arity: u8,
    /// Number of local slots (parameters included).
    pub n_locals: u16,
    /// Instructions.
    pub ops: Vec<Op>,
    /// Constant pool.
    pub consts: Vec<Value>,
}

impl Chunk {
    /// Renders a human-readable disassembly.
    pub fn disassemble(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fn {}/{} ({} locals, {} ops)",
            self.name,
            self.arity,
            self.n_locals,
            self.ops.len()
        );
        for (i, op) in self.ops.iter().enumerate() {
            let detail = match op {
                Op::Const(c) | Op::CallHost { name: c, .. } | Op::GetProp(c) | Op::SetProp(c) => {
                    format!("  ; {}", self.consts[*c as usize])
                }
                _ => String::new(),
            };
            let _ = writeln!(out, "  {i:4}: {op:?}{detail}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_lookup_round_trips() {
        for (name, b) in [
            ("len", Builtin::Len),
            ("sqrt", Builtin::Sqrt),
            ("print", Builtin::Print),
            ("substr", Builtin::Substr),
        ] {
            assert_eq!(Builtin::from_name(name), Some(b));
        }
        assert_eq!(Builtin::from_name("io_read"), None);
        assert_eq!(Builtin::from_name("nonsense"), None);
    }

    #[test]
    fn ops_stay_one_word() {
        assert_eq!(std::mem::size_of::<Op>(), 8);
    }

    #[test]
    fn disassembly_includes_consts() {
        let chunk = Chunk {
            name: "f".into(),
            arity: 0,
            n_locals: 1,
            ops: vec![Op::Const(0), Op::Return],
            consts: vec![Value::Int(42)],
        };
        let text = chunk.disassemble();
        assert!(text.contains("Const(0)"));
        assert!(text.contains("; 42"));
    }
}
