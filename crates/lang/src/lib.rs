//! Flame — the guest language of the Fireworks reproduction.
//!
//! The paper's post-JIT snapshot interacts with a *language runtime*: a
//! profiling interpreter that tiers hot functions up to JIT-compiled code,
//! may deoptimise them when type assumptions break, and whose entire
//! execution state (including the JIT code cache) is captured by the VM
//! snapshot. Flame reproduces that machinery end to end:
//!
//! - [`lexer`] / [`parser`]: a small JS/Python-flavoured surface syntax,
//!   including the `@jit` annotation used by the Fireworks code annotator.
//! - [`compiler`]: AST → stack bytecode ([`bytecode::Chunk`]).
//! - [`vm::Vm`]: a tiered virtual machine. Cold functions run in the
//!   profiling interpreter, which records per-site type feedback; hot (or
//!   annotated) functions are *quickened* into code whose monomorphic
//!   sites carry type guards; a failed guard deoptimises back to generic
//!   bytecode. All tiers run the same implementation of every operation.
//! - Snapshot/resume: the special host call `fireworks_snapshot()` suspends
//!   the VM mid-program; [`vm::Vm::snapshot_state`] deep-clones the full
//!   execution state (stack, frames, globals, JIT tier state) so a restored
//!   clone resumes exactly after the snapshot point — the paper's Fig. 3.
//!
//! Execution is metered: the VM counts interpreter ops, JIT ops, compile
//! work, and deopts ([`vm::ExecStats`]), which the `fireworks-runtime`
//! crate converts into virtual time under a language-runtime profile.

#![warn(missing_docs)]
// `deny` rather than `forbid`: the NaN-boxed value representation in
// [`tagged`] needs raw-pointer packing and opts in locally; every other
// module stays safe code.
#![deny(unsafe_code)]

pub mod ast;
pub mod bytecode;
pub mod compiler;
pub mod error;
pub mod jit;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod tagged;
pub mod value;
pub mod vm;

pub use error::LangError;
pub use jit::JitConfig;
pub use tagged::TaggedValue;
pub use value::Value;
pub use vm::{ExecStats, Host, IcSummary, JitPolicy, NoopHost, Outcome, Vm};

/// Compiles Flame source text into an executable [`Program`].
///
/// # Examples
///
/// ```
/// use fireworks_lang::{compile, Vm, NoopHost, Outcome, Value};
///
/// let program = compile(
///     r#"
///     fn main(n) {
///         let total = 0;
///         for (let i = 1; i <= n; i = i + 1) { total = total + i; }
///         return total;
///     }
///     "#,
/// )
/// .expect("compiles");
/// let mut vm = Vm::new(program.into());
/// vm.start("main", vec![Value::Int(100)]).expect("entry exists");
/// let out = vm.run(&mut NoopHost).expect("runs");
/// assert_eq!(out, Outcome::Done(Value::Int(5050)));
/// ```
pub fn compile(source: &str) -> Result<Program, LangError> {
    let tokens = lexer::lex(source)?;
    let items = parser::parse(tokens)?;
    compiler::compile_items(&items)
}

pub use compiler::Program;
