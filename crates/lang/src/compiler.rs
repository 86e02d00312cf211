//! AST → bytecode compiler.

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{BinOp, Expr, FnDecl, Item, Stmt, Target, UnOp};
use crate::bytecode::{BinKind, Builtin, Chunk, Op};
use crate::error::LangError;
use crate::tagged::TaggedValue;
use crate::value::Value;

/// Name of the synthetic function holding top-level statements.
pub const TOPLEVEL: &str = "__toplevel__";

/// A compiled function: immutable bytecode plus its JIT annotation.
#[derive(Debug, Clone)]
pub struct FuncDef {
    /// The compiled body. `Rc` so VM snapshots share chunks.
    pub chunk: Rc<Chunk>,
    /// `true` when the source carried `@jit` (used by annotation-driven
    /// JIT policies).
    pub jit_hint: bool,
}

/// A compiled Flame program: the immutable part of a VM, shared by all
/// snapshot clones.
#[derive(Debug, Clone)]
pub struct Program {
    /// Function table. Entry points are looked up by name.
    pub functions: Vec<FuncDef>,
    /// Name → function-table index.
    pub fn_index: HashMap<String, usize>,
    /// Module-level variable names (globals).
    pub global_names: Vec<String>,
}

impl Program {
    /// Looks up a function index by name.
    pub fn function(&self, name: &str) -> Option<usize> {
        self.fn_index.get(name).copied()
    }

    /// Total bytecode ops across all functions (a proxy for code size).
    pub fn total_ops(&self) -> usize {
        self.functions.iter().map(|f| f.chunk.ops.len()).sum()
    }
}

struct LoopCtx {
    /// Jump indices to patch to the loop-exit target.
    breaks: Vec<usize>,
    /// Jump indices to patch to the continue target.
    continues: Vec<usize>,
}

struct FnCompiler<'p> {
    fn_index: &'p HashMap<String, usize>,
    globals: &'p HashMap<String, u16>,
    ops: Vec<Op>,
    /// Deduplicated by exact kind (`add_const`); tagged once by `finish`.
    consts: Vec<Value>,
    /// Lexical scopes: each is a list of (name, slot).
    scopes: Vec<Vec<(String, u16)>>,
    n_locals: u16,
    loops: Vec<LoopCtx>,
}

impl<'p> FnCompiler<'p> {
    fn add_const(&mut self, v: Value) -> Result<u16, LangError> {
        for (i, existing) in self.consts.iter().enumerate() {
            let same = match (existing, &v) {
                (Value::Int(a), Value::Int(b)) => a == b,
                (Value::Str(a), Value::Str(b)) => a == b,
                (Value::Bool(a), Value::Bool(b)) => a == b,
                (Value::Null, Value::Null) => true,
                (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                _ => false,
            };
            if same {
                return Ok(i as u16);
            }
        }
        if self.consts.len() > u16::MAX as usize {
            return Err(LangError::compile("too many constants in one function"));
        }
        self.consts.push(v);
        Ok((self.consts.len() - 1) as u16)
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn emit_jump(&mut self, make: fn(u32) -> Op) -> usize {
        self.emit(make(u32::MAX))
    }

    fn patch_jump(&mut self, at: usize) {
        let target = self.ops.len() as u32;
        self.patch_jump_to(at, target);
    }

    fn patch_jump_to(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t) => {
                *t = target;
            }
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn declare_local(&mut self, name: &str) -> Result<u16, LangError> {
        if self.n_locals == u16::MAX {
            return Err(LangError::compile("too many locals"));
        }
        let slot = self.n_locals;
        self.n_locals += 1;
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .push((name.to_string(), slot));
        Ok(slot)
    }

    fn resolve_local(&self, name: &str) -> Option<u16> {
        for scope in self.scopes.iter().rev() {
            for (n, slot) in scope.iter().rev() {
                if n == name {
                    return Some(*slot);
                }
            }
        }
        None
    }

    fn compile_block(&mut self, stmts: &[Stmt]) -> Result<(), LangError> {
        self.scopes.push(Vec::new());
        for stmt in stmts {
            self.compile_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn compile_stmt(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        match stmt {
            Stmt::Let { name, value } => {
                self.compile_expr(value)?;
                // Top-level `let`s write globals; function-level `let`s
                // declare locals. The globals map is only populated for the
                // synthetic top-level function.
                if let Some(g) = self.globals.get(name).copied() {
                    self.emit(Op::StoreGlobal(g));
                } else {
                    let slot = self.declare_local(name)?;
                    self.emit(Op::StoreLocal(slot));
                }
                Ok(())
            }
            Stmt::Assign { target, value } => match target {
                Target::Var(name) => {
                    self.compile_expr(value)?;
                    if let Some(slot) = self.resolve_local(name) {
                        self.emit(Op::StoreLocal(slot));
                    } else if let Some(g) = self.globals.get(name).copied() {
                        self.emit(Op::StoreGlobal(g));
                    } else {
                        return Err(LangError::compile(format!(
                            "assignment to undeclared variable `{name}`"
                        )));
                    }
                    Ok(())
                }
                Target::Index { base, index } => {
                    // `obj.field = v` sugar parses as an index store with a
                    // literal string key; emit the inline-cached property
                    // store so the site participates in IC profiling.
                    if let Expr::Str(key) = index {
                        self.compile_expr(base)?;
                        self.compile_expr(value)?;
                        let c = self.add_const(Value::str(key))?;
                        self.emit(Op::SetProp(c));
                    } else {
                        self.compile_expr(base)?;
                        self.compile_expr(index)?;
                        self.compile_expr(value)?;
                        self.emit(Op::SetIndex { guard: None });
                    }
                    Ok(())
                }
            },
            Stmt::Expr(e) => {
                self.compile_expr(e)?;
                self.emit(Op::Pop);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.compile_expr(cond)?;
                let to_else = self.emit_jump(Op::JumpIfFalse);
                self.compile_block(then_body)?;
                if else_body.is_empty() {
                    self.patch_jump(to_else);
                } else {
                    let to_end = self.emit_jump(Op::Jump);
                    self.patch_jump(to_else);
                    self.compile_block(else_body)?;
                    self.patch_jump(to_end);
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let loop_start = self.ops.len() as u32;
                self.compile_expr(cond)?;
                let to_end = self.emit_jump(Op::JumpIfFalse);
                self.loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.compile_block(body)?;
                let ctx = self.loops.pop().expect("loop ctx pushed above");
                for c in ctx.continues {
                    self.patch_jump_to(c, loop_start);
                }
                self.emit(Op::Jump(loop_start));
                self.patch_jump(to_end);
                for b in ctx.breaks {
                    self.patch_jump(b);
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // The induction variable lives in its own scope.
                self.scopes.push(Vec::new());
                self.compile_stmt(init)?;
                let loop_start = self.ops.len() as u32;
                self.compile_expr(cond)?;
                let to_end = self.emit_jump(Op::JumpIfFalse);
                self.loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.compile_block(body)?;
                let ctx = self.loops.pop().expect("loop ctx pushed above");
                let step_start = self.ops.len() as u32;
                for c in ctx.continues {
                    self.patch_jump_to(c, step_start);
                }
                self.compile_stmt(step)?;
                self.emit(Op::Jump(loop_start));
                self.patch_jump(to_end);
                for b in ctx.breaks {
                    self.patch_jump(b);
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(value) => {
                match value {
                    Some(e) => self.compile_expr(e)?,
                    None => {
                        let c = self.add_const(Value::Null)?;
                        self.emit(Op::Const(c));
                    }
                }
                self.emit(Op::Return);
                Ok(())
            }
            Stmt::Break => {
                let j = self.emit_jump(Op::Jump);
                match self.loops.last_mut() {
                    Some(ctx) => ctx.breaks.push(j),
                    None => return Err(LangError::compile("`break` outside loop")),
                }
                Ok(())
            }
            Stmt::Continue => {
                let j = self.emit_jump(Op::Jump);
                match self.loops.last_mut() {
                    Some(ctx) => ctx.continues.push(j),
                    None => return Err(LangError::compile("`continue` outside loop")),
                }
                Ok(())
            }
        }
    }

    fn compile_expr(&mut self, expr: &Expr) -> Result<(), LangError> {
        match expr {
            Expr::Int(v) => {
                let c = self.add_const(Value::Int(*v))?;
                self.emit(Op::Const(c));
            }
            Expr::Float(v) => {
                let c = self.add_const(Value::Float(*v))?;
                self.emit(Op::Const(c));
            }
            Expr::Str(s) => {
                let c = self.add_const(Value::str(s))?;
                self.emit(Op::Const(c));
            }
            Expr::Bool(b) => {
                let c = self.add_const(Value::Bool(*b))?;
                self.emit(Op::Const(c));
            }
            Expr::Null => {
                let c = self.add_const(Value::Null)?;
                self.emit(Op::Const(c));
            }
            Expr::Var(name) => {
                if let Some(slot) = self.resolve_local(name) {
                    self.emit(Op::LoadLocal(slot));
                } else if let Some(g) = self.globals.get(name).copied() {
                    self.emit(Op::LoadGlobal(g));
                } else {
                    return Err(LangError::compile(format!("unknown variable `{name}`")));
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                self.compile_expr(lhs)?;
                self.compile_expr(rhs)?;
                let binary = |kind| Op::Binary { kind, guard: None };
                self.emit(match op {
                    BinOp::Add => binary(BinKind::Add),
                    BinOp::Sub => binary(BinKind::Sub),
                    BinOp::Mul => binary(BinKind::Mul),
                    BinOp::Div => binary(BinKind::Div),
                    BinOp::Mod => binary(BinKind::Mod),
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => binary(BinKind::Lt),
                    BinOp::Le => binary(BinKind::Le),
                    BinOp::Gt => binary(BinKind::Gt),
                    BinOp::Ge => binary(BinKind::Ge),
                });
            }
            Expr::And(lhs, rhs) => {
                self.compile_expr(lhs)?;
                let j = self.emit_jump(Op::JumpIfFalsePeek);
                self.emit(Op::Pop);
                self.compile_expr(rhs)?;
                self.patch_jump(j);
            }
            Expr::Or(lhs, rhs) => {
                self.compile_expr(lhs)?;
                let j = self.emit_jump(Op::JumpIfTruePeek);
                self.emit(Op::Pop);
                self.compile_expr(rhs)?;
                self.patch_jump(j);
            }
            Expr::Unary { op, operand } => {
                self.compile_expr(operand)?;
                self.emit(match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                });
            }
            Expr::Call { callee, args } => {
                if args.len() > u8::MAX as usize {
                    return Err(LangError::compile("too many call arguments"));
                }
                if callee == "fireworks_snapshot" {
                    if !args.is_empty() {
                        return Err(LangError::compile(
                            "fireworks_snapshot() takes no arguments",
                        ));
                    }
                    self.emit(Op::Snapshot);
                    return Ok(());
                }
                for a in args {
                    self.compile_expr(a)?;
                }
                let argc = args.len() as u8;
                if let Some(func) = self.fn_index.get(callee).copied() {
                    self.emit(Op::Call {
                        func: func as u16,
                        argc,
                    });
                } else if let Some(builtin) = Builtin::from_name(callee) {
                    self.emit(Op::CallBuiltin { builtin, argc });
                } else {
                    // Unknown names become host calls, resolved by the
                    // embedding at runtime (I/O, DB, bus, MMDS, chains).
                    let c = self.add_const(Value::str(callee))?;
                    self.emit(Op::CallHost { name: c, argc });
                }
            }
            Expr::Index { base, index } => {
                // `obj.field` sugar parses as an index load with a literal
                // string key; emit the inline-cached property load.
                if let Expr::Str(key) = &**index {
                    self.compile_expr(base)?;
                    let c = self.add_const(Value::str(key))?;
                    self.emit(Op::GetProp(c));
                } else {
                    self.compile_expr(base)?;
                    self.compile_expr(index)?;
                    self.emit(Op::Index { guard: None });
                }
            }
            Expr::Array(items) => {
                if items.len() > u16::MAX as usize {
                    return Err(LangError::compile("array literal too large"));
                }
                for item in items {
                    self.compile_expr(item)?;
                }
                self.emit(Op::MakeArray(items.len() as u16));
            }
            Expr::Map(entries) => {
                if entries.len() > u16::MAX as usize {
                    return Err(LangError::compile("map literal too large"));
                }
                for (k, v) in entries {
                    let c = self.add_const(Value::str(k))?;
                    self.emit(Op::Const(c));
                    self.compile_expr(v)?;
                }
                self.emit(Op::MakeMap(entries.len() as u16));
            }
        }
        Ok(())
    }

    fn finish(mut self, name: &str, arity: u8) -> Result<Chunk, LangError> {
        // Implicit `return null` at the end of every body.
        let c = self.add_const(Value::Null)?;
        self.emit(Op::Const(c));
        self.emit(Op::Return);
        Ok(Chunk {
            name: name.to_string(),
            arity,
            n_locals: self.n_locals,
            ops: self.ops,
            consts: self.consts.into_iter().map(TaggedValue::from).collect(),
        })
    }
}

/// Compiles parsed items into a [`Program`].
///
/// Top-level statements are gathered into a synthetic
/// [`TOPLEVEL`] function (the module body); top-level `let`s become
/// globals visible to every function, mirroring script semantics in
/// Node.js and Python.
pub fn compile_items(items: &[Item]) -> Result<Program, LangError> {
    // Pass 1: function table and globals.
    let mut fn_index: HashMap<String, usize> = HashMap::new();
    let mut decls: Vec<&FnDecl> = Vec::new();
    let mut top_stmts: Vec<&Stmt> = Vec::new();
    let mut global_names: Vec<String> = Vec::new();
    let mut globals: HashMap<String, u16> = HashMap::new();

    for item in items {
        match item {
            Item::Fn(decl) => {
                if fn_index.insert(decl.name.clone(), decls.len()).is_some() {
                    return Err(LangError::compile(format!(
                        "duplicate function `{}`",
                        decl.name
                    )));
                }
                decls.push(decl);
            }
            Item::Stmt(stmt) => {
                if let Stmt::Let { name, .. } = stmt {
                    if !globals.contains_key(name) {
                        if global_names.len() > u16::MAX as usize {
                            return Err(LangError::compile("too many globals"));
                        }
                        globals.insert(name.clone(), global_names.len() as u16);
                        global_names.push(name.clone());
                    }
                }
                top_stmts.push(stmt);
            }
        }
    }
    let has_toplevel = !top_stmts.is_empty();
    if has_toplevel && fn_index.contains_key(TOPLEVEL) {
        return Err(LangError::compile(format!("`{TOPLEVEL}` is reserved")));
    }
    let toplevel_idx = decls.len();
    if has_toplevel {
        fn_index.insert(TOPLEVEL.to_string(), toplevel_idx);
    }

    // Pass 2: compile bodies.
    let mut functions = Vec::with_capacity(decls.len() + usize::from(has_toplevel));
    for decl in &decls {
        if decl.params.len() > u8::MAX as usize {
            return Err(LangError::compile(format!(
                "function `{}` has too many parameters",
                decl.name
            )));
        }
        let mut fc = FnCompiler {
            fn_index: &fn_index,
            globals: &globals,
            ops: Vec::new(),
            consts: Vec::new(),
            scopes: vec![Vec::new()],
            n_locals: 0,
            loops: Vec::new(),
        };
        for p in &decl.params {
            fc.declare_local(p)?;
        }
        for stmt in &decl.body {
            fc.compile_stmt(stmt)?;
        }
        let chunk = fc.finish(&decl.name, decl.params.len() as u8)?;
        functions.push(FuncDef {
            chunk: Rc::new(chunk),
            jit_hint: decl.jit_hint,
        });
    }
    if has_toplevel {
        let mut fc = FnCompiler {
            fn_index: &fn_index,
            globals: &globals,
            ops: Vec::new(),
            consts: Vec::new(),
            scopes: vec![Vec::new()],
            n_locals: 0,
            loops: Vec::new(),
        };
        for stmt in &top_stmts {
            fc.compile_stmt(stmt)?;
        }
        let chunk = fc.finish(TOPLEVEL, 0)?;
        functions.push(FuncDef {
            chunk: Rc::new(chunk),
            jit_hint: false,
        });
    }

    Ok(Program {
        functions,
        fn_index,
        global_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Program {
        compile_items(&parse(lex(src).expect("lexes")).expect("parses")).expect("compiles")
    }

    #[test]
    fn compiles_function_table_and_toplevel() {
        let p = compile_src("let g = 1; fn f(a) { return a; } print(g);");
        assert!(p.function("f").is_some());
        assert!(p.function(TOPLEVEL).is_some());
        assert_eq!(p.global_names, vec!["g"]);
    }

    #[test]
    fn unknown_variable_is_a_compile_error() {
        let items = parse(lex("fn f() { return missing; }").expect("lexes")).expect("parses");
        assert!(matches!(
            compile_items(&items),
            Err(LangError::Compile { .. })
        ));
    }

    #[test]
    fn assignment_to_undeclared_is_an_error() {
        let items = parse(lex("fn f() { x = 1; }").expect("lexes")).expect("parses");
        assert!(compile_items(&items).is_err());
    }

    #[test]
    fn break_outside_loop_is_an_error() {
        let items = parse(lex("fn f() { break; }").expect("lexes")).expect("parses");
        assert!(compile_items(&items).is_err());
    }

    #[test]
    fn duplicate_function_is_an_error() {
        let items = parse(lex("fn f() { } fn f() { }").expect("lexes")).expect("parses");
        assert!(compile_items(&items).is_err());
    }

    #[test]
    fn snapshot_call_compiles_to_snapshot_op() {
        let p = compile_src("fn f() { fireworks_snapshot(); }");
        let chunk = &p.functions[p.function("f").expect("exists")].chunk;
        assert!(chunk.ops.contains(&Op::Snapshot));
    }

    #[test]
    fn snapshot_with_args_is_an_error() {
        let items =
            parse(lex("fn f() { fireworks_snapshot(1); }").expect("lexes")).expect("parses");
        assert!(compile_items(&items).is_err());
    }

    #[test]
    fn unknown_calls_become_host_calls() {
        let p = compile_src("fn f() { return io_read(\"x\", 10); }");
        let chunk = &p.functions[p.function("f").expect("exists")].chunk;
        assert!(chunk
            .ops
            .iter()
            .any(|op| matches!(op, Op::CallHost { argc: 2, .. })));
    }

    #[test]
    fn known_calls_resolve_directly() {
        let p = compile_src("fn g() { } fn f() { g(); len([1]); }");
        let chunk = &p.functions[p.function("f").expect("exists")].chunk;
        assert!(chunk.ops.iter().any(|op| matches!(op, Op::Call { .. })));
        assert!(chunk.ops.iter().any(|op| matches!(
            op,
            Op::CallBuiltin {
                builtin: Builtin::Len,
                ..
            }
        )));
    }

    #[test]
    fn consts_are_deduplicated() {
        let p = compile_src("fn f() { return 1 + 1 + 1; }");
        let chunk = &p.functions[p.function("f").expect("exists")].chunk;
        let ones = chunk
            .consts
            .iter()
            .filter(|c| c.as_int() == Some(1))
            .count();
        assert_eq!(ones, 1);
    }

    #[test]
    fn jit_hint_is_preserved() {
        let p = compile_src("@jit fn hot() { } fn cold() { }");
        assert!(p.functions[p.function("hot").expect("exists")].jit_hint);
        assert!(!p.functions[p.function("cold").expect("exists")].jit_hint);
    }

    #[test]
    fn property_sugar_compiles_to_prop_ops() {
        // `.field` access and assignment must emit the IC-backed
        // GetProp/SetProp ops, not the generic Index/SetIndex path.
        let p = compile_src("fn f(m) { m.count = m.count + 1; return m.total; }");
        let chunk = &p.functions[p.function("f").expect("exists")].chunk;
        let gets = chunk
            .ops
            .iter()
            .filter(|op| matches!(op, Op::GetProp(_)))
            .count();
        let sets = chunk
            .ops
            .iter()
            .filter(|op| matches!(op, Op::SetProp(_)))
            .count();
        assert_eq!(gets, 2, "{}", chunk.disassemble());
        assert_eq!(sets, 1, "{}", chunk.disassemble());
        assert!(!chunk
            .ops
            .iter()
            .any(|op| matches!(op, Op::Index { .. } | Op::SetIndex { .. })));
        // The property name lives in the constant pool for the IC site.
        for op in &chunk.ops {
            if let Op::GetProp(c) | Op::SetProp(c) = op {
                assert!(chunk.consts[*c as usize].as_str().is_some());
            }
        }
        // Computed indexing stays on the generic path.
        let p = compile_src("fn g(m, k) { return m[k]; }");
        let chunk = &p.functions[p.function("g").expect("exists")].chunk;
        assert!(chunk.ops.iter().any(|op| matches!(op, Op::Index { .. })));
        assert!(!chunk.ops.iter().any(|op| matches!(op, Op::GetProp(_))));
    }

    #[test]
    fn block_scoping_shadows_and_releases() {
        // The inner `x` shadows; after the block the outer `x` is visible.
        let p = compile_src("fn f() { let x = 1; if (true) { let x = 2; print(x); } return x; }");
        assert!(p.function("f").is_some());
    }
}
