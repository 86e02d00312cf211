//! Pretty-printer: AST → Flame source.
//!
//! The Fireworks code annotator prints its rewritten program with it for
//! `fireworks-cli annotate`; platforms compile the rewritten AST itself,
//! so no install path re-parses printed text.

use std::fmt::Write as _;

use crate::ast::{BinOp, Expr, FnDecl, Item, Stmt, Target, UnOp};

/// Renders a list of top-level items as Flame source.
pub fn print_items(items: &[Item]) -> String {
    let mut out = String::new();
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        match item {
            Item::Fn(decl) => print_fn(&mut out, decl),
            Item::Stmt(stmt) => print_stmt(&mut out, stmt, 0),
        }
    }
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_fn(out: &mut String, decl: &FnDecl) {
    if decl.jit_hint {
        out.push_str("@jit\n");
    }
    let _ = writeln!(out, "fn {}({}) {{", decl.name, decl.params.join(", "));
    for stmt in &decl.body {
        print_stmt(out, stmt, 1);
    }
    out.push_str("}\n");
}

fn print_stmt(out: &mut String, stmt: &Stmt, level: usize) {
    indent(out, level);
    match stmt {
        Stmt::Let { name, value } => {
            let _ = writeln!(out, "let {name} = {};", print_expr(value));
        }
        Stmt::Assign { target, value } => match target {
            Target::Var(name) => {
                let _ = writeln!(out, "{name} = {};", print_expr(value));
            }
            Target::Index { base, index } => {
                let _ = writeln!(
                    out,
                    "{}[{}] = {};",
                    print_expr(base),
                    print_expr(index),
                    print_expr(value)
                );
            }
        },
        Stmt::Expr(e) => {
            let _ = writeln!(out, "{};", print_expr(e));
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let _ = writeln!(out, "if ({}) {{", print_expr(cond));
            for s in then_body {
                print_stmt(out, s, level + 1);
            }
            indent(out, level);
            if else_body.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for s in else_body {
                    print_stmt(out, s, level + 1);
                }
                indent(out, level);
                out.push_str("}\n");
            }
        }
        Stmt::While { cond, body } => {
            let _ = writeln!(out, "while ({}) {{", print_expr(cond));
            for s in body {
                print_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            let init_str = print_inline_stmt(init);
            let step_str = print_inline_stmt(step);
            let _ = writeln!(out, "for ({init_str}; {}; {step_str}) {{", print_expr(cond));
            for s in body {
                print_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::Return(Some(e)) => {
            let _ = writeln!(out, "return {};", print_expr(e));
        }
        Stmt::Return(None) => out.push_str("return;\n"),
        Stmt::Break => out.push_str("break;\n"),
        Stmt::Continue => out.push_str("continue;\n"),
    }
}

/// Prints a statement without indentation or trailing `;\n` (for `for`
/// headers). Only `let`/assign/expr are legal there.
fn print_inline_stmt(stmt: &Stmt) -> String {
    match stmt {
        Stmt::Let { name, value } => format!("let {name} = {}", print_expr(value)),
        Stmt::Assign {
            target: Target::Var(name),
            value,
        } => format!("{name} = {}", print_expr(value)),
        Stmt::Assign {
            target: Target::Index { base, index },
            value,
        } => format!(
            "{}[{}] = {}",
            print_expr(base),
            print_expr(index),
            print_expr(value)
        ),
        Stmt::Expr(e) => print_expr(e),
        other => unreachable!("not expressible in a for header: {other:?}"),
    }
}

fn bin_op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

/// Prints an expression, parenthesising conservatively (every compound
/// sub-expression gets parens, so precedence never changes meaning).
fn print_expr(expr: &Expr) -> String {
    match expr {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => {
            if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        Expr::Str(s) => format!("\"{}\"", escape(s)),
        Expr::Bool(b) => b.to_string(),
        Expr::Null => "null".to_string(),
        Expr::Var(name) => name.clone(),
        Expr::Binary { op, lhs, rhs } => {
            format!(
                "({} {} {})",
                print_expr(lhs),
                bin_op_str(*op),
                print_expr(rhs)
            )
        }
        Expr::And(l, r) => format!("({} && {})", print_expr(l), print_expr(r)),
        Expr::Or(l, r) => format!("({} || {})", print_expr(l), print_expr(r)),
        Expr::Unary { op, operand } => match op {
            UnOp::Neg => format!("(-{})", print_expr(operand)),
            UnOp::Not => format!("(!{})", print_expr(operand)),
        },
        Expr::Call { callee, args } => {
            let args: Vec<String> = args.iter().map(print_expr).collect();
            format!("{callee}({})", args.join(", "))
        }
        Expr::Index { base, index } => {
            format!("{}[{}]", print_expr(base), print_expr(index))
        }
        Expr::Array(items) => {
            let items: Vec<String> = items.iter().map(print_expr).collect();
            format!("[{}]", items.join(", "))
        }
        Expr::Map(entries) => {
            let entries: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", escape(k), print_expr(v)))
                .collect();
            format!("{{ {} }}", entries.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn round_trip(src: &str) -> Vec<Item> {
        let items = parse(lex(src).expect("lexes")).expect("parses");
        let printed = print_items(&items);
        parse(lex(&printed).unwrap_or_else(|e| panic!("re-lex {e}: {printed}")))
            .unwrap_or_else(|e| panic!("re-parse {e}: {printed}"))
    }

    #[test]
    fn print_parse_round_trip_preserves_ast() {
        let src = r#"
            @jit
            fn work(n, m) {
                let t = 0.5;
                for (let i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0 && n > 3 || m < 0) { t = t + 1; } else { continue; }
                }
                while (!(t > 100.0)) { t = t * 2.0; break; }
                return [t, { "a b": "x\ny", c: null }, -n];
            }
            fn main(p) {
                work(p["n"], p.m);
                io_write("f", 10);
                return true;
            }
            let g = "top";
            print(g);
        "#;
        let original = parse(lex(src).expect("lexes")).expect("parses");
        let reparsed = round_trip(src);
        assert_eq!(original, reparsed);
    }

    #[test]
    fn conservative_parens_do_not_change_meaning() {
        let src = "fn main(x) { return 1 + 2 * 3 - 4 % 5; }";
        let original = parse(lex(src).expect("lexes")).expect("parses");
        let reparsed = round_trip(src);
        assert_eq!(original, reparsed);
    }

    #[test]
    fn string_escapes_survive() {
        let src = r#"fn main(x) { return "a\"b\\c\nd\te"; }"#;
        let original = parse(lex(src).expect("lexes")).expect("parses");
        assert_eq!(original, round_trip(src));
    }
}
