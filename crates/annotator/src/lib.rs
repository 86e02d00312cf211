//! The Fireworks code annotator (paper §3.2, Fig. 3).
//!
//! Given a user's serverless function source, the annotator produces a
//! transformed program that drives the Fireworks install/invoke protocol:
//!
//! 1. every user function gets the `@jit` annotation (so
//!    annotation-driven runtimes compile them — Numba's
//!    `@jit(cache=True)`, and the V8 profile's equivalent);
//! 2. a generated `__fireworks_jit()` warms the entry function with
//!    default parameters, triggering JIT compilation of the whole call
//!    graph;
//! 3. a generated `__fireworks_main()` calls `__fireworks_jit()`, then
//!    `fireworks_snapshot()` (the VM-snapshot request to the host), and —
//!    after the snapshot point, i.e. on every restore — reads the microVM
//!    id from MMDS, fetches the invocation parameters from the per-
//!    instance message-bus topic, and enters the user's function.
//!
//! The transformation is one AST rewrite ([`rewrite`]) with two front
//! ends. [`compile`] compiles the rewritten items into the program the
//! platforms install, once per source on a thread. [`annotate`] prints
//! them back out as Flame, for `fireworks-cli annotate`; no platform
//! re-parses that text.
//!
//! The protocol's names and numbers are the constants below; the
//! platform and its guest host read the same ones.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use fireworks_lang::ast::Item;
use fireworks_lang::error::LangError;
use fireworks_lang::{compiler, lexer, parser, printer, Program};

/// Name of the generated installer/invoker entry point.
pub const FIREWORKS_MAIN: &str = "__fireworks_main";
/// Name of the generated JIT-warming function.
pub const FIREWORKS_JIT: &str = "__fireworks_jit";
/// Host call that returns representative default parameters for warm-up.
pub const DEFAULT_PARAMS_CALL: &str = "default_params";
/// Host call that reads a key from the microVM metadata service.
pub const MMDS_CALL: &str = "mmds_get";
/// The metadata key that holds a clone's instance id.
pub const INSTANCE_ID_KEY: &str = "instance-id";
/// Host call that consumes one record from a message-bus topic.
pub const BUS_CONSUME_CALL: &str = "bus_consume";
/// The user's entry function: it must exist and take one parameter (the
/// request).
pub const ENTRY: &str = "main";
/// Prefix of the per-instance parameter topic; the instance id from MMDS
/// is appended.
pub const TOPIC_PREFIX: &str = "params-";
/// Warm-up calls made by `__fireworks_jit()`. Two are needed so that
/// annotation-driven compilation sees type feedback from the first call
/// (the analogue of Numba's type inference).
pub const WARMUP_CALLS: i64 = 2;

/// Configuration for one annotation run. It has nothing to set: the
/// entry, the topic prefix and the warm-up count are the protocol
/// constants [`ENTRY`], [`TOPIC_PREFIX`] and [`WARMUP_CALLS`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnnotationConfig;

/// The annotated program as Flame source.
#[derive(Debug, Clone)]
pub struct Annotated {
    /// Transformed source text.
    pub source: String,
}

/// Annotates user source for the Fireworks protocol and prints the result
/// as Flame: [`rewrite`], then the printer.
///
/// # Errors
///
/// As [`rewrite`].
///
/// # Examples
///
/// ```
/// use fireworks_annotator::{annotate, AnnotationConfig};
///
/// let user = r#"fn main(params) { return params["n"]; }"#;
/// let out = annotate(user, &AnnotationConfig).expect("annotates");
/// assert!(out.source.contains("@jit"));
/// assert!(out.source.contains("fireworks_snapshot()"));
/// ```
pub fn annotate(source: &str, _config: &AnnotationConfig) -> Result<Annotated, LangError> {
    Ok(Annotated {
        source: printer::print_items(&rewrite(source)?),
    })
}

/// Annotates user source for the Fireworks protocol and compiles the
/// result: [`rewrite`], then [`compiler::compile_items`]. The program's
/// `@jit` functions are the user's; [`FIREWORKS_MAIN`] is the entry to
/// run at install.
///
/// A program is immutable and determined by its source, so while one
/// compiled from `source` on this thread is alive, it is returned again:
/// the hosts of a cluster, each of which registers the function, share
/// one program instead of holding a copy each.
///
/// # Errors
///
/// As [`rewrite`], or when the rewritten program does not compile.
///
/// # Examples
///
/// ```
/// use fireworks_annotator::{compile, FIREWORKS_MAIN};
///
/// let program = compile(r#"fn main(params) { return params["n"]; }"#).expect("compiles");
/// assert!(program.function(FIREWORKS_MAIN).is_some());
/// assert_eq!(program.functions.iter().filter(|f| f.jit_hint).count(), 1);
/// ```
pub fn compile(source: &str) -> Result<Rc<Program>, LangError> {
    PROGRAMS.with(|programs| {
        let mut programs = programs.borrow_mut();
        if let Some(program) = programs.get(source).and_then(Weak::upgrade) {
            return Ok(program);
        }
        let program = Rc::new(compiler::compile_items(&rewrite(source)?)?);
        programs.retain(|_, program| program.strong_count() > 0);
        programs.insert(source.to_string(), Rc::downgrade(&program));
        Ok(program)
    })
}

/// The annotator's AST rewrite: parses user source, marks every user
/// function `@jit` and appends the generated [`FIREWORKS_JIT`] and
/// [`FIREWORKS_MAIN`].
///
/// # Errors
///
/// Fails if the source does not parse, the entry function ([`ENTRY`]) is
/// missing or does not take exactly one parameter, or the source already
/// defines reserved `__fireworks_*` names.
pub fn rewrite(source: &str) -> Result<Vec<Item>, LangError> {
    let tokens = lexer::lex(source)?;
    let mut items = parser::parse(tokens)?;

    let mut entry_found = false;
    for item in &mut items {
        if let Item::Fn(decl) = item {
            if decl.name.starts_with("__fireworks") {
                return Err(LangError::compile(format!(
                    "`{}` uses a reserved Fireworks name",
                    decl.name
                )));
            }
            if decl.name == ENTRY {
                entry_found = true;
                if decl.params.len() != 1 {
                    return Err(LangError::compile(format!(
                        "entry `{}` must take exactly one parameter (the request), has {}",
                        decl.name,
                        decl.params.len()
                    )));
                }
            }
            decl.jit_hint = true;
        }
    }
    if !entry_found {
        return Err(LangError::compile(format!(
            "entry function `{ENTRY}` not found"
        )));
    }

    items.extend(PROTOCOL.with(Clone::clone));
    Ok(items)
}

thread_local! {
    /// The programs [`compile`] returned on this thread, by source.
    static PROGRAMS: RefCell<HashMap<String, Weak<Program>>> = RefCell::default();

    /// The generated functions of Fig. 3 (the crate docs list what they
    /// do), parsed once per thread.
    static PROTOCOL: Vec<Item> = {
        let source = format!(
            "fn {FIREWORKS_JIT}() {{
                let w = 0;
                while (w < {WARMUP_CALLS}) {{ {ENTRY}({DEFAULT_PARAMS_CALL}()); w = w + 1; }}
            }}
            fn {FIREWORKS_MAIN}() {{
                {FIREWORKS_JIT}();
                fireworks_snapshot();
                let fc_id = {MMDS_CALL}(\"{INSTANCE_ID_KEY}\");
                let user_params = {BUS_CONSUME_CALL}(\"{TOPIC_PREFIX}\" + fc_id);
                return {ENTRY}(user_params);
            }}"
        );
        let tokens = lexer::lex(&source).expect("the protocol lexes");
        parser::parse(tokens).expect("the protocol parses")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    const USER_SRC: &str = r#"
        fn helper(x) { return x * 2; }
        fn main(params) { return helper(params["n"]); }
    "#;

    #[test]
    fn annotated_source_compiles() {
        let out = annotate(USER_SRC, &AnnotationConfig).expect("annotates");
        let program = fireworks_lang::compile(&out.source).expect("compiles");
        assert!(program.function(FIREWORKS_MAIN).is_some());
        assert!(program.function(FIREWORKS_JIT).is_some());
        assert!(program.function("main").is_some());
        assert!(program.function("helper").is_some());
    }

    #[test]
    fn all_user_functions_get_jit_hint() {
        let program = compile(USER_SRC).expect("compiles");
        for name in ["main", "helper"] {
            let idx = program.function(name).expect("exists");
            assert!(program.functions[idx].jit_hint, "{name} should be @jit");
        }
        // Generated plumbing is not annotated.
        for name in [FIREWORKS_MAIN, FIREWORKS_JIT] {
            let idx = program.function(name).expect("exists");
            assert!(!program.functions[idx].jit_hint);
        }
        assert_eq!(program.functions.iter().filter(|f| f.jit_hint).count(), 2);
    }

    #[test]
    fn the_printed_source_parses_back_to_the_rewritten_items() {
        let out = annotate(USER_SRC, &AnnotationConfig).expect("annotates");
        let reparsed = parser::parse(lexer::lex(&out.source).expect("lexes")).expect("parses");
        assert_eq!(reparsed, rewrite(USER_SRC).expect("rewrites"));
        assert!(out.source.contains("w < 2"));
        assert!(out.source.contains("\"params-\""));
    }

    /// The generated functions' printed form, pinned: the protocol
    /// template must keep parsing to this AST, which every snapshot runs.
    #[test]
    fn the_generated_functions_print_as_figure_3() {
        let out = annotate(
            "fn main(params) { return params[\"x\"] + 1; }",
            &AnnotationConfig,
        )
        .expect("annotates");
        let expected = r#"@jit
fn main(params) {
    return (params["x"] + 1);
}

fn __fireworks_jit() {
    let w = 0;
    while ((w < 2)) {
        main(default_params());
        w = (w + 1);
    }
}

fn __fireworks_main() {
    __fireworks_jit();
    fireworks_snapshot();
    let fc_id = mmds_get("instance-id");
    let user_params = bus_consume(("params-" + fc_id));
    return main(user_params);
}
"#;
        assert_eq!(out.source, expected);
    }

    #[test]
    fn one_source_compiles_to_one_program_while_it_lives() {
        let (a, b) = (compile(USER_SRC), compile(USER_SRC));
        let (a, b) = (a.expect("compiles"), b.expect("compiles"));
        assert!(Rc::ptr_eq(&a, &b));
        let other = compile("fn main(p) { return p; }").expect("compiles");
        assert!(!Rc::ptr_eq(&a, &other));
        assert!(compile("fn main(p) {").is_err());
    }

    #[test]
    fn missing_entry_is_an_error() {
        let err = annotate("fn other(x) { }", &AnnotationConfig);
        assert!(err.is_err());
    }

    #[test]
    fn wrong_entry_arity_is_an_error() {
        let err = annotate("fn main(a, b) { }", &AnnotationConfig);
        assert!(err.is_err());
    }

    #[test]
    fn reserved_names_are_rejected() {
        let err = annotate(
            "fn __fireworks_evil() { } fn main(p) { }",
            &AnnotationConfig,
        );
        assert!(err.is_err());
    }

    #[test]
    fn snapshot_point_is_after_warmup_and_before_param_fetch() {
        let out = annotate(USER_SRC, &AnnotationConfig).expect("annotates");
        let src = &out.source;
        let jit_pos = src.find("__fireworks_jit()").expect("warmer call");
        let snap_pos = src.find("fireworks_snapshot()").expect("snapshot call");
        let params_pos = src.find("bus_consume(").expect("param fetch");
        // Find the *call* inside __fireworks_main, which is after the
        // declaration of __fireworks_jit.
        let call_pos = src[jit_pos + 1..]
            .find("__fireworks_jit()")
            .map(|p| p + jit_pos + 1)
            .expect("call site");
        assert!(call_pos < snap_pos, "JIT before snapshot");
        assert!(snap_pos < params_pos, "snapshot before param fetch");
    }
}
