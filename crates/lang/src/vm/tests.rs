use super::jit::MAX_COMPILES;
use super::*;
use crate::compile;

/// A host that records prints and serves a couple of host calls.
#[derive(Default)]
struct TestHost {
    printed: Vec<String>,
    host_calls: Vec<String>,
    /// The arguments of each `record(...)` call.
    recorded: Vec<Vec<Value>>,
}

impl Host for TestHost {
    fn print(&mut self, text: &str) {
        self.printed.push(text.to_string());
    }

    fn host_call(&mut self, name: &str, args: &[TaggedValue]) -> Result<Value, LangError> {
        self.host_calls.push(name.to_string());
        match name {
            "give_seven" => Ok(Value::Int(7)),
            "echo" => Ok(args[0].to_value()),
            "record" => {
                self.recorded
                    .push(args.iter().map(TaggedValue::to_value).collect());
                Ok(Value::Int(args.len() as i64))
            }
            other => Err(LangError::runtime(format!("unknown host call `{other}`"))),
        }
    }
}

fn run_main(src: &str, args: Vec<Value>) -> Value {
    run_main_with(src, args, JitPolicy::default()).0
}

fn run_main_with(src: &str, args: Vec<Value>, policy: JitPolicy) -> (Value, ExecStats) {
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::with_policy(program, policy);
    vm.start("main", args).expect("starts");
    let out = vm.run(&mut TestHost::default()).expect("runs");
    let Outcome::Done(v) = out else {
        panic!("expected completion, got {out:?}")
    };
    (v, vm.stats())
}

#[test]
fn arithmetic_and_loops() {
    let v = run_main(
        "fn main(n) { let t = 0; for (let i = 1; i <= n; i = i + 1) { t = t + i * i; } return t; }",
        vec![Value::Int(10)],
    );
    assert_eq!(v, Value::Int(385));
}

#[test]
fn recursion_works() {
    let v = run_main(
        "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
         fn main(n) { return fib(n); }",
        vec![Value::Int(15)],
    );
    assert!(v.eq_value(&Value::Int(610)));
}

#[test]
fn while_with_break_and_continue() {
    let v = run_main(
        "fn main(x) {
            let sum = 0;
            let i = 0;
            while (true) {
                i = i + 1;
                if (i > 100) { break; }
                if (i % 2 == 0) { continue; }
                sum = sum + i;
            }
            return sum;
        }",
        vec![Value::Int(0)],
    );
    // Sum of odd numbers 1..=99 = 2500.
    assert!(v.eq_value(&Value::Int(2500)));
}

#[test]
fn arrays_maps_and_builtins() {
    let v = run_main(
        r#"fn main(x) {
            let a = [1, 2, 3];
            push(a, 4);
            let m = { count: len(a), name: "fw" };
            m["extra"] = a[3];
            return str(m.count) + "-" + m.name + "-" + str(m.extra);
        }"#,
        vec![Value::Int(0)],
    );
    assert!(v.eq_value(&Value::str("4-fw-4")));
}

#[test]
fn string_builtins() {
    let v = run_main(
        r#"fn main(x) {
            let parts = split("a,b,c", ",");
            return join(parts, "|") + ":" + substr("hello", 1, 3);
        }"#,
        vec![Value::Int(0)],
    );
    assert!(v.eq_value(&Value::str("a|b|c:ell")));
}

#[test]
fn globals_are_shared_across_functions() {
    let program = Rc::new(
        compile(
            "let counter = 0;
             fn bump() { counter = counter + 1; return counter; }
             fn main(x) { bump(); bump(); return bump(); }",
        )
        .expect("compiles"),
    );
    let mut vm = Vm::new(program.clone());
    // Run the module body first (defines globals), then main.
    vm.start(crate::compiler::TOPLEVEL, vec![]).expect("starts");
    let out = vm.run(&mut TestHost::default()).expect("runs");
    assert!(matches!(out, Outcome::Done(_)));
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done");
    };
    assert!(v.eq_value(&Value::Int(3)));
}

#[test]
fn short_circuit_does_not_evaluate_rhs() {
    let mut host = TestHost::default();
    let program = Rc::new(
        compile("fn main(x) { let v = false && give_seven(); return v; }").expect("compiles"),
    );
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    let Outcome::Done(v) = vm.run(&mut host).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Bool(false)));
    assert!(host.host_calls.is_empty(), "rhs must not run");
}

#[test]
fn host_calls_route_to_host() {
    let mut host = TestHost::default();
    let program =
        Rc::new(compile("fn main(x) { return give_seven() + echo(x); }").expect("compiles"));
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(5)]).expect("starts");
    let Outcome::Done(v) = vm.run(&mut host).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(12)));
    assert_eq!(host.host_calls, vec!["give_seven", "echo"]);
    assert_eq!(vm.stats().host_calls, 2);
}

#[test]
fn host_call_sees_its_arguments_in_push_order() {
    let mut host = TestHost::default();
    let src = r#"fn main(x) { return record(1, "two", x, [3], 4.5, null) + record(); }"#;
    let mut vm = Vm::new(Rc::new(compile(src).expect("compiles")));
    vm.start("main", vec![Value::Int(-9)]).expect("starts");
    assert_eq!(vm.run(&mut host), Ok(Outcome::Done(Value::Int(6))));
    let first = vec![
        Value::Int(1),
        Value::str("two"),
        Value::Int(-9),
        Value::array(vec![Value::Int(3)]),
        Value::Float(4.5),
        Value::Null,
    ];
    assert_eq!(host.recorded, vec![first, vec![]]);
}

#[test]
fn host_call_arguments_give_back_their_counts() {
    use crate::tagged::tests::box_count;
    let src = r#"fn main(x) {
        for (let i = 0; i < 2; i = i + 1) { record("payload", x); }
        fireworks_snapshot();
        return 0;
    }"#;
    let program = Rc::new(compile(src).expect("compiles"));
    let chunk = program.functions[program.function("main").expect("main")]
        .chunk
        .clone();
    let word = chunk.consts.iter().find(|c| c.as_str() == Some("payload"));
    let word = word.expect("a pooled string");
    let before = box_count(word);
    let mut host = TestHost::default();
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(1)]).expect("starts");
    assert_eq!(vm.run(&mut host), Ok(Outcome::Snapshot));
    assert_eq!(box_count(word), before, "each call dropped the word it saw");
    assert_eq!(
        host.recorded,
        vec![vec![Value::str("payload"), Value::Int(1)]; 2]
    );
    assert_eq!(vm.run(&mut host), Ok(Outcome::Done(Value::Int(0))));
    drop(vm);
    assert_eq!(box_count(word), before);
}

#[test]
fn host_call_error_drops_each_argument_once() {
    let arr = Value::array(vec![Value::Int(1)]);
    let Value::Array(rc) = &arr else {
        unreachable!("an array")
    };
    let src = r#"fn main(a) { return missing(a, "text", a); }"#;
    let mut vm = Vm::new(Rc::new(compile(src).expect("compiles")));
    vm.start("main", vec![arr.clone()]).expect("starts");
    assert_eq!(
        vm.run(&mut TestHost::default()),
        Err(LangError::runtime("unknown host call `missing`"))
    );
    // This handle and the frame's local `a`: both copies passed are gone.
    assert_eq!(Rc::strong_count(rc), 2);
    drop(vm);
    assert_eq!(Rc::strong_count(rc), 1);
}

#[test]
fn builtin_arity_and_type_errors_keep_their_messages() {
    for (call, message) in [
        ("len(1, 2)", "builtin Len expects 1 arguments"),
        ("substr(\"abc\", 1)", "builtin Substr expects 3 arguments"),
        ("min(1)", "builtin Min expects 2 arguments"),
        ("len(5)", "len() of int"),
        ("push(1, 2)", "push() needs an array"),
        ("pop([])", "pop() from empty array"),
        ("keys([])", "keys() needs a map"),
        ("has(1.5, 1)", "has() of float"),
        ("has({ a: 1 }, 1)", "has() on a map needs a string key"),
        ("has(\"ab\", 1)", "has() on a string needs a string"),
        ("remove([], \"k\")", "remove() needs a map and a string key"),
        ("int(\"x1\")", "int() cannot parse `x1`"),
        ("int(null)", "int() of null"),
        ("float(true)", "float() of bool"),
        ("floor(\"1\")", "floor() of string"),
        ("sqrt([])", "sqrt() of array"),
        ("abs({ a: 1 })", "abs() of map"),
        ("max(1, \"2\")", "min()/max() need numbers"),
        ("split(\"a\", 1)", "split() needs two strings"),
        ("join(\"a\", \",\")", "join() needs an array and a string"),
        (
            "substr(\"abc\", 1.0, 1)",
            "substr() needs (string, int, int)",
        ),
    ] {
        let src = format!("fn main(x) {{ return {call}; }}");
        let mut vm = Vm::new(Rc::new(compile(&src).expect("compiles")));
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        let err = vm.run(&mut TestHost::default());
        assert_eq!(err, Err(LangError::runtime(message)), "{call}");
    }
}

#[test]
fn print_goes_to_host() {
    let mut host = TestHost::default();
    let program =
        Rc::new(compile(r#"fn main(x) { print("hello", x); return null; }"#).expect("ok"));
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(3)]).expect("starts");
    vm.run(&mut host).expect("runs");
    assert_eq!(host.printed, vec!["hello 3"]);
}

#[test]
fn hotspot_policy_tiers_up_loops() {
    let (_, stats) = run_main_with(
        "fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }",
        vec![Value::Int(10_000)],
        JitPolicy::default(),
    );
    assert!(stats.compiles >= 1, "hot loop should tier up");
    assert!(
        stats.jit_ops > stats.interp_ops,
        "most ops should retire in the JIT tier: {stats:?}"
    );
    assert_eq!(stats.deopts, 0);
}

#[test]
fn off_policy_never_compiles() {
    let (_, stats) = run_main_with(
        "fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }",
        vec![Value::Int(10_000)],
        JitPolicy::Off,
    );
    assert_eq!(stats.compiles, 0);
    assert_eq!(stats.jit_ops, 0);
}

#[test]
fn annotated_eager_compiles_only_hinted() {
    let program = Rc::new(
        compile(
            "@jit fn hot(n) { return n * 2; }
             fn cold(n) { return n + 1; }
             fn main(n) { hot(n); cold(n); return hot(n) + cold(n); }",
        )
        .expect("compiles"),
    );
    let mut vm = Vm::with_policy(program, JitPolicy::AnnotatedEager);
    vm.start("main", vec![Value::Int(10)]).expect("starts");
    let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(31)));
    assert!(vm.is_jitted("hot"));
    assert!(!vm.is_jitted("cold"));
    assert!(!vm.is_jitted("main"));
}

#[test]
fn jit_results_match_interpreter_results() {
    let src = "fn work(n) {
        let acc = 0.0;
        for (let i = 1; i <= n; i = i + 1) {
            acc = acc + sqrt(float(i)) * 1.5;
            if (i % 7 == 0) { acc = acc - 1.0; }
        }
        return acc;
    }
    fn main(n) { return work(n); }";
    let (jit, s1) = run_main_with(src, vec![Value::Int(5_000)], JitPolicy::default());
    let (interp, s2) = run_main_with(src, vec![Value::Int(5_000)], JitPolicy::Off);
    assert!(jit.eq_value(&interp), "{jit} != {interp}");
    assert!(s1.compiles > 0 && s2.compiles == 0);
}

#[test]
fn type_change_triggers_deopt_and_correct_result() {
    // Warm up `add` with ints so it quickens to AddII, then call it
    // with strings: the guard must fail, deopt, and still produce the
    // right answer.
    let src = r#"
        fn add(a, b) { return a + b; }
        fn main(x) {
            let t = 0;
            for (let i = 0; i < 200; i = i + 1) { t = add(t, 1); }
            return add("a", "b") + str(t);
        }"#;
    let (v, stats) = run_main_with(src, vec![Value::Int(0)], JitPolicy::default());
    assert!(v.eq_value(&Value::str("ab200")));
    assert!(stats.deopts >= 1, "expected a deopt: {stats:?}");
}

#[test]
fn repeated_deopts_ban_function() {
    let src = r#"
        fn add(a, b) { return a + b; }
        fn main(x) {
            let t = 0;
            // Alternate hot int phases with type changes to force
            // repeated recompile + deopt cycles.
            for (let round = 0; round < 6; round = round + 1) {
                for (let i = 0; i < 100; i = i + 1) { t = add(t, 1); }
                let s = add("x", "y");
            }
            return t;
        }"#;
    let (v, stats) = run_main_with(src, vec![Value::Int(0)], JitPolicy::default());
    assert!(v.eq_value(&Value::Int(600)));
    // Compiles are bounded by the ban (each function may tier up twice
    // — quickened then optimized — per recompile allowance).
    assert!(
        stats.compiles <= 2 * (u64::from(MAX_COMPILES) + 1),
        "{stats:?}"
    );
}

#[test]
fn snapshot_suspends_and_resumes() {
    let src = "fn main(x) {
        let a = 1;
        fireworks_snapshot();
        return a + x;
    }";
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(10)]).expect("starts");
    let out = vm.run(&mut TestHost::default()).expect("runs");
    assert_eq!(out, Outcome::Snapshot);
    assert!(vm.is_suspended());
    let out = vm.run(&mut TestHost::default()).expect("resumes");
    let Outcome::Done(v) = out else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(11)));
}

#[test]
fn snapshot_clones_resume_independently() {
    let src = "fn main(x) {
        let log = [];
        push(log, \"pre\");
        fireworks_snapshot();
        push(log, str(x));
        return join(log, \",\");
    }";
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(1)]).expect("starts");
    assert_eq!(
        vm.run(&mut TestHost::default()).expect("runs"),
        Outcome::Snapshot
    );
    let snap = vm.snapshot_state();

    // Two clones resume from the same snapshot. The argument `x` is
    // frozen in the snapshot — exactly the paper's problem that the
    // parameter passer solves at a higher layer.
    let mut a = Vm::from_snapshot(&snap);
    let mut b = Vm::from_snapshot(&snap);
    let Outcome::Done(va) = a.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    let Outcome::Done(vb) = b.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(va.eq_value(&Value::str("pre,1")));
    assert!(vb.eq_value(&Value::str("pre,1")));

    // And the original can still finish, unaffected by the clones.
    let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::str("pre,1")));
}

#[test]
fn snapshot_preserves_jit_tier() {
    let src = "
        fn hot(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
        fn main(x) {
            hot(1000);
            fireworks_snapshot();
            return hot(100);
        }";
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    assert_eq!(
        vm.run(&mut TestHost::default()).expect("runs"),
        Outcome::Snapshot
    );
    assert!(vm.is_jitted("hot"));
    let snap = vm.snapshot_state();
    assert!(snap.jit_code_ops() > 0);

    let mut clone = Vm::from_snapshot(&snap);
    assert!(clone.is_jitted("hot"), "JIT code must survive the snapshot");
    let Outcome::Done(v) = clone.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(4950)));
    let stats = clone.stats();
    // The resumed run executes `hot` in the JIT tier without paying
    // any compile cost — the post-JIT benefit.
    assert_eq!(stats.compiles, 0);
    assert!(stats.jit_ops > 0);
}

#[test]
fn snapshot_clone_mutations_do_not_leak() {
    let src = "
        let state = { n: 0 };
        fn main(x) {
            state.n = state.n + 1;
            return state.n;
        }";
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::new(program);
    vm.start(crate::compiler::TOPLEVEL, vec![]).expect("starts");
    vm.run(&mut TestHost::default()).expect("runs");
    let snap = vm.snapshot_state();

    for _ in 0..3 {
        let mut clone = Vm::from_snapshot(&snap);
        clone.start("main", vec![Value::Int(0)]).expect("starts");
        let Outcome::Done(v) = clone.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        // Every clone starts from n = 0: no cross-clone leakage.
        assert!(v.eq_value(&Value::Int(1)));
    }
}

#[test]
fn arity_mismatch_is_a_runtime_error() {
    let program = Rc::new(compile("fn f(a) { } fn main(x) { return x; }").expect("ok"));
    let mut vm = Vm::new(program);
    assert!(vm.start("main", vec![]).is_err());
    assert!(vm.start("nonexistent", vec![]).is_err());
}

#[test]
fn division_by_zero_is_reported() {
    let program = Rc::new(compile("fn main(x) { return 1 / x; }").expect("ok"));
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    assert!(vm.run(&mut TestHost::default()).is_err());
}

#[test]
fn quickened_division_by_zero_is_reported() {
    let src = "fn d(a, b) { return a / b; }
               fn main(x) {
                   let t = 0;
                   for (let i = 1; i < 200; i = i + 1) { t = t + d(100, i); }
                   return d(1, x);
               }";
    let program = Rc::new(compile(src).expect("ok"));
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    assert!(vm.run(&mut TestHost::default()).is_err());
}

#[test]
fn out_of_bounds_index_is_reported() {
    let program = Rc::new(compile("fn main(x) { let a = [1]; return a[x]; }").expect("ok"));
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(5)]).expect("starts");
    assert!(vm.run(&mut TestHost::default()).is_err());
}

#[test]
fn missing_map_key_yields_null() {
    let v = run_main(
        "fn main(x) { let m = { a: 1 }; return m[\"missing\"]; }",
        vec![Value::Int(0)],
    );
    assert!(v.eq_value(&Value::Null));
}

#[test]
fn annotation_reaches_top_tier_but_organic_heat_only_quickens() {
    let src = "
        @jit fn hot(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
        fn main(n) { hot(n); return hot(n); }";
    // Forced annotation: straight to the optimized tier.
    let program = Rc::new(compile(src).expect("ok"));
    let mut vm = Vm::with_policy(program.clone(), JitPolicy::AnnotatedEager);
    vm.start("main", vec![Value::Int(100)]).expect("starts");
    vm.run(&mut TestHost::default()).expect("runs");
    assert!(vm.is_optimized("hot"), "annotation forces the top tier");
    assert!(vm.stats().opt_ops > 0);

    // Organic heat at serverless scale: quickened, not optimized.
    let mut vm = Vm::with_policy(
        program,
        JitPolicy::HotSpot {
            call_threshold: 1,
            loop_threshold: 10,
        },
    );
    vm.start("main", vec![Value::Int(100)]).expect("starts");
    vm.run(&mut TestHost::default()).expect("runs");
    assert!(vm.is_jitted("hot"));
    assert!(
        !vm.is_optimized("hot"),
        "two invocations' heat must not reach the top tier"
    );
}

#[test]
fn sustained_heat_promotes_to_top_tier() {
    let src = "fn hot(n) { return n + 1; }
               fn main(reps) {
                   let t = 0;
                   for (let i = 0; i < reps; i = i + 1) { t = hot(t); }
                   return t;
               }";
    let program = Rc::new(compile(src).expect("ok"));
    let mut vm = Vm::with_policy(
        program,
        JitPolicy::HotSpot {
            call_threshold: 4,
            loop_threshold: 1_000_000,
        },
    );
    // 4 × 25 (promote factor) = 100 calls needed; run well past it.
    vm.start("main", vec![Value::Int(500)]).expect("starts");
    let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(500)));
    assert!(
        vm.is_optimized("hot"),
        "sustained traffic reaches the top tier"
    );
}

#[test]
fn fuel_limits_execution() {
    let program = Rc::new(
        compile("fn main(x) { let i = 0; while (true) { i = i + 1; } return i; }").expect("ok"),
    );
    let mut vm = Vm::new(program);
    vm.set_fuel(Some(10_000));
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    let err = vm.run(&mut TestHost::default());
    assert!(matches!(err, Err(LangError::Timeout { ops }) if ops >= 10_000));
}

#[test]
fn sufficient_fuel_completes_and_decrements() {
    let program = Rc::new(
        compile(
            "fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }",
        )
        .expect("ok"),
    );
    let mut vm = Vm::new(program);
    vm.set_fuel(Some(1_000_000));
    vm.start("main", vec![Value::Int(100)]).expect("starts");
    let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(4950)));
    let remaining = vm.fuel().expect("fuel still set");
    assert!(remaining < 1_000_000 && remaining > 0);
}

#[test]
fn no_fuel_means_unlimited() {
    let program = Rc::new(compile("fn main(n) { return n; }").expect("ok"));
    let vm = Vm::new(program);
    assert_eq!(vm.fuel(), None);
}

#[test]
fn property_sites_go_monomorphic_and_hit() {
    let src = "fn main(n) {
        let p = { x: 1, y: 2 };
        let t = 0;
        for (let i = 0; i < n; i = i + 1) { t = t + p.x + p.y; }
        return t;
    }";
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::with_policy(program, JitPolicy::Off);
    vm.start("main", vec![Value::Int(100)]).expect("starts");
    let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(300)));
    let ic = vm.ic_summary();
    assert_eq!(ic.mono, 2, "both access sites stay monomorphic: {ic:?}");
    assert_eq!(ic.mega, 0);
    // One miss per site (first observation), hits for the other 99.
    assert_eq!(vm.stats().ic_misses, 2);
    assert_eq!(vm.stats().ic_hits, 2 * 100 - 2);
}

#[test]
fn ic_transitions_mono_to_poly_to_mega() {
    // One access site (`read`) sees four distinct map shapes. With a
    // poly limit of 2 the ladder is: mono(a) → poly(a,b) → mega.
    let src = "
        fn read(m) { return m.k; }
        fn main(x) {
            let a = { k: 1 };
            let b = { k: 2, extra: 0 };
            let c = { k: 3, other: 0 };
            let d = { k: 4, more: 0, yet: 1 };
            return read(a) + read(a) + read(b) + read(c) + read(d);
        }";
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::with_config(
        program,
        JitConfig::default()
            .with_policy(Some(JitPolicy::Off))
            .with_ic_poly_limit(2),
    );
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(11)));
    let ic = vm.ic_summary();
    assert_eq!(ic.sites, 1, "{ic:?}");
    assert_eq!(ic.mega, 1, "site must end megamorphic: {ic:?}");
    // Misses: first sight of a, then b (poly), c (to mega), d (mega).
    assert_eq!(vm.stats().ic_misses, 4);
    assert_eq!(vm.stats().ic_hits, 1, "second read(a) hits");
}

#[test]
fn mono_shape_miss_in_compiled_code_deopts() {
    // Warm `read` on one shape until it compiles, then feed it a
    // different shape: the mono IC misses inside compiled code and
    // the function deoptimises (the restore-side hazard).
    let src = "
        fn read(m) { return m.k; }
        fn main(x) {
            let a = { k: 1 };
            let t = 0;
            for (let i = 0; i < 50; i = i + 1) { t = t + read(a); }
            let b = { k: 10, extra: 0 };
            return t + read(b);
        }";
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::with_config(
        program,
        JitConfig::default().with_policy(Some(JitPolicy::HotSpot {
            call_threshold: 4,
            loop_threshold: 1_000_000,
        })),
    );
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(60)));
    assert!(
        vm.stats().deopts >= 1,
        "shape miss must deopt: {:?}",
        vm.stats()
    );
    assert!(!vm.is_jitted("read"), "deopt demotes to the interpreter");
    assert_eq!(
        vm.ic_summary().poly,
        1,
        "site is polymorphic after the miss"
    );
}

#[test]
fn code_cache_budget_evicts_lru_and_stays_within_budget() {
    // Two hot functions, a budget that fits only one compiled body:
    // compiling the second evicts the first (LRU), and occupancy
    // never exceeds the budget.
    let src = "
        fn f(n) { return n + 1; }
        fn g(n) { return n + 2; }
        fn main(x) {
            let t = 0;
            for (let i = 0; i < 40; i = i + 1) { t = f(t); }
            for (let i = 0; i < 40; i = i + 1) { t = g(t); }
            return t;
        }";
    let program = Rc::new(compile(src).expect("compiles"));
    let f_ops = program.functions[program.function("f").expect("f")]
        .chunk
        .ops
        .len();
    let g_ops = program.functions[program.function("g").expect("g")]
        .chunk
        .ops
        .len();
    let per_op = 8u64;
    // Enough for the larger of the two, not for both.
    let budget = per_op * f_ops.max(g_ops) as u64 + per_op;
    let mut vm = Vm::with_config(
        program,
        JitConfig::default()
            .with_policy(Some(JitPolicy::HotSpot {
                call_threshold: 4,
                loop_threshold: 1_000_000,
            }))
            .with_code_cache_capacity_bytes(budget)
            .with_code_bytes_per_op(per_op),
    );
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(120)));
    let stats = vm.stats();
    assert!(stats.code_evictions >= 1, "g must evict f: {stats:?}");
    assert!(vm.code_cache_used_bytes() <= budget);
    assert!(!vm.is_jitted("f"), "f was evicted and demoted");
    assert!(vm.is_jitted("g"), "g holds the cache at the end");
}

#[test]
fn function_larger_than_budget_never_compiles() {
    let src =
        "fn main(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }";
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::with_config(
        program,
        JitConfig::default()
            .with_policy(Some(JitPolicy::default()))
            .with_code_cache_capacity_bytes(4),
    );
    vm.start("main", vec![Value::Int(10_000)]).expect("starts");
    vm.run(&mut TestHost::default()).expect("runs");
    let stats = vm.stats();
    assert_eq!(stats.compiles, 0, "{stats:?}");
    assert_eq!(stats.jit_ops, 0);
    assert_eq!(vm.code_cache_used_bytes(), 0);
}

#[test]
fn eviction_keeps_tier_accounting_consistent() {
    // The eviction bugfix invariant: total retired ops are identical
    // whether functions thrash in and out of the code cache or the
    // JIT is off entirely — demoted functions retire their ops in
    // the interpreter, never double-counted in `jit_ops`.
    let src = "
        fn f(n) { return n + 1; }
        fn g(n) { return n + 2; }
        fn main(x) {
            let t = 0;
            for (let i = 0; i < 30; i = i + 1) { t = f(t); t = g(t); }
            return t;
        }";
    let program = Rc::new(compile(src).expect("compiles"));
    let hot = JitPolicy::HotSpot {
        call_threshold: 2,
        loop_threshold: 1_000_000,
    };
    let run = |jit: JitConfig| {
        let mut vm = Vm::with_config(Rc::new(compile(src).expect("compiles")), jit);
        vm.start("main", vec![Value::Int(0)]).expect("starts");
        let Outcome::Done(v) = vm.run(&mut TestHost::default()).expect("runs") else {
            panic!("expected done")
        };
        (v, vm.stats())
    };
    let _ = program;
    let (v_off, s_off) = run(JitConfig::default().with_policy(Some(JitPolicy::Off)));
    let (v_thrash, s_thrash) = run(JitConfig::default()
        .with_policy(Some(hot))
        // Budget fits one tiny function at a time → constant
        // evictions as f and g alternate.
        .with_code_cache_capacity_bytes(80)
        .with_code_bytes_per_op(8));
    assert!(v_off.eq_value(&v_thrash));
    assert!(s_thrash.code_evictions > 0, "{s_thrash:?}");
    assert_eq!(
        s_off.total_ops(),
        s_thrash.total_ops(),
        "eviction must not double-count retired ops: {s_off:?} vs {s_thrash:?}"
    );
    assert_eq!(s_thrash.jit_ops + s_thrash.interp_ops, s_thrash.total_ops());
    assert!(s_thrash.opt_ops <= s_thrash.jit_ops);
}

#[test]
fn snapshot_carries_ic_state_and_code_cache() {
    let src = "
        fn read(m) { return m.k; }
        fn hot(n) { let t = 0; for (let i = 0; i < n; i = i + 1) { t = t + i; } return t; }
        fn main(x) {
            let a = { k: 7 };
            let t = 0;
            for (let i = 0; i < 50; i = i + 1) { t = t + read(a); }
            hot(1000);
            fireworks_snapshot();
            for (let i = 0; i < 50; i = i + 1) { t = t + read(a); }
            return t + hot(100);
        }";
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::new(program);
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    assert_eq!(
        vm.run(&mut TestHost::default()).expect("runs"),
        Outcome::Snapshot
    );
    let warm_ic = vm.ic_summary();
    assert!(warm_ic.mono >= 1);
    assert!(vm.code_cache_used_bytes() > 0);
    let snap = vm.snapshot_state();
    assert_eq!(snap.code_cache_used_bytes(), vm.code_cache_used_bytes());

    let mut clone = Vm::from_snapshot(&snap);
    assert_eq!(
        clone.ic_summary(),
        warm_ic,
        "IC state survives the snapshot"
    );
    assert_eq!(clone.code_cache_used_bytes(), vm.code_cache_used_bytes());
    let Outcome::Done(v) = clone.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(700 + 4950)));
    let stats = clone.stats();
    // The warmed mono IC keeps hitting after restore: no misses and
    // no deopts — the post-JIT snapshot benefit. (Tier *promotions*
    // may still happen; what must not recur is warmup-from-cold.)
    assert_eq!(stats.ic_misses, 0, "{stats:?}");
    assert!(stats.ic_hits >= 50);
    assert_eq!(stats.deopts, 0);
}

#[test]
fn restored_clone_deopts_when_traffic_changes_shape() {
    // Snapshot warmed on shape A; the clone serves shape B — it
    // must deopt after restore and still produce correct results.
    let src = "
        fn read(m) { return m.k; }
        let req = null;
        fn main(x) {
            let a = { k: 1 };
            let t = 0;
            for (let i = 0; i < 50; i = i + 1) { t = t + read(a); }
            fireworks_snapshot();
            return read(req);
        }";
    let program = Rc::new(compile(src).expect("compiles"));
    let mut vm = Vm::with_policy(
        program.clone(),
        JitPolicy::HotSpot {
            call_threshold: 4,
            loop_threshold: 1_000_000,
        },
    );
    vm.start(crate::compiler::TOPLEVEL, vec![]).expect("starts");
    vm.run(&mut TestHost::default()).expect("runs");
    vm.start("main", vec![Value::Int(0)]).expect("starts");
    assert_eq!(
        vm.run(&mut TestHost::default()).expect("runs"),
        Outcome::Snapshot
    );
    assert!(vm.is_jitted("read"));
    let snap = vm.snapshot_state();

    let mut clone = Vm::from_snapshot(&snap);
    // Inject a different-shaped request into the clone's global.
    let g = clone
        .program
        .global_names
        .iter()
        .position(|g| g == "req")
        .expect("global exists");
    clone.globals[g] = TaggedValue::from_value(Value::map([
        ("k".to_string(), Value::Int(99)),
        ("trace".to_string(), Value::Null),
    ]));
    let Outcome::Done(v) = clone.run(&mut TestHost::default()).expect("runs") else {
        panic!("expected done")
    };
    assert!(v.eq_value(&Value::Int(99)));
    let stats = clone.stats();
    assert!(
        stats.deopts >= 1,
        "restore-side shape change deopts: {stats:?}"
    );
    assert!(stats.ic_misses >= 1);
}

#[test]
fn heap_bytes_reflects_live_values() {
    let program = Rc::new(
        compile("let big = null; fn main(n) { big = []; for (let i = 0; i < n; i = i + 1) { push(big, \"xxxxxxxxxx\"); } return len(big); }")
            .expect("ok"),
    );
    let mut vm = Vm::new(program);
    vm.start(crate::compiler::TOPLEVEL, vec![]).expect("starts");
    vm.run(&mut TestHost::default()).expect("runs");
    let before = vm.heap_bytes();
    vm.start("main", vec![Value::Int(1000)]).expect("starts");
    vm.run(&mut TestHost::default()).expect("runs");
    assert!(vm.heap_bytes() > before + 10_000);
}

// ---- pinned on the parent commit -------------------------------------------
//
// The values below were recorded on the commit before property maps carried
// their shape and the dispatch loop kept its frame in locals; a faster VM
// must retire, count and cache exactly what that one did.

/// The benchmark's property-access guest: a two-shape polymorphic site pair
/// (`step`) and a megamorphic one (`probe`).
const PROPS_GUEST: &str = include_str!("../../../../benchmark/guests/props.flame");

/// Shape churn: a store site warmed on one shape that then adds a key, a key
/// added through an alias, `remove()`, an absent key, and a site that goes
/// megamorphic past a poly limit of 3.
const SHAPE_CHURN: &str = r#"
    fn get_a(o) { return o.a; }
    fn set_b(o, v) { o.b = v; return v; }
    fn read_k(o) { return o.k; }
    fn main(n) {
        let m = { a: 1, b: 2 };
        let alias = m;
        let t = 0;
        for (let i = 0; i < n; i = i + 1) { t = t + set_b(alias, i) + get_a(m); }
        let fresh = { a: 5 };
        t = t + set_b(fresh, 3) + fresh.b;
        alias.c = 9;
        for (let i = 0; i < n; i = i + 1) { t = t + get_a(m) + set_b(alias, i) + m.c; }
        remove(m, "b");
        for (let i = 0; i < n; i = i + 1) { t = t + get_a(alias) + len(keys(m)); }
        let zoo = [{ k: 1 }, { k: 2, x: 0 }, { k: 3, y: 0 }, { k: 4, z: 0 }, { k: 5, w: 0 }];
        for (let i = 0; i < n; i = i + 1) { t = t + read_k(zoo[i % 5]); }
        if (get_a(zoo[0]) == null) { t = t + 1000; }
        print(m, alias, fresh);
        return t;
    }"#;

fn run_pinned(
    src: &str,
    args: Vec<Value>,
    jit: JitConfig,
) -> (Value, Vec<String>, ExecStats, IcSummary) {
    let mut vm = Vm::with_config(Rc::new(compile(src).expect("compiles")), jit);
    vm.start("main", args).expect("starts");
    let mut host = TestHost::default();
    let Outcome::Done(v) = vm.run(&mut host).expect("runs") else {
        panic!("expected done")
    };
    (v, host.printed, vm.stats(), vm.ic_summary())
}

#[test]
fn ic_sequence_is_pinned_on_the_props_guest() {
    let params = Value::map([
        ("n".to_string(), Value::Int(2_000)),
        ("k".to_string(), Value::Int(7)),
        ("every".to_string(), Value::Int(4)),
    ]);
    let jit = JitConfig::default().with_policy(Some(JitPolicy::default()));
    let (v, _, stats, ic) = run_pinned(PROPS_GUEST, vec![params], jit);
    assert_eq!(v, Value::Int(658_456));
    assert_eq!(
        ic,
        IcSummary {
            sites: 9,
            mono: 3,
            poly: 5,
            mega: 1,
            hits: 9_990,
            misses: 513,
        }
    );
    assert_eq!(
        stats,
        ExecStats {
            interp_ops: 1_961,
            jit_ops: 84_620,
            opt_ops: 38_924,
            compiles: 6,
            compile_ops: 480,
            deopts: 0,
            calls: 2_502,
            host_calls: 0,
            builtin_calls: 0,
            ic_hits: 9_990,
            ic_misses: 513,
            code_evictions: 0,
        }
    );
}

#[test]
fn ic_sequence_is_pinned_under_shape_churn() {
    let jit = JitConfig::default()
        .with_policy(Some(JitPolicy::HotSpot {
            call_threshold: 4,
            loop_threshold: 16,
        }))
        .with_ic_poly_limit(3);
    let (v, printed, stats, ic) = run_pinned(SHAPE_CHURN, vec![Value::Int(40)], jit);
    assert_eq!(v, Value::Int(3_246));
    assert_eq!(printed, ["{a: 1, c: 9} {a: 1, c: 9} {a: 5, b: 3}"]);
    assert_eq!(
        ic,
        IcSummary {
            sites: 6,
            mono: 3,
            poly: 1,
            mega: 2,
            hits: 234,
            misses: 50,
        }
    );
    assert_eq!(
        stats,
        ExecStats {
            interp_ops: 336,
            jit_ops: 3_649,
            opt_ops: 66,
            compiles: 7,
            compile_ops: 202,
            deopts: 2,
            calls: 242,
            host_calls: 0,
            builtin_calls: 82,
            ic_hits: 234,
            ic_misses: 50,
            code_evictions: 0,
        }
    );
}

/// A loop that calls a small function: under `FUEL_HOT` the callee compiles
/// at its third call and `main` by on-stack replacement at its fifth
/// back-edge.
const FUEL_SRC: &str = "
    fn inc(x) { return x + 1; }
    fn main(n) {
        let t = 0;
        for (let i = 0; i < n; i = i + 1) { t = inc(t); }
        return t;
    }";

const FUEL_HOT: JitPolicy = JitPolicy::HotSpot {
    call_threshold: 3,
    loop_threshold: 5,
};

/// A run of `main(40)` on a fuel budget.
struct FuelRun {
    out: Result<Outcome, LangError>,
    /// `[interp_ops, jit_ops, opt_ops]`.
    split: [u64; 3],
    left: Option<u64>,
    /// The function, op index and op the top frame points at: for a
    /// timeout, the op that could not be paid for.
    at: Option<(String, usize, Op)>,
}

fn run_on_fuel(src: &str, policy: JitPolicy, fuel: u64) -> FuelRun {
    let mut vm = Vm::with_policy(Rc::new(compile(src).expect("compiles")), policy);
    vm.set_fuel(Some(fuel));
    vm.start("main", vec![Value::Int(40)]).expect("starts");
    let out = vm.run(&mut TestHost::default());
    let at = vm.frames.last().map(|frame| {
        let chunk = vm.chunk(frame.func);
        (chunk.name.clone(), frame.ip, chunk.ops[frame.ip])
    });
    let s = vm.stats();
    FuelRun {
        out,
        split: [s.interp_ops, s.jit_ops, s.opt_ops],
        left: vm.fuel(),
        at,
    }
}

#[test]
fn fuel_runs_out_on_the_same_op_with_the_same_tier_split() {
    let annotated = FUEL_SRC.replace("fn inc", "@jit fn inc");
    let annotated = annotated.as_str();
    // (source, policy, fuel, Timeout ops, tier split, stopped at)
    let cases = [
        // On the `Call` whose dispatch compiles `inc`.
        (FUEL_SRC, FUEL_HOT, 41, 42, [42, 0, 0], ("main", 9)),
        // On the back-edge that would tier `main` up by OSR: it never runs.
        (FUEL_SRC, FUEL_HOT, 83, 84, [72, 12, 0], ("main", 15)),
        // One more unit: the back-edge compiles `main`, and the op that runs
        // out is the first one fetched from compiled code.
        (FUEL_SRC, FUEL_HOT, 84, 85, [72, 13, 0], ("main", 4)),
        // On a `Call` from compiled code to compiled code.
        (FUEL_SRC, FUEL_HOT, 89, 90, [72, 18, 0], ("main", 9)),
        // Mid-stretch, on a compare inside the compiled loop.
        (FUEL_SRC, FUEL_HOT, 150, 151, [72, 79, 0], ("main", 6)),
        // Inside a callee forced to the top tier.
        (
            annotated,
            JitPolicy::AnnotatedEager,
            60,
            61,
            [50, 11, 11],
            ("inc", 2),
        ),
        (annotated, JitPolicy::Off, 60, 61, [61, 0, 0], ("inc", 2)),
    ];
    for (src, policy, fuel, ops, split, (func, ip)) in cases {
        let run = run_on_fuel(src, policy, fuel);
        let label = format!("{policy:?} on {fuel}");
        assert!(
            matches!(run.out, Err(LangError::Timeout { ops: o }) if o == ops),
            "{label}: {:?}",
            run.out
        );
        assert_eq!(run.split, split, "{label}");
        assert_eq!(run.left, Some(0), "{label}");
        let (got_func, got_ip, op) = run.at.expect("a timed-out run keeps its frames");
        assert_eq!((got_func.as_str(), got_ip), (func, ip), "{label}");
        match (fuel, op) {
            (41 | 89, Op::Call { .. }) | (83, Op::Jump(4)) => {}
            (41 | 83 | 89, other) => panic!("{label}: stopped on {other:?}"),
            _ => {}
        }
    }
    // Enough fuel: the run completes and leaves exactly what it did not use.
    let run = run_on_fuel(FUEL_SRC, FUEL_HOT, 10_000);
    assert_eq!(run.out.expect("completes"), Outcome::Done(Value::Int(40)));
    assert_eq!(run.split, [72, 578, 0]);
    assert_eq!(run.left, Some(9_350));
}

#[test]
fn string_index_reads_chars_and_reports_the_char_length() {
    // The string is an argument: the lexer reads source text byte by byte.
    let run = |i: i64| {
        let program = Rc::new(compile("fn main(s, i) { return s[0] + s[1] + s[i]; }").expect("ok"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![Value::str("héllo"), Value::Int(i)])
            .expect("starts");
        vm.run(&mut TestHost::default())
    };
    assert_eq!(run(4).expect("in bounds"), Outcome::Done(Value::str("héo")));
    for (i, text) in [
        (5, "runtime error: string index 5 out of bounds (len 5)"),
        (-1, "runtime error: string index -1 out of bounds (len 5)"),
    ] {
        assert_eq!(run(i).expect_err("out of bounds").to_string(), text);
    }
}

#[test]
fn string_literals_decode_by_char() {
    let src = r#"fn main() { let s = "héllo\t✓"; return [len(s), s[1], s[6], s + "é"]; }"#;
    let program = Rc::new(compile(src).expect("ok"));
    let mut vm = Vm::new(program);
    vm.start("main", vec![]).expect("starts");
    let parts = [
        Value::Int(7),
        Value::str("é"),
        Value::str("✓"),
        Value::str("héllo\t✓é"),
    ];
    assert_eq!(
        vm.run(&mut TestHost::default()).expect("runs"),
        Outcome::Done(Value::array(parts.to_vec()))
    );
}

// ---- fused ops ---------------------------------------------------------------

/// Once `kernel` is compiled its loop holds every fused form: `i < n` and
/// its branch (`LocalsCompareJump`), `i = i + 1` (`LocalConstStore`),
/// `j * j` (`LocalsBinary`), `t % 7` (`LocalConstBinary`), `… < j` and its
/// branch (`CompareJump`), `… == j` and its branch (`EqJump`), `t = … + …`
/// (`BinaryStore`), `a[j]` (`LocalsIndex`), `…[j]` (`LocalIndex`) and `o.x`
/// (`LocalGetProp`). The second call's float bound fails the `i < n` guard
/// inside a fused op.
const FUSED_SRC: &str = "
    fn kernel(a, o, n) {
        let t = 0;
        for (let i = 0; i < n; i = i + 1) {
            let j = i % 2;
            if (t % 7 < j) { t = t + o.x; }
            if (t % 3 == j) { t = t + j * j; }
            t = t + a[j][i % 2] + a[j][j];
        }
        return t;
    }
    fn main(n) {
        let a = [[1, 2], [3, 4]];
        let o = { x: 5 };
        let t = kernel(a, o, n);
        fireworks_snapshot();
        return t + kernel(a, o, n + 0.5);
    }";

const FUSED_HOT: JitPolicy = JitPolicy::HotSpot {
    call_threshold: 2,
    loop_threshold: 4,
};

/// `kernel`'s chunk, its quickened code before the peephole pass and its
/// compiled code, from a VM suspended at its program's snapshot point.
fn kernel_code(vm: &Vm) -> (Rc<Chunk>, Vec<Op>, Vec<Op>) {
    let f = vm.program.function("kernel").expect("kernel exists");
    let chunk = vm.chunk(f).clone();
    let Tier::Compiled(_, code) = &vm.fn_states[f].tier else {
        panic!("kernel is compiled by its back-edges");
    };
    let quick = super::jit::quicken(&chunk, &vm.fn_states[f].feedback);
    (chunk, quick, code.to_vec())
}

fn suspended(src: &str, policy: JitPolicy, n: i64) -> Vm {
    let mut vm = Vm::with_policy(Rc::new(compile(src).expect("compiles")), policy);
    vm.start("main", vec![Value::Int(n)]).expect("starts");
    assert_eq!(
        vm.run(&mut TestHost::default()).expect("runs"),
        Outcome::Snapshot
    );
    vm
}

/// Jump targets of a chunk.
fn landings(ops: &[Op]) -> Vec<usize> {
    let target = |op: &Op| match *op {
        Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t) => {
            Some(t as usize)
        }
        _ => None,
    };
    ops.iter().filter_map(target).collect()
}

#[test]
fn fused_code_keeps_the_chunk_length_and_its_parts_in_place() {
    let vm = suspended(FUSED_SRC, FUSED_HOT, 40);
    let (chunk, quick, code) = kernel_code(&vm);
    assert_eq!(code.len(), chunk.ops.len());
    assert_eq!(super::jit::fuse(quick.clone()), code);
    let mut forms = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let parts = code[i].parts();
        if parts == 1 {
            assert_eq!(code[i], quick[i], "at {i}");
        } else {
            // The fused op stands for the quickened run it overwrote, and
            // every other op of the run is the plain quickened op.
            assert_eq!(super::jit::fused(&quick[i..]), Some(code[i]), "at {i}");
            assert_eq!(code[i + 1..i + parts], quick[i + 1..i + parts], "at {i}");
            assert!(code[i + 1..i + parts].iter().all(|op| op.parts() == 1));
            forms.push(std::mem::discriminant(&code[i]));
        }
        i += parts;
    }
    forms.sort_by_key(|form| format!("{form:?}"));
    forms.dedup();
    assert_eq!(
        forms.len(),
        10,
        "every fused form:\n{}",
        chunk.disassemble()
    );
}

#[test]
fn no_jump_lands_inside_a_fused_run() {
    // `&&` and `||` land their jumps on what follows the right operand:
    // here the store after a `+` and the branch after a `<`, which would
    // otherwise be the second parts of a `BinaryStore` and a `CompareJump`.
    // A `continue` lands on the first op of the loop's step, a run's head.
    let src = "
        fn kernel(a, o, n) {
            let t = 0;
            for (let i = 0; i < n; i = i + 1) {
                let j = (i > 2 && t) || i * 2 + t;
                if (i > 3 || (t + j) < n) { t = t + 1; }
                if (i % 5 == 0) { continue; }
                t = t + j;
            }
            return t;
        }
        fn main(n) {
            let t = kernel(0, 0, n);
            fireworks_snapshot();
            return t;
        }";
    let vm = suspended(src, FUSED_HOT, 40);
    let (chunk, quick, code) = kernel_code(&vm);
    let landings = landings(&quick);
    let (mut fused, mut kept_apart) = (0, 0);
    let mut i = 0;
    while i < code.len() {
        // Where the pass left a run unfused, a jump lands inside it.
        let run = super::jit::fused(&quick[i..]).map_or(1, |op| op.parts());
        let lands_inside = landings.iter().any(|at| (i + 1..i + run).contains(at));
        if code[i].parts() > 1 {
            assert!(!lands_inside, "a jump lands inside the run at {i}");
            fused += 1;
        } else if run > 1 {
            assert!(lands_inside, "the run at {i} was not fused");
            kept_apart += 1;
        }
        i += code[i].parts();
    }
    assert_eq!(
        (fused > 0, kept_apart),
        (true, 2),
        "{}",
        chunk.disassemble()
    );
}

/// A run of `src`'s `main(n)` under `policy`, across a snapshot round trip
/// when `round_trip`: result, ops, inline caches, fuel left.
fn fused_run(
    src: &str,
    policy: JitPolicy,
    round_trip: bool,
) -> (Value, u64, IcSummary, Option<u64>) {
    const FUEL: u64 = 1_000_000;
    let mut vm = Vm::with_policy(Rc::new(compile(src).expect("compiles")), policy);
    vm.set_fuel(Some(FUEL));
    vm.start("main", vec![Value::Int(40)]).expect("starts");
    let mut ops = 0;
    let value = loop {
        match vm.run(&mut TestHost::default()).expect("runs") {
            Outcome::Done(v) => break v,
            Outcome::Snapshot if round_trip => {
                ops += vm.stats().total_ops();
                let fuel = vm.fuel();
                vm = Vm::from_snapshot(&vm.snapshot_state());
                vm.set_fuel(fuel);
            }
            Outcome::Snapshot => {}
        }
    };
    ops += vm.stats().total_ops();
    (value, ops, vm.ic_summary(), vm.fuel())
}

#[test]
fn fused_code_retires_and_caches_what_the_interpreter_does() {
    let reference = fused_run(FUSED_SRC, JitPolicy::Off, false);
    assert_eq!(reference.3, Some(1_000_000 - reference.1));
    let annotated = FUSED_SRC.replace("fn kernel", "@jit fn kernel");
    for (src, policy) in [
        (FUSED_SRC, FUSED_HOT),
        (annotated.as_str(), JitPolicy::AnnotatedEager),
    ] {
        for round_trip in [false, true] {
            let run = fused_run(src, policy, round_trip);
            assert_eq!(run, reference, "{policy:?}, round trip {round_trip}");
        }
    }
    // The compiled runs did run fused code, and the float bound deopted it.
    let mut vm = suspended(FUSED_SRC, FUSED_HOT, 40);
    assert!(kernel_code(&vm).2.iter().any(|op| op.parts() > 1));
    vm.run(&mut TestHost::default()).expect("runs");
    assert!(vm.stats().deopts >= 1, "{:?}", vm.stats());
}

/// The constant pool's boxed words own `Rc` counts that every VM built from
/// one program shares; this test also runs under Miri in CI.
#[test]
fn pool_words_outlive_every_clone_and_give_back_their_counts() {
    let src = r#"fn main(x) {
        let s = "pool";
        let big = 140737488355328;
        fireworks_snapshot();
        return s + str(big + x) + "!";
    }"#;
    let program = Rc::new(compile(src).expect("compiles"));
    let chunk = program.functions[program.function("main").expect("main")]
        .chunk
        .clone();
    let str_counts = || -> usize {
        let count = |c: &TaggedValue| match c.to_value() {
            Value::Str(s) => Rc::strong_count(&s),
            _ => 0,
        };
        chunk.consts.iter().map(count).sum()
    };
    let before = str_counts();
    let mut vm = Vm::new(program.clone());
    vm.start("main", vec![Value::Int(1)]).expect("starts");
    assert_eq!(
        vm.run(&mut TestHost::default()).expect("runs"),
        Outcome::Snapshot
    );
    let snap = vm.snapshot_state();
    drop(vm);
    let clones: Vec<Vm> = (0..3).map(|_| Vm::from_snapshot(&snap)).collect();
    drop(snap);
    for mut clone in clones {
        let out = clone.run(&mut TestHost::default()).expect("runs");
        assert_eq!(out, Outcome::Done(Value::str("pool140737488355329!")));
    }
    drop(program);
    assert_eq!(str_counts(), before);
    let big = chunk.consts.iter().filter_map(TaggedValue::as_int).max();
    assert_eq!(big, Some(1 << 47));
}
