//! Differential property tests: the JIT tiers must be observationally
//! equivalent to the interpreter on randomly generated programs, before
//! and after a [`Vm::snapshot_state`] → [`Vm::from_snapshot`] round trip.

use std::rc::Rc;

use fireworks_lang::{
    compile, Host, IcSummary, JitPolicy, LangError, NoopHost, Outcome, Value, Vm,
};
use proptest::prelude::*;

const HOT: JitPolicy = JitPolicy::HotSpot {
    call_threshold: 2,
    loop_threshold: 4,
};

/// Everything a run of `main(n)` lets an observer see.
#[derive(Debug, PartialEq)]
struct Observed {
    /// The returned value as text (NaN equals NaN, `-0.0` differs from
    /// `0.0`), or the error text.
    result: Result<String, String>,
    printed: Vec<String>,
    total_ops: u64,
    /// Inline caches step the same in every tier; their counts survive a
    /// snapshot.
    ic: IcSummary,
}

struct Printed(Vec<String>);

impl Host for Printed {
    fn print(&mut self, text: &str) {
        self.0.push(text.to_string());
    }

    fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, LangError> {
        NoopHost.host_call(name, args)
    }
}

/// Runs `main(n)` to completion. With `round_trip`, every snapshot point
/// replaces the VM by a clone restored from its snapshot. Returns what was
/// observed and the deopts taken; fuel is the op count's second witness.
fn observe(src: &str, n: i64, policy: JitPolicy, round_trip: bool) -> (Observed, u64) {
    const FUEL: u64 = 10_000_000;
    let program = Rc::new(compile(src).unwrap_or_else(|e| panic!("{e}\n{src}")));
    let mut vm = Vm::with_policy(program, policy);
    vm.set_fuel(Some(FUEL));
    vm.start("main", vec![Value::Int(n)])
        .expect("main(n) exists");
    let mut host = Printed(Vec::new());
    let mut before_restore = fireworks_lang::ExecStats::default();
    let result = loop {
        match vm.run(&mut host) {
            Ok(Outcome::Done(v)) => break Ok(v.to_string()),
            Ok(Outcome::Snapshot) if round_trip => {
                before_restore = before_restore.merge(&vm.stats());
                let fuel = vm.fuel();
                vm = Vm::from_snapshot(&vm.snapshot_state());
                vm.set_fuel(fuel);
            }
            Ok(Outcome::Snapshot) => {}
            Err(e) => break Err(e.to_string()),
        }
    };
    let stats = before_restore.merge(&vm.stats());
    assert_eq!(stats.jit_ops + stats.interp_ops, stats.total_ops());
    assert_eq!(
        FUEL - vm.fuel().expect("fuel was set"),
        stats.total_ops(),
        "every retired op burns one unit of fuel"
    );
    let observed = Observed {
        result,
        printed: host.0,
        total_ops: stats.total_ops(),
        ic: vm.ic_summary(),
    };
    (observed, stats.deopts)
}

/// Asserts that every tier, straight through and across a snapshot round
/// trip, shows what the interpreter shows. Returns the deopts of the
/// low-threshold hot-spot run across the round trip.
fn assert_tiers_agree(src: &str, n: i64) -> u64 {
    let (reference, _) = observe(src, n, JitPolicy::Off, false);
    let mut hot_deopts = 0;
    for policy in [JitPolicy::Off, HOT, JitPolicy::AnnotatedEager] {
        for round_trip in [false, true] {
            let (seen, deopts) = observe(src, n, policy, round_trip);
            assert_eq!(
                seen, reference,
                "{policy:?}, round trip {round_trip}, diverges from the interpreter on\n{src}"
            );
            if policy == HOT && round_trip {
                hot_deopts = deopts;
            }
        }
    }
    hot_deopts
}

/// A site compiled on float operands must not keep computing in floats
/// when two ints arrive: `7 / 2` is `3` in every tier.
#[test]
fn float_warmed_site_deopts_on_ints() {
    let src = "
        @jit fn div(a, b) { return a / b; }
        @jit fn add(a, b) { return a + b; }
        fn main(n) {
            let t = 0.0;
            for (let i = 0; i < n; i = i + 1) { t = add(t, div(i + 0.5, 2.0)); }
            fireworks_snapshot();
            return str(add(1, 2)) + \"|\" + str(div(7, 2)) + \"|\" + str(t);
        }";
    let (seen, _) = observe(src, 50, JitPolicy::Off, false);
    assert_eq!(seen.result, Ok("3|3|625.0".to_string()));
    assert!(assert_tiers_agree(src, 50) >= 1, "both guards must fail");
}

/// `int < int` is exact in every tier, also where `f64` cannot tell the
/// operands apart.
#[test]
fn int_ordering_is_exact_beyond_2_53() {
    let src = "
        @jit fn gt(a, b) { return a > b; }
        fn main(n) {
            let t = 0;
            for (let i = 0; i < n; i = i + 1) { if (gt(i, 3)) { t = t + 1; } }
            fireworks_snapshot();
            return gt(9007199254740993, 9007199254740992);
        }";
    let (seen, _) = observe(src, 50, JitPolicy::Off, false);
    assert_eq!(seen.result, Ok("true".to_string()));
    assert_tiers_agree(src, 50);
}

/// Six shapes at a load site and a store site, a key added through an
/// alias (a third site) and one removed: the two sites go megamorphic and
/// compiled code deoptimises on the first shape change.
#[test]
fn property_sites_go_megamorphic_and_deopt_alike_in_every_tier() {
    let zoo = [(1, 0), (3, 1), (5, 2), (9, 3), (15, 4), (7, 5)];
    let src = property_program(&zoo, &[(false, 0, 0), (true, 1, 1)], (2, 3), false, false);
    let (seen, _) = observe(&src, 10, JitPolicy::Off, false);
    assert!(seen.result.is_ok(), "{seen:?}\n{src}");
    assert_eq!((seen.ic.sites, seen.ic.mega), (3, 2), "{:?}", seen.ic);
    assert!(
        assert_tiers_agree(&src, 10) >= 1,
        "a compiled site must deopt"
    );
}

// ---- the generated suite ---------------------------------------------------

const INTS: [&str; 8] = [
    "1",
    "7",
    "(-3)",
    "140737488355328",  // 2^47: the first int the tagged word boxes
    "9007199254740993", // 2^53 + 1: not an f64
    "9007199254740992",
    "9223372036854775807", // arithmetic on it wraps
    "0",                   // last: a warm-up divisor is drawn from the others
];
const FLOATS: [&str; 8] = [
    "1.5",
    "(-0.0)",
    "0.0",
    "2.0",
    "(0.0 / 0.0)",
    "(1.0 / 0.0)",
    "(-1.0 / 0.0)",
    "9007199254740992.0",
];
const STRS: [&str; 3] = ["\"\"", "\"a\"", "\"ab\""];
const ARRS: [&str; 3] = ["[]", "[1, 2, 3]", "[\"x\", 2.5, 9007199254740993]"];
const MAPS: [&str; 3] = ["{}", "{ a: 1 }", "{ a: 1.5, b: \"y\" }"];
const MISC: [&str; 3] = ["null", "true", "false"];

fn pick(pool: &[&'static str], i: usize) -> &'static str {
    pool[i % pool.len()]
}

/// Any operand at all: what a site sees after the phase switch.
fn anything(i: usize) -> &'static str {
    let pools: [&[&'static str]; 6] = [&INTS, &FLOATS, &STRS, &ARRS, &MAPS, &MISC];
    pick(pools[i % pools.len()], i / pools.len())
}

const BINARY: [&str; 11] = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="];
const LOAD: usize = BINARY.len();
const STORE: usize = LOAD + 1;

/// An operand draw: a class selector and two pool indices.
type Draw = (usize, usize, usize);

fn draw() -> impl Strategy<Value = Draw> {
    (0usize..48, 0usize..48, 0usize..48)
}

/// Arguments a site of this `kind` runs on without an error, of the
/// operand class the draw selects.
fn valid_args(kind: usize, (class, i, j): Draw) -> String {
    match kind {
        LOAD => match class % 3 {
            0 => format!("{}, {}", ARRS[1], pick(&["0", "1", "2"], i)),
            1 => format!("{}, {}", MAPS[2], pick(&["\"a\"", "\"b\"", "\"zz\""], i)),
            _ => format!("{}, {}", STRS[2], pick(&["0", "1"], i)),
        },
        STORE => match class % 2 {
            0 => format!(
                "{}, {}, {}",
                ARRS[1],
                pick(&["0", "1", "2"], i),
                anything(j)
            ),
            _ => format!(
                "{}, {}, {}",
                MAPS[1],
                pick(&["\"a\"", "\"new\""], i),
                anything(j)
            ),
        },
        _ => {
            // Strings work for `+`, the orderings and the equalities only.
            let arithmetic = matches!(BINARY[kind], "-" | "*" | "/" | "%");
            match class % if arithmetic { 2 } else { 3 } {
                // No zero divisor: it is the one numeric pair that fails.
                0 => format!("{}, {}", pick(&INTS, i), pick(&INTS[..7], j)),
                1 if j % 2 == 0 => format!("{}, {}", pick(&FLOATS, i), pick(&FLOATS, j / 2)),
                1 => format!("{}, {}", pick(&FLOATS, i), pick(&INTS[..7], j / 2)),
                _ => format!("{}, {}", pick(&STRS, i), pick(&STRS, j)),
            }
        }
    }
}

/// One guardable site: a function of its own (so it tiers on its own),
/// a call that warms it, and the call it meets after the phase switch —
/// on valid operands of a class of their own, or (`wild`) on operands of
/// any kind at all, which may fail.
fn site(index: usize, kind: usize, warm: Draw, switch: Draw, wild: bool) -> [String; 3] {
    let name = format!("s{index}");
    let function = match kind {
        LOAD => format!("@jit fn {name}(c, k) {{ return c[k]; }}"),
        STORE => format!("@jit fn {name}(c, k, v) {{ c[k] = v; return c; }}"),
        _ => format!("@jit fn {name}(a, b) {{ return a {} b; }}", BINARY[kind]),
    };
    let switched = if wild {
        let any = [switch.0, switch.1, switch.2].map(anything);
        any[..if kind == STORE { 3 } else { 2 }].join(", ")
    } else {
        valid_args(kind, switch)
    };
    [
        function,
        format!("{name}({})", valid_args(kind, warm)),
        format!("{name}({switched})"),
    ]
}

/// Warm every site, suspend, run every site three times on operands of a
/// class it may not have been compiled for, then go back to the warm ones
/// (which re-compiles with the poisoned sites left generic).
fn phased_program(sites: &[[String; 3]]) -> String {
    let column = |c: usize, wrap: &str| -> String {
        let call = |s: &[String; 3]| wrap.replace("{}", &s[c]);
        sites.iter().map(call).collect::<Vec<_>>().join(" ")
    };
    let warm = column(1, "last = {};");
    format!(
        "{}
         fn main(n) {{
             let last = null;
             for (let i = 0; i < n; i = i + 1) {{ {warm} }}
             print(last);
             fireworks_snapshot();
             for (let r = 0; r < 3; r = r + 1) {{ {} }}
             for (let i = 0; i < n; i = i + 1) {{ {warm} }}
             return last;
         }}",
        column(0, "{}"),
        column(2, "print({});"),
    )
}

// ---- property sites under shape churn ---------------------------------------

const KEYS: [&str; 4] = ["a", "b", "c", "zz"];

/// A map literal holding the keys whose bits are set in `mask`, valued from
/// the operand pools.
fn map_literal(mask: usize, salt: usize) -> String {
    let entries: Vec<String> = (0..KEYS.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| format!("{}: {}", KEYS[i], anything(salt + 7 * i)))
        .collect();
    format!("{{ {} }}", entries.join(", "))
}

/// Property loads and stores (`o.k`, `o.k = v`), each in a function of its
/// own, warmed on one map of a zoo of shapes; after the snapshot point every
/// site meets every map of the zoo while keys are added through an alias and
/// `remove()`d — more shapes than a site tracks, so sites go polymorphic and
/// megamorphic, and compiled ones deoptimise. With `wild`, the zoo ends in a
/// non-map, which fails. With `indexed`, every `o.k` is spelt `o["k"]`,
/// which no inline cache serves.
fn property_program(
    zoo: &[(usize, usize)],
    sites: &[(bool, usize, usize)],
    churn: (usize, usize),
    wild: bool,
    indexed: bool,
) -> String {
    let field = |key: &str| {
        if indexed {
            format!("o[\"{key}\"]")
        } else {
            format!("o.{key}")
        }
    };
    let mut functions = String::new();
    let mut warm = String::new();
    let mut switched = String::new();
    for (i, &(store, key, home)) in sites.iter().enumerate() {
        let field = field(KEYS[key]);
        let home = home % zoo.len();
        if store {
            functions += &format!("@jit fn q{i}(o, v) {{ {field} = v; return o; }}\n");
            warm += &format!("last = q{i}(zoo[{home}], i); ");
            switched += &format!("print(q{i}(o, r)); ");
        } else {
            functions += &format!("@jit fn q{i}(o) {{ return {field}; }}\n");
            warm += &format!("last = q{i}(zoo[{home}]); ");
            switched += &format!("print(q{i}(o)); ");
        }
    }
    let mut maps: Vec<String> = zoo
        .iter()
        .map(|&(mask, salt)| map_literal(mask, salt))
        .collect();
    if wild {
        maps.push("7".to_string());
    }
    let (add, removed) = (field(KEYS[churn.0]), KEYS[churn.1]);
    format!(
        "{functions}
         fn main(n) {{
             let zoo = [{}];
             let last = null;
             for (let i = 0; i < n; i = i + 1) {{ {warm} }}
             print(last);
             fireworks_snapshot();
             for (let r = 0; r < 3 * len(zoo); r = r + 1) {{
                 let o = zoo[r % len(zoo)];
                 {switched}
                 if (r % 3 == 1) {{ {add} = r; }}
                 if (r % 4 == 2) {{ print(remove(o, \"{removed}\")); }}
             }}
             for (let i = 0; i < n; i = i + 1) {{ {warm} }}
             print(zoo);
             return last;
         }}",
        maps.join(", ")
    )
}

/// Generates a small arithmetic expression over locals `a`, `b`, `c`.
fn expr_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0i64..100).prop_map(|v| v.to_string()),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(str::to_string),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        (
            inner.clone(),
            prop_oneof![Just("+"), Just("-"), Just("*")].prop_map(str::to_string),
            inner,
        )
            .prop_map(|(l, op, r)| format!("({l} {op} {r})"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every binary operator, index load and index store, over every kind
    /// of operand, with a phase switch between the warm-up and the rest:
    /// all tiers agree on result or error, printed output and op count.
    #[test]
    fn tiers_agree_across_a_phase_switch(
        picks in proptest::collection::vec(
            (0usize..13, draw(), draw(), 0usize..4),
            1..5,
        ),
        n in 6i64..14,
    ) {
        let sites: Vec<_> = picks
            .iter()
            .enumerate()
            .map(|(index, &(kind, warm, switch, wild))| site(index, kind, warm, switch, wild == 0))
            .collect();
        assert_tiers_agree(&phased_program(&sites), n);
    }

    /// Property loads and stores over a zoo of map shapes that churns
    /// (keys added through an alias, removed, more shapes than a site
    /// tracks): all tiers agree on result or error, printed output, op
    /// count and inline-cache counts, straight through and across a
    /// snapshot round trip — and what they print is what the same program
    /// prints with every `o.k` spelt `o["k"]`, which bypasses the caches.
    #[test]
    fn tiers_agree_on_property_sites_under_shape_churn(
        zoo in proptest::collection::vec((0usize..16, 0usize..48), 1..7),
        sites in proptest::collection::vec((any::<bool>(), 0usize..4, 0usize..8), 1..5),
        churn in (0usize..4, 0usize..4),
        wild in 0usize..8,
        n in 6i64..14,
    ) {
        assert_tiers_agree(&property_program(&zoo, &sites, churn, wild == 0, false), n);
        let (cached, _) = observe(&property_program(&zoo, &sites, churn, wild == 0, false), n, JitPolicy::Off, false);
        let (indexed, _) = observe(&property_program(&zoo, &sites, churn, wild == 0, true), n, JitPolicy::Off, false);
        prop_assert_eq!((cached.result, cached.printed), (indexed.result, indexed.printed));
    }

    /// A hot loop over a random expression gives identical results with
    /// the JIT on (low thresholds) and off.
    #[test]
    fn jit_matches_interpreter(expr in expr_strategy(), n in 50i64..400, seed in 0i64..50) {
        let src = format!(
            "fn body(a, b, c) {{ return {expr}; }}
             fn main(n) {{
                 let t = 0;
                 for (let i = 0; i < n; i = i + 1) {{
                     t = t + body(i, i % 7, {seed});
                 }}
                 return t;
             }}"
        );
        let (jit, _) = observe(&src, n, HOT, false);
        let (interp, _) = observe(&src, n, JitPolicy::Off, false);
        prop_assert_eq!(jit, interp);
    }

    /// Snapshot/resume in the middle of a computation never changes the
    /// final result, for original and clone alike.
    #[test]
    fn snapshot_resume_is_transparent(expr in expr_strategy(), n in 10i64..120) {
        let src = format!(
            "fn body(a, b, c) {{ return {expr}; }}
             fn main(n) {{
                 let t = 0;
                 for (let i = 0; i < n; i = i + 1) {{ t = t + body(i, i, i); }}
                 fireworks_snapshot();
                 for (let i = 0; i < n; i = i + 1) {{ t = t + body(i, i, i); }}
                 return t;
             }}"
        );
        // Straight-through reference run (snapshot op is a no-op value-wise).
        let (reference, _) = observe(&src, n, JitPolicy::Off, false);
        let reference = reference.result.expect("reference runs");

        let program = Rc::new(compile(&src).expect("compiles"));
        let mut vm = Vm::with_policy(program, HOT);
        vm.start("main", vec![Value::Int(n)]).expect("starts");
        let out = vm.run(&mut NoopHost).expect("runs to snapshot");
        prop_assert_eq!(out, Outcome::Snapshot);
        let snap = vm.snapshot_state();

        let mut clone = Vm::from_snapshot(&snap);
        let Outcome::Done(from_clone) = clone.run(&mut NoopHost).expect("clone runs") else {
            panic!("clone must finish");
        };
        let Outcome::Done(from_original) = vm.run(&mut NoopHost).expect("original runs") else {
            panic!("original must finish");
        };
        prop_assert_eq!(from_clone.to_string(), reference.clone());
        prop_assert_eq!(from_original.to_string(), reference);
    }

    /// Deopt storms (argument types flipping between int and string per
    /// call) still produce correct results.
    #[test]
    fn deopt_preserves_semantics(n in 20i64..200) {
        let src = "
            fn add(a, b) { return a + b; }
            fn main(n) {
                let ints = 0;
                let strs = \"\";
                for (let i = 0; i < n; i = i + 1) {
                    if (i % 3 == 0) {
                        strs = add(strs, \"x\");
                    } else {
                        ints = add(ints, i);
                    }
                }
                return str(ints) + \":\" + str(len(strs));
            }";
        let (jit, _) = observe(src, n, HOT, false);
        let (interp, _) = observe(src, n, JitPolicy::Off, false);
        prop_assert_eq!(jit, interp);
    }
}
