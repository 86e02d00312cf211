//! Property tests for the NaN-boxed [`TaggedValue`] encoding: every
//! [`Value`] variant must round-trip bit-faithfully through the tagged
//! representation, including the encoding's own edge cases (NaN payloads
//! that collide with the box space, negative zero, the i48 inline-integer
//! boundaries) and heap aliasing.

use std::rc::Rc;

use fireworks_lang::{TaggedValue, Value};
use proptest::prelude::*;

/// Generates an arbitrary scalar `Value` (no heap aggregates). Floats are
/// drawn from a finite pool plus specials so equality is well-defined.
fn scalar_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Exercise both inline (i48) and boxed integer paths explicitly.
        ((-1i64 << 47)..(1i64 << 47)).prop_map(Value::Int),
        any::<i64>().prop_map(|b| Value::Float(f64::from_bits(b as u64))),
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Float(n as f64 / 128.0)),
        "[a-z]{0,12}".prop_map(Value::str),
    ]
}

/// Generates a `Value` of any variant, nesting arrays and maps two deep.
fn value_strategy() -> impl Strategy<Value = Value> {
    scalar_strategy().prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::array),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(Value::map),
        ]
    })
}

/// Structural equality that, unlike `eq_value`, treats NaN as equal to
/// NaN and distinguishes `-0.0` from `0.0` — i.e. bit-level faithfulness
/// for floats, structural elsewhere.
fn bit_faithful_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            // The encoding canonicalises NaN payloads (any NaN in, the
            // canonical quiet NaN out) — NaN-ness must survive, the
            // payload need not. Every non-NaN float is bit-exact.
            if x.is_nan() || y.is_nan() {
                x.is_nan() && y.is_nan()
            } else {
                x.to_bits() == y.to_bits()
            }
        }
        (Value::Array(x), Value::Array(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| bit_faithful_eq(a, b))
        }
        (Value::Map(x), Value::Map(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && bit_faithful_eq(va, vb))
        }
        _ => a.eq_value(b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any `Value` survives `from_value` → `to_value` unchanged.
    #[test]
    fn value_round_trips_through_tagged(v in value_strategy()) {
        let tagged = TaggedValue::from_value(v.clone());
        let back = tagged.to_value();
        prop_assert!(
            bit_faithful_eq(&v, &back),
            "round-trip changed the value: {v:?} -> {back:?}"
        );
    }

    /// `into_value` (the ownership-transferring path) agrees with
    /// `to_value` (the borrowing path).
    #[test]
    fn into_value_agrees_with_to_value(v in value_strategy()) {
        let borrowed = TaggedValue::from_value(v.clone()).to_value();
        let owned = TaggedValue::from_value(v).into_value();
        prop_assert!(bit_faithful_eq(&borrowed, &owned));
    }

    /// Every bit pattern interpreted as a float round-trips: in
    /// particular hostile NaN payloads that land inside the box-tag
    /// space must come back as NaN, never be misread as pointers.
    #[test]
    fn arbitrary_float_bits_round_trip(bits in any::<i64>()) {
        let f = f64::from_bits(bits as u64);
        let back = TaggedValue::float(f).to_value();
        match back {
            Value::Float(g) => {
                if f.is_nan() {
                    prop_assert!(g.is_nan());
                } else {
                    prop_assert_eq!(f.to_bits(), g.to_bits());
                }
            }
            other => prop_assert!(false, "float decoded as {other:?}"),
        }
    }

    /// Integers on both sides of the i48 inline window round-trip, and
    /// `as_int` reads them back whether inline or boxed.
    #[test]
    fn int_boundaries_round_trip(delta in 0i64..8, sign in any::<bool>()) {
        let boundary = 1i64 << 47;
        let candidates = [
            boundary - 1 - delta,
            boundary + delta,
            -boundary + delta,
            -boundary - 1 - delta,
            i64::MAX - delta,
            i64::MIN + delta,
            if sign { delta } else { -delta },
        ];
        for n in candidates {
            let tagged = TaggedValue::int(n);
            prop_assert_eq!(tagged.as_int(), Some(n), "as_int lost {}", n);
            match tagged.to_value() {
                Value::Int(m) => prop_assert_eq!(m, n),
                other => prop_assert!(false, "int decoded as {other:?}"),
            }
        }
    }
}

#[test]
fn negative_zero_round_trips_bit_exactly() {
    let back = TaggedValue::float(-0.0).to_value();
    let Value::Float(f) = back else {
        panic!("decoded as non-float")
    };
    assert_eq!(f.to_bits(), (-0.0f64).to_bits());
    assert!(f.is_sign_negative());
}

#[test]
fn heap_round_trip_preserves_aliasing() {
    // Tagging a heap value must not clone the heap cell: mutations made
    // through the round-tripped handle are visible through the original.
    let arr = Value::array(vec![Value::Int(1)]);
    let tagged = TaggedValue::from_value(arr.clone());
    let back = tagged.to_value();
    let (Value::Array(a), Value::Array(b)) = (&arr, &back) else {
        panic!("expected arrays")
    };
    assert!(Rc::ptr_eq(a, b), "round-trip must preserve identity");
    b.borrow_mut().push(Value::Int(2));
    assert!(arr.heap_estimate() > 0);
    assert!(a.borrow().len() == 2);
}

#[test]
fn cached_map_shape_invalidates_through_every_alias() {
    // The shape word is cached in the map, not in a handle to it: every
    // alias sees a change of the key set made through any other.
    let shape_of = |keys: &[&str]| {
        let Value::Map(m) = Value::map(keys.iter().map(|k| (k.to_string(), Value::Null))) else {
            unreachable!("a map")
        };
        let shape = m.borrow().shape();
        shape
    };
    let m = Value::map([("a".to_string(), Value::Int(1))]);
    let Value::Map(original) = &m else {
        panic!("expected map")
    };
    let one_key = original.borrow().shape();
    assert_eq!(one_key, shape_of(&["a"]));

    let tagged = TaggedValue::from_value(m.clone());
    let twin = tagged.clone();
    let (Value::Map(x), Value::Map(y)) = (tagged.into_value(), twin.to_value()) else {
        panic!("expected maps")
    };
    assert!(Rc::ptr_eq(&x, &y) && Rc::ptr_eq(&x, original));
    assert_eq!(Rc::strong_count(original), 4);

    x.borrow_mut().insert("b".to_string(), Value::Int(2));
    assert_eq!(y.borrow().shape(), shape_of(&["a", "b"]));
    // Overwriting a value keeps the key set, and the shape.
    y.borrow_mut().insert("b".to_string(), Value::Int(3));
    let through_word = twin.as_map().expect("a map word").borrow().shape();
    assert_eq!(through_word, shape_of(&["a", "b"]));
    y.borrow_mut().remove("a");
    assert_eq!(x.borrow().shape(), shape_of(&["b"]));
    assert_eq!(original.borrow().shape(), shape_of(&["b"]));
    assert_eq!(m.to_string(), "{b: 3}");

    drop((x, y, twin));
    assert_eq!(Rc::strong_count(original), 1);
}
