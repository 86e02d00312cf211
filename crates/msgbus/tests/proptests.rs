//! Property tests: the message bus behaves like a map of append-only
//! vectors.

use fireworks_msgbus::{BusError, MessageBus};
use fireworks_sim::cost::BusCosts;
use fireworks_sim::Clock;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Produce { topic: u8, value: i64 },
    Fetch { topic: u8, offset: u64 },
    Latest { topic: u8 },
    Delete { topic: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..4, any::<i64>()).prop_map(|(topic, value)| Op::Produce { topic, value }),
        2 => (0u8..4, 0u64..12).prop_map(|(topic, offset)| Op::Fetch { topic, offset }),
        2 => (0u8..4).prop_map(|topic| Op::Latest { topic }),
        1 => (0u8..4).prop_map(|topic| Op::Delete { topic }),
    ]
}

proptest! {
    /// The bus agrees with a reference model (a Vec per topic) on every
    /// operation outcome.
    #[test]
    fn bus_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut bus: MessageBus<i64> = MessageBus::new(Clock::new(), BusCosts::default());
        let mut model: std::collections::HashMap<String, Vec<i64>> = Default::default();

        for op in ops {
            match op {
                Op::Produce { topic, value } => {
                    let t = format!("t{topic}");
                    let offset = bus.produce(&t, value, 8);
                    model.entry(t.clone()).or_default().push(value);
                    prop_assert_eq!(offset as usize, model[&t].len() - 1);
                }
                Op::Fetch { topic, offset } => {
                    let t = format!("t{topic}");
                    let got = bus.fetch(&t, offset, 8);
                    match model.get(&t).and_then(|v| v.get(offset as usize)) {
                        Some(v) => prop_assert_eq!(got, Ok(*v)),
                        None => prop_assert!(got.is_err()),
                    }
                }
                Op::Latest { topic } => {
                    let t = format!("t{topic}");
                    let got = bus.consume_latest(&t, 8);
                    match model.get(&t).and_then(|v| v.last()) {
                        Some(v) => prop_assert_eq!(got, Ok(*v)),
                        None => prop_assert!(got.is_err()),
                    }
                }
                Op::Delete { topic } => {
                    let t = format!("t{topic}");
                    bus.delete_topic(&t);
                    model.remove(&t);
                }
            }
        }
        // Final lengths agree.
        for (t, v) in &model {
            prop_assert_eq!(bus.len(t), v.len() as u64);
        }
    }

    /// Per-instance parameter topics never interfere.
    #[test]
    fn per_instance_isolation(records in proptest::collection::vec((0u8..8, any::<i64>()), 1..60)) {
        let mut bus: MessageBus<i64> = MessageBus::new(Clock::new(), BusCosts::default());
        let mut last: std::collections::HashMap<u8, i64> = Default::default();
        for (instance, value) in &records {
            bus.produce(&format!("params-vm-{instance}"), *value, 8);
            last.insert(*instance, *value);
        }
        for (instance, expected) in last {
            prop_assert_eq!(
                bus.consume_latest(&format!("params-vm-{instance}"), 8),
                Ok(expected)
            );
        }
        prop_assert!(matches!(
            bus.consume_latest("params-vm-unknown", 8),
            Err(BusError::NoSuchTopic(_))
        ));
    }
}
