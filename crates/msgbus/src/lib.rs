//! A Kafka-style message bus (the paper's parameter passer substrate,
//! §3.6 and Fig. 3 line 23).
//!
//! Fireworks passes invocation arguments to restored microVMs through a
//! per-instance topic: the invoker *produces* the arguments before
//! resuming the VM, and the resumed guest *consumes* the latest record
//! (the paper shells out to `kafkacat -o -1 -c 1`). This crate provides
//! exactly those semantics as an append-only log per topic with offsets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;

use fireworks_sim::cost::BusCosts;
use fireworks_sim::Clock;

/// Message-bus errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// Topic does not exist.
    NoSuchTopic(String),
    /// Offset is past the end of the log.
    OffsetOutOfRange {
        /// The requested topic.
        topic: String,
        /// The requested offset.
        offset: u64,
        /// Current end of the log.
        end: u64,
    },
    /// The topic exists but holds no records yet.
    Empty(String),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::NoSuchTopic(t) => write!(f, "no such topic `{t}`"),
            BusError::OffsetOutOfRange { topic, offset, end } => {
                write!(f, "offset {offset} out of range for `{topic}` (end {end})")
            }
            BusError::Empty(t) => write!(f, "topic `{t}` is empty"),
        }
    }
}

impl std::error::Error for BusError {}

#[derive(Debug, Clone)]
struct Topic<T> {
    records: Vec<T>,
}

/// An append-only, offset-addressed message bus.
///
/// Generic over the record type so the platform can pass structured
/// values without a serialisation dependency; `approx_bytes` lets the
/// cost model account for payload size anyway.
///
/// # Examples
///
/// ```
/// use fireworks_msgbus::MessageBus;
/// use fireworks_sim::{Clock, cost::BusCosts};
///
/// let mut bus: MessageBus<String> = MessageBus::new(Clock::new(), BusCosts::default());
/// bus.produce("params-7", "n=12".to_string(), 4);
/// let latest = bus.consume_latest("params-7", 4).expect("record");
/// assert_eq!(latest, "n=12");
/// ```
#[derive(Debug)]
pub struct MessageBus<T> {
    clock: Clock,
    costs: BusCosts,
    topics: HashMap<String, Topic<T>>,
}

impl<T: Clone> MessageBus<T> {
    /// Creates an empty bus.
    pub fn new(clock: Clock, costs: BusCosts) -> Self {
        MessageBus {
            clock,
            costs,
            topics: HashMap::new(),
        }
    }

    /// Creates a topic (idempotent).
    fn create_topic(&mut self, name: &str) {
        if !self.topics.contains_key(name) {
            self.clock.advance(self.costs.topic_create);
            self.topics.insert(
                name.to_string(),
                Topic {
                    records: Vec::new(),
                },
            );
        }
    }

    /// Whether a topic exists.
    pub fn has_topic(&self, name: &str) -> bool {
        self.topics.contains_key(name)
    }

    /// Appends a record, creating the topic if needed; returns its offset.
    pub fn produce(&mut self, topic: &str, record: T, approx_bytes: u64) -> u64 {
        self.create_topic(topic);
        self.clock
            .advance(self.costs.produce + self.costs.per_kib * approx_bytes.div_ceil(1024));
        let t = self.topics.get_mut(topic).expect("created above");
        t.records.push(record);
        (t.records.len() - 1) as u64
    }

    /// Reads the record at `offset`.
    pub fn fetch(&self, topic: &str, offset: u64, approx_bytes: u64) -> Result<T, BusError> {
        let t = self
            .topics
            .get(topic)
            .ok_or_else(|| BusError::NoSuchTopic(topic.to_string()))?;
        let record =
            t.records
                .get(offset as usize)
                .cloned()
                .ok_or_else(|| BusError::OffsetOutOfRange {
                    topic: topic.to_string(),
                    offset,
                    end: t.records.len() as u64,
                })?;
        self.clock
            .advance(self.costs.consume + self.costs.per_kib * approx_bytes.div_ceil(1024));
        Ok(record)
    }

    /// Reads the most recent record — `kafkacat -o -1 -c 1` semantics,
    /// what a resumed Fireworks guest does to get its arguments.
    pub fn consume_latest(&self, topic: &str, approx_bytes: u64) -> Result<T, BusError> {
        let t = self
            .topics
            .get(topic)
            .ok_or_else(|| BusError::NoSuchTopic(topic.to_string()))?;
        let record = t
            .records
            .last()
            .cloned()
            .ok_or_else(|| BusError::Empty(topic.to_string()))?;
        self.clock
            .advance(self.costs.consume + self.costs.per_kib * approx_bytes.div_ceil(1024));
        Ok(record)
    }

    /// Number of records in a topic (0 for unknown topics).
    pub fn len(&self, topic: &str) -> u64 {
        self.topics
            .get(topic)
            .map(|t| t.records.len() as u64)
            .unwrap_or(0)
    }

    /// Whether a topic has no records (true for unknown topics).
    pub fn is_empty(&self, topic: &str) -> bool {
        self.len(topic) == 0
    }

    /// Deletes a topic and its records.
    pub fn delete_topic(&mut self, topic: &str) {
        self.topics.remove(topic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> MessageBus<i64> {
        MessageBus::new(Clock::new(), BusCosts::default())
    }

    #[test]
    fn produce_assigns_sequential_offsets() {
        let mut b = bus();
        assert_eq!(b.produce("t", 10, 8), 0);
        assert_eq!(b.produce("t", 20, 8), 1);
        assert_eq!(b.produce("t", 30, 8), 2);
        assert_eq!(b.len("t"), 3);
    }

    #[test]
    fn fetch_by_offset() {
        let mut b = bus();
        b.produce("t", 10, 8);
        b.produce("t", 20, 8);
        assert_eq!(b.fetch("t", 1, 8), Ok(20));
        assert!(matches!(
            b.fetch("t", 5, 8),
            Err(BusError::OffsetOutOfRange { end: 2, .. })
        ));
        assert!(matches!(b.fetch("x", 0, 8), Err(BusError::NoSuchTopic(_))));
    }

    #[test]
    fn consume_latest_gets_newest_record() {
        let mut b = bus();
        b.create_topic("params-3");
        assert!(matches!(
            b.consume_latest("params-3", 8),
            Err(BusError::Empty(_))
        ));
        b.produce("params-3", 1, 8);
        b.produce("params-3", 2, 8);
        assert_eq!(b.consume_latest("params-3", 8), Ok(2));
        // Reading the latest does not consume it.
        assert_eq!(b.consume_latest("params-3", 8), Ok(2));
    }

    #[test]
    fn per_instance_topics_are_isolated() {
        // Two clones resumed from one snapshot read different topics keyed
        // by their MMDS instance id — the paper's argument-passing fix.
        let mut b = bus();
        b.produce("params-vm1", 111, 8);
        b.produce("params-vm2", 222, 8);
        assert_eq!(b.consume_latest("params-vm1", 8), Ok(111));
        assert_eq!(b.consume_latest("params-vm2", 8), Ok(222));
    }

    #[test]
    fn bus_operations_charge_time() {
        let clock = Clock::new();
        let mut b: MessageBus<i64> = MessageBus::new(clock.clone(), BusCosts::default());
        let t0 = clock.now();
        b.produce("t", 1, 2048);
        let after_produce = clock.now();
        assert!(after_produce > t0);
        b.consume_latest("t", 2048).expect("record");
        assert!(clock.now() > after_produce);
    }

    #[test]
    fn delete_topic_removes_records_and_offsets() {
        let mut b = bus();
        b.produce("t", 1, 8);
        b.produce("t", 2, 8);
        b.delete_topic("t");
        assert!(b.is_empty("t"));
        assert!(!b.has_topic("t"));
        // A re-created topic's offsets start again at 0.
        assert_eq!(b.produce("t", 9, 8), 0);
        assert_eq!(b.fetch("t", 0, 8), Ok(9));
    }
}
