//! A CouchDB-style document store.
//!
//! The paper's real-world applications (§5.3) — Alexa Skills and Data
//! Analysis — store reminders, device states, and wage records in CouchDB,
//! and the Data Analysis chain is *triggered by a database update* (the
//! dashed box in Fig. 8(b)). This crate provides the pieces those apps
//! use: revisioned documents with conflict detection, simple field
//! queries, and a monotonic change feed that the platform's Cloud trigger
//! polls.
//!
//! Documents are [`fireworks_lang::Value`]s and are deep-cloned at the
//! put/get boundary — the store is a separate service and must never alias
//! guest memory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chunk;

pub use chunk::{ChunkStore, ChunkStoreStats};

use std::collections::BTreeMap;
use std::fmt;

use fireworks_lang::Value;
use fireworks_obs::{cat, Counter, Obs};
use fireworks_sim::fault::{FaultSite, SharedInjector};
use fireworks_sim::{Clock, Nanos};

/// Store operation costs (the service-side cost; the network hop to reach
/// the store is charged by the caller's sandbox path).
#[derive(Debug, Clone)]
pub struct StoreCosts {
    /// One document write.
    pub put: Nanos,
    /// One document read.
    pub get: Nanos,
    /// One field-equality scan, per document scanned.
    pub scan_per_doc: Nanos,
    /// One change-feed read.
    pub changes: Nanos,
}

impl Default for StoreCosts {
    fn default() -> Self {
        StoreCosts {
            put: Nanos::from_micros(350),
            get: Nanos::from_micros(180),
            scan_per_doc: Nanos::from_micros(6),
            changes: Nanos::from_micros(120),
        }
    }
}

/// Store errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The database does not exist.
    NoSuchDatabase(String),
    /// The document does not exist.
    NotFound {
        /// Database name.
        db: String,
        /// Document id.
        id: String,
    },
    /// A put supplied a stale revision.
    Conflict {
        /// Document id.
        id: String,
        /// Revision the caller supplied.
        expected: u64,
        /// Revision currently stored.
        actual: u64,
    },
    /// The store is transiently unavailable (injected outage); the
    /// request may be retried.
    Unavailable,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchDatabase(db) => write!(f, "no such database `{db}`"),
            StoreError::NotFound { db, id } => write!(f, "document `{id}` not found in `{db}`"),
            StoreError::Conflict {
                id,
                expected,
                actual,
            } => write!(
                f,
                "revision conflict on `{id}`: expected {expected}, is {actual}"
            ),
            StoreError::Unavailable => write!(f, "document store temporarily unavailable"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A stored document.
#[derive(Debug, Clone)]
pub struct Document {
    /// Document id.
    pub id: String,
    /// Monotonic revision (1 on first write).
    pub rev: u64,
    /// Document body.
    pub body: Value,
}

/// One entry of the change feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Change {
    /// Monotonic database sequence number (1-based).
    pub seq: u64,
    /// Document id that changed.
    pub id: String,
    /// New revision.
    pub rev: u64,
    /// Whether the change was a deletion.
    pub deleted: bool,
}

#[derive(Debug, Default)]
struct Database {
    docs: BTreeMap<String, Document>,
    changes: Vec<Change>,
}

impl Database {
    fn record_change(&mut self, id: &str, rev: u64, deleted: bool) {
        let seq = self.changes.len() as u64 + 1;
        self.changes.push(Change {
            seq,
            id: id.to_string(),
            rev,
            deleted,
        });
    }
}

/// A request kind: the `op` label of `store.docstore.requests`.
#[derive(Debug, Clone, Copy)]
enum Request {
    Put,
    Get,
    Delete,
    Find,
    Changes,
}

impl Request {
    const LABELS: [&'static str; 5] = ["put", "get", "delete", "find", "changes"];

    fn label(self) -> &'static str {
        Request::LABELS[self as usize]
    }
}

/// The document store service.
#[derive(Debug)]
pub struct DocumentStore {
    clock: Clock,
    costs: StoreCosts,
    databases: BTreeMap<String, Database>,
    injector: Option<SharedInjector>,
    /// The attached plane and its `store.docstore.requests{op}` per
    /// [`Request`].
    obs: Option<(Obs, [Counter; Request::LABELS.len()])>,
}

impl DocumentStore {
    /// Creates an empty store.
    pub fn new(clock: Clock, costs: StoreCosts) -> Self {
        DocumentStore {
            clock,
            costs,
            databases: BTreeMap::new(),
            injector: None,
            obs: None,
        }
    }

    /// Attaches a fault injector; every request then consults
    /// [`FaultSite::StoreUnavailable`] and may fail with
    /// [`StoreError::Unavailable`].
    pub fn set_fault_injector(&mut self, injector: SharedInjector) {
        self.injector = Some(injector);
    }

    /// Attaches an observability plane; every request is then counted as
    /// `store.docstore.requests{op=...}` and injected outages become
    /// `store.docstore.outages` plus an instant event.
    pub fn set_obs(&mut self, obs: Obs) {
        let requests = Request::LABELS.map(|op| {
            obs.metrics()
                .counter("store.docstore.requests", &[("op", op)])
        });
        self.obs = Some((obs, requests));
    }

    /// Simulated outage check, performed at the front of every request.
    /// `op` is the request kind the per-operation request counter counts.
    fn check_available(&self, op: Request) -> Result<(), StoreError> {
        if let Some((_, requests)) = &self.obs {
            requests[op as usize].inc();
        }
        let down = self
            .injector
            .as_ref()
            .map(|inj| inj.borrow_mut().should_fail(FaultSite::StoreUnavailable))
            .unwrap_or(false);
        if down {
            if let Some((obs, _)) = &self.obs {
                obs.metrics().inc("store.docstore.outages", &[]);
                obs.recorder().instant_with(
                    "store_outage",
                    cat::STORE,
                    vec![("op", op.label().into())],
                );
            }
            Err(StoreError::Unavailable)
        } else {
            Ok(())
        }
    }

    /// Creates a database (idempotent).
    fn create_db(&mut self, name: &str) {
        self.databases.entry(name.to_string()).or_default();
    }

    /// Whether a database exists.
    pub fn has_db(&self, name: &str) -> bool {
        self.databases.contains_key(name)
    }

    fn db_mut(&mut self, name: &str) -> Result<&mut Database, StoreError> {
        self.databases
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchDatabase(name.to_string()))
    }

    fn db(&self, name: &str) -> Result<&Database, StoreError> {
        self.databases
            .get(name)
            .ok_or_else(|| StoreError::NoSuchDatabase(name.to_string()))
    }

    /// Writes a document, creating the database on demand. Returns the new
    /// revision. If `expected_rev` is `Some`, the write fails with
    /// [`StoreError::Conflict`] unless it matches the current revision
    /// (CouchDB MVCC semantics).
    pub fn put(
        &mut self,
        db: &str,
        id: &str,
        body: &Value,
        expected_rev: Option<u64>,
    ) -> Result<u64, StoreError> {
        self.check_available(Request::Put)?;
        self.clock.advance(self.costs.put);
        self.create_db(db);
        let database = self.db_mut(db)?;
        let current = database.docs.get(id).map(|d| d.rev).unwrap_or(0);
        if let Some(expected) = expected_rev {
            if expected != current {
                return Err(StoreError::Conflict {
                    id: id.to_string(),
                    expected,
                    actual: current,
                });
            }
        }
        let rev = current + 1;
        database.docs.insert(
            id.to_string(),
            Document {
                id: id.to_string(),
                rev,
                body: body.deep_clone(),
            },
        );
        database.record_change(id, rev, false);
        Ok(rev)
    }

    /// Reads a document.
    pub fn get(&self, db: &str, id: &str) -> Result<Document, StoreError> {
        self.check_available(Request::Get)?;
        self.clock.advance(self.costs.get);
        let database = self.db(db)?;
        let doc = database.docs.get(id).ok_or_else(|| StoreError::NotFound {
            db: db.to_string(),
            id: id.to_string(),
        })?;
        Ok(Document {
            id: doc.id.clone(),
            rev: doc.rev,
            body: doc.body.deep_clone(),
        })
    }

    /// Deletes a document, recording a deletion change.
    pub fn delete(&mut self, db: &str, id: &str) -> Result<(), StoreError> {
        self.check_available(Request::Delete)?;
        self.clock.advance(self.costs.put);
        let database = self.db_mut(db)?;
        let doc = database
            .docs
            .remove(id)
            .ok_or_else(|| StoreError::NotFound {
                db: db.to_string(),
                id: id.to_string(),
            })?;
        database.record_change(id, doc.rev + 1, true);
        Ok(())
    }

    /// Finds documents whose body is a map with `field == value`
    /// (structural equality). A linear scan, like an unindexed Mango
    /// query.
    pub fn find(&self, db: &str, field: &str, value: &Value) -> Result<Vec<Document>, StoreError> {
        self.check_available(Request::Find)?;
        let database = self.db(db)?;
        self.clock
            .advance(self.costs.scan_per_doc * database.docs.len() as u64);
        let mut out = Vec::new();
        for doc in database.docs.values() {
            if let Value::Map(m) = &doc.body {
                if let Some(v) = m.borrow().get(field) {
                    if v.eq_value(value) {
                        out.push(Document {
                            id: doc.id.clone(),
                            rev: doc.rev,
                            body: doc.body.deep_clone(),
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    /// Changes with sequence number greater than `since` — the feed the
    /// Cloud trigger polls to start the Data-Analysis chain.
    pub fn changes_since(&self, db: &str, since: u64) -> Result<Vec<Change>, StoreError> {
        self.check_available(Request::Changes)?;
        self.clock.advance(self.costs.changes);
        let database = self.db(db)?;
        Ok(database
            .changes
            .iter()
            .filter(|c| c.seq > since)
            .cloned()
            .collect())
    }

    /// Latest sequence number of a database (0 when empty/unknown).
    pub fn last_seq(&self, db: &str) -> u64 {
        self.databases
            .get(db)
            .map(|d| d.changes.len() as u64)
            .unwrap_or(0)
    }

    /// Number of documents in a database (0 for unknown databases).
    pub fn count(&self, db: &str) -> usize {
        self.databases.get(db).map(|d| d.docs.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DocumentStore {
        DocumentStore::new(Clock::new(), StoreCosts::default())
    }

    fn doc(n: i64) -> Value {
        Value::map([
            ("name".to_string(), Value::str(format!("emp{n}"))),
            (
                "role".to_string(),
                Value::str(if n % 2 == 0 { "dev" } else { "ops" }),
            ),
            ("base".to_string(), Value::Int(1000 + n)),
        ])
    }

    #[test]
    fn put_get_round_trip_with_revisions() {
        let mut s = store();
        let r1 = s.put("wages", "e1", &doc(1), None).expect("puts");
        assert_eq!(r1, 1);
        let r2 = s.put("wages", "e1", &doc(2), None).expect("puts");
        assert_eq!(r2, 2);
        let d = s.get("wages", "e1").expect("gets");
        assert_eq!(d.rev, 2);
        let Value::Map(m) = &d.body else {
            panic!("map")
        };
        assert_eq!(m.borrow()["base"], Value::Int(1002));
    }

    #[test]
    fn conflict_detection_with_expected_rev() {
        let mut s = store();
        s.put("db", "x", &doc(1), None).expect("puts");
        let err = s.put("db", "x", &doc(2), Some(0));
        assert!(matches!(err, Err(StoreError::Conflict { actual: 1, .. })));
        assert!(s.put("db", "x", &doc(2), Some(1)).is_ok());
    }

    #[test]
    fn get_missing_is_not_found() {
        let mut s = store();
        s.create_db("db");
        assert!(matches!(
            s.get("db", "nope"),
            Err(StoreError::NotFound { .. })
        ));
        assert!(matches!(
            s.get("nodb", "x"),
            Err(StoreError::NoSuchDatabase(_))
        ));
    }

    #[test]
    fn stored_documents_do_not_alias_caller_memory() {
        let mut s = store();
        let body = doc(1);
        s.put("db", "x", &body, None).expect("puts");
        // Mutate the caller's value after the put.
        if let Value::Map(m) = &body {
            m.borrow_mut().insert("base".to_string(), Value::Int(-1));
        }
        let d = s.get("db", "x").expect("gets");
        let Value::Map(m) = &d.body else {
            panic!("map")
        };
        assert_eq!(m.borrow()["base"], Value::Int(1001), "no aliasing");
    }

    #[test]
    fn find_matches_field_equality() {
        let mut s = store();
        for n in 0..6 {
            s.put("wages", &format!("e{n}"), &doc(n), None)
                .expect("puts");
        }
        let devs = s.find("wages", "role", &Value::str("dev")).expect("finds");
        assert_eq!(devs.len(), 3);
        let none = s.find("wages", "role", &Value::str("ceo")).expect("finds");
        assert!(none.is_empty());
    }

    #[test]
    fn change_feed_is_monotonic_and_filtered() {
        let mut s = store();
        s.put("db", "a", &doc(1), None).expect("puts");
        s.put("db", "b", &doc(2), None).expect("puts");
        s.put("db", "a", &doc(3), None).expect("puts");
        let all = s.changes_since("db", 0).expect("changes");
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].seq, 1);
        assert_eq!(all[2].seq, 3);
        assert_eq!(all[2].id, "a");
        assert_eq!(all[2].rev, 2);
        let tail = s.changes_since("db", 2).expect("changes");
        assert_eq!(tail.len(), 1);
        assert_eq!(s.last_seq("db"), 3);
    }

    #[test]
    fn delete_records_a_deletion_change() {
        let mut s = store();
        s.put("db", "x", &doc(1), None).expect("puts");
        s.delete("db", "x").expect("deletes");
        assert_eq!(s.count("db"), 0);
        let changes = s.changes_since("db", 0).expect("changes");
        assert!(changes[1].deleted);
        assert!(matches!(
            s.delete("db", "x"),
            Err(StoreError::NotFound { .. })
        ));
    }

    #[test]
    fn operations_charge_time() {
        let clock = Clock::new();
        let mut s = DocumentStore::new(clock.clone(), StoreCosts::default());
        let t0 = clock.now();
        s.put("db", "x", &doc(1), None).expect("puts");
        assert!(clock.now() > t0);
    }

    #[test]
    fn change_feed_from_stale_or_future_sequence() {
        let mut s = store();
        s.put("db", "a", &doc(1), None).expect("puts");
        s.put("db", "b", &doc(2), None).expect("puts");
        // A consumer resuming from a sequence at (or beyond) the head sees
        // nothing — no wraparound, no error.
        assert!(s.changes_since("db", 2).expect("at head").is_empty());
        assert!(s.changes_since("db", 999).expect("beyond head").is_empty());
        // An unknown database is an error, not an empty feed.
        assert!(matches!(
            s.changes_since("ghost", 0),
            Err(StoreError::NoSuchDatabase(_))
        ));
    }

    #[test]
    fn injected_outage_fails_requests_then_recovers() {
        use fireworks_sim::fault::{self, FaultInjector, FaultPlan};
        let clock = Clock::new();
        let mut s = DocumentStore::new(clock.clone(), StoreCosts::default());
        s.put("db", "x", &doc(1), None).expect("puts while healthy");
        let t_before = clock.now();
        // Fire on the 1st and 2nd requests after arming.
        s.set_fault_injector(fault::shared(FaultInjector::new(
            FaultPlan::new(7)
                .nth(FaultSite::StoreUnavailable, 1)
                .nth(FaultSite::StoreUnavailable, 2),
        )));
        assert_eq!(s.get("db", "x").unwrap_err(), StoreError::Unavailable);
        assert_eq!(
            s.put("db", "y", &doc(2), None).unwrap_err(),
            StoreError::Unavailable
        );
        // A failed request never reaches the service: no cost, no state.
        assert_eq!(clock.now(), t_before);
        assert_eq!(s.count("db"), 1);
        // Third request goes through.
        assert_eq!(s.get("db", "x").expect("recovered").rev, 1);
        assert!(StoreError::Unavailable.to_string().contains("unavailable"));
    }

    #[test]
    fn repeated_requests_look_no_series_up_by_name() {
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        let mut s = DocumentStore::new(clock, StoreCosts::default());
        s.set_obs(obs.clone());
        let requests = |s: &mut DocumentStore| {
            s.put("db", "x", &doc(1), None).expect("puts");
            s.get("db", "x").expect("gets");
        };
        requests(&mut s);
        let before = obs.metrics().lookups();
        for _ in 0..8 {
            requests(&mut s);
        }
        assert_eq!(obs.metrics().lookups(), before);
        let m = obs.metrics().snapshot();
        for op in ["put", "get"] {
            assert_eq!(m.counter("store.docstore.requests", &[("op", op)]), 9);
        }
        let ops = m.counters().filter(|(k, _)| k.contains("docstore"));
        assert_eq!(ops.count(), 2, "a series appears once written");
    }
}
