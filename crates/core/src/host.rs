//! The guest's view of the outside world.
//!
//! Guest code reaches everything I/O-shaped through host calls
//! (`io_read`, `db_put`, `bus_consume`, `mmds_get`, ...). [`GuestHost`]
//! serves them against the shared platform services, charging each one on
//! the sandbox's data path, and accumulates the charged time so platforms
//! can attribute it to the *others* category of the paper's latency
//! breakdowns.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use fireworks_annotator::{BUS_CONSUME_CALL, DEFAULT_PARAMS_CALL, MMDS_CALL};
use fireworks_lang::{Host, LangError, TaggedValue, Value};
use fireworks_msgbus::MessageBus;
use fireworks_sandbox::IoPath;
use fireworks_sim::{Clock, Nanos};
use fireworks_store::{DocumentStore, StoreError};

/// Store requests that hit a transient outage are retried this many
/// times in total before the outage surfaces to the guest.
const STORE_RETRY_ATTEMPTS: u32 = 3;
/// Backoff before the first store retry; doubles per retry, charged on
/// the virtual clock.
const STORE_RETRY_BACKOFF: Nanos = Nanos::from_micros(500);

/// Network charging mode for guest responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetMode {
    /// Traffic crosses the clone's NAT (Fireworks microVMs).
    ThroughNat,
    /// Direct host bridge (containers).
    Direct,
}

/// Serves guest host calls against platform services.
pub struct GuestHost {
    clock: Clock,
    io: IoPath,
    net_base: Nanos,
    net_per_kib: Nanos,
    nat_translate: Nanos,
    net_mode: NetMode,
    mmds_lookup: Nanos,
    bus: Rc<RefCell<MessageBus<Value>>>,
    store: Rc<RefCell<DocumentStore>>,
    mmds: BTreeMap<String, String>,
    default_params: Value,
    /// `print` output.
    pub printed: Vec<String>,
    /// Bodies passed to `http_respond`.
    pub responses: Vec<String>,
    /// Virtual time charged by host calls (attributed to "others").
    pub external_time: Nanos,
    /// Host calls served.
    pub calls_served: u64,
}

impl GuestHost {
    /// Builds a host for one invocation environment.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        clock: Clock,
        io: IoPath,
        net_costs: &fireworks_sim::cost::NetCosts,
        net_mode: NetMode,
        mmds_lookup: Nanos,
        bus: Rc<RefCell<MessageBus<Value>>>,
        store: Rc<RefCell<DocumentStore>>,
        default_params: Value,
    ) -> Self {
        GuestHost {
            clock,
            io,
            net_base: net_costs.packet_base,
            net_per_kib: net_costs.packet_per_kib,
            nat_translate: net_costs.nat_translate,
            net_mode,
            mmds_lookup,
            bus,
            store,
            mmds: BTreeMap::new(),
            default_params,
            printed: Vec::new(),
            responses: Vec::new(),
            external_time: Nanos::ZERO,
            calls_served: 0,
        }
    }

    /// Sets an MMDS key visible to the guest (e.g. `instance-id`).
    pub fn mmds_set(&mut self, key: &str, value: &str) {
        self.mmds.insert(key.to_string(), value.to_string());
    }

    fn net_packet(&self, kib: u64) -> Nanos {
        let mut t = self.net_base + self.net_per_kib * kib;
        if self.net_mode == NetMode::ThroughNat {
            t += self.nat_translate;
        }
        t
    }

    fn want_str<'a>(v: Option<&'a TaggedValue>, what: &str) -> Result<&'a str, LangError> {
        v.and_then(TaggedValue::as_str).ok_or_else(|| {
            LangError::runtime(format!(
                "{what} must be a string, got {:?}",
                v.map(TaggedValue::type_name)
            ))
        })
    }

    fn want_int(v: Option<&TaggedValue>, what: &str) -> Result<i64, LangError> {
        v.and_then(TaggedValue::as_int).ok_or_else(|| {
            LangError::runtime(format!(
                "{what} must be an int, got {:?}",
                v.map(TaggedValue::type_name)
            ))
        })
    }

    /// Runs a store request with bounded retries: a transient outage
    /// ([`StoreError::Unavailable`]) backs off on the virtual clock and
    /// tries again; every other result returns immediately.
    fn retry_store<T>(
        clock: &Clock,
        mut op: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut backoff = STORE_RETRY_BACKOFF;
        let mut attempt = 1;
        loop {
            match op() {
                Err(StoreError::Unavailable) if attempt < STORE_RETRY_ATTEMPTS => {
                    clock.advance(backoff);
                    backoff = backoff * 2;
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    fn serve(&mut self, name: &str, args: &[TaggedValue]) -> Result<Value, LangError> {
        match name {
            "io_read" | "io_write" => {
                let _file = Self::want_str(args.first(), "file name")?;
                let kib = Self::want_int(args.get(1), "size (KiB)")?.max(0) as u64;
                self.io.charge_disk_io(&self.clock, kib);
                Ok(Value::Int(kib as i64))
            }
            "net_send" => {
                let kib = Self::want_int(args.first(), "size (KiB)")?.max(0) as u64;
                self.clock.advance(self.net_packet(kib));
                Ok(Value::Null)
            }
            "http_respond" => {
                let body = match args.first() {
                    Some(v) => v.to_string(),
                    None => String::new(),
                };
                // The paper's faas-netlatency reply: body + ~500 B header.
                let bytes = body.len() as u64 + 500;
                self.clock.advance(self.net_packet(bytes.div_ceil(1024)));
                self.responses.push(body);
                Ok(Value::Null)
            }
            "db_put" => {
                let db = Self::want_str(args.first(), "database")?;
                let id = Self::want_str(args.get(1), "document id")?;
                let body = args
                    .get(2)
                    .map(TaggedValue::to_value)
                    .ok_or_else(|| LangError::runtime("db_put needs a document"))?;
                self.clock.advance(self.net_packet(1));
                let rev = Self::retry_store(&self.clock, || {
                    self.store.borrow_mut().put(db, id, &body, None)
                })
                .map_err(|e| LangError::runtime(e.to_string()))?;
                Ok(Value::Int(rev as i64))
            }
            "db_get" => {
                let db = Self::want_str(args.first(), "database")?;
                let id = Self::want_str(args.get(1), "document id")?;
                self.clock.advance(self.net_packet(1));
                match Self::retry_store(&self.clock, || self.store.borrow().get(db, id)) {
                    Ok(doc) => Ok(doc.body),
                    // An outage that survives the retries is an error; a
                    // missing document reads as null (HTTP 404).
                    Err(e @ StoreError::Unavailable) => Err(LangError::runtime(e.to_string())),
                    Err(_) => Ok(Value::Null),
                }
            }
            "db_delete" => {
                let db = Self::want_str(args.first(), "database")?;
                let id = Self::want_str(args.get(1), "document id")?;
                self.clock.advance(self.net_packet(1));
                match Self::retry_store(&self.clock, || self.store.borrow_mut().delete(db, id)) {
                    Ok(_) => Ok(Value::Bool(true)),
                    Err(e @ StoreError::Unavailable) => Err(LangError::runtime(e.to_string())),
                    Err(_) => Ok(Value::Bool(false)),
                }
            }
            "db_find" => {
                let db = Self::want_str(args.first(), "database")?;
                let field = Self::want_str(args.get(1), "field")?;
                let value = args
                    .get(2)
                    .map(TaggedValue::to_value)
                    .ok_or_else(|| LangError::runtime("db_find needs a value"))?;
                self.clock.advance(self.net_packet(1));
                // A missing database reads as empty (HTTP 404 → no rows),
                // which install-time warm-up relies on.
                let docs = match Self::retry_store(&self.clock, || {
                    self.store.borrow().find(db, field, &value)
                }) {
                    Ok(docs) => docs,
                    Err(e @ StoreError::Unavailable) => {
                        return Err(LangError::runtime(e.to_string()))
                    }
                    Err(_) => Vec::new(),
                };
                Ok(Value::array(docs.into_iter().map(|d| d.body).collect()))
            }
            "db_changes" => {
                let db = Self::want_str(args.first(), "database")?;
                let since = Self::want_int(args.get(1), "since")?.max(0) as u64;
                self.clock.advance(self.net_packet(1));
                let changes = match Self::retry_store(&self.clock, || {
                    self.store.borrow().changes_since(db, since)
                }) {
                    Ok(changes) => changes,
                    Err(e @ StoreError::Unavailable) => {
                        return Err(LangError::runtime(e.to_string()))
                    }
                    Err(_) => Vec::new(),
                };
                Ok(Value::array(
                    changes
                        .into_iter()
                        .map(|c| {
                            Value::map([
                                ("seq".to_string(), Value::Int(c.seq as i64)),
                                ("id".to_string(), Value::str(c.id)),
                                ("deleted".to_string(), Value::Bool(c.deleted)),
                            ])
                        })
                        .collect(),
                ))
            }
            BUS_CONSUME_CALL => {
                let topic = Self::want_str(args.first(), "topic")?;
                let value = self
                    .bus
                    .borrow()
                    .consume_latest(topic, 1024)
                    .map_err(|e| LangError::runtime(e.to_string()))?;
                Ok(value.deep_clone())
            }
            "bus_produce" => {
                let topic = Self::want_str(args.first(), "topic")?;
                let value = args
                    .get(1)
                    .map(TaggedValue::to_value)
                    .ok_or_else(|| LangError::runtime("bus_produce needs a value"))?;
                let offset = self
                    .bus
                    .borrow_mut()
                    .produce(topic, value.deep_clone(), 1024);
                Ok(Value::Int(offset as i64))
            }
            MMDS_CALL => {
                let key = Self::want_str(args.first(), "key")?;
                self.clock.advance(self.mmds_lookup);
                Ok(self.mmds.get(key).map(Value::str).unwrap_or(Value::Null))
            }
            DEFAULT_PARAMS_CALL => Ok(self.default_params.deep_clone()),
            "now" => Ok(Value::Int(self.clock.now().as_nanos() as i64)),
            "log" => {
                let text = args
                    .iter()
                    .map(TaggedValue::to_string)
                    .collect::<Vec<_>>()
                    .join(" ");
                self.printed.push(text);
                Ok(Value::Null)
            }
            other => Err(LangError::runtime(format!("unknown host call `{other}`"))),
        }
    }
}

impl Host for GuestHost {
    fn print(&mut self, text: &str) {
        self.printed.push(text.to_string());
    }

    fn host_call(&mut self, name: &str, args: &[TaggedValue]) -> Result<Value, LangError> {
        self.calls_served += 1;
        let before = self.clock.now();
        let result = self.serve(name, args);
        self.external_time += self.clock.now() - before;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_sandbox::IoPathKind;
    use fireworks_sim::CostModel;
    use fireworks_store::StoreCosts;

    fn host(kind: IoPathKind, mode: NetMode) -> GuestHost {
        let clock = Clock::new();
        let costs = Rc::new(CostModel::default());
        GuestHost::new(
            clock.clone(),
            IoPath::new(kind, costs.clone()),
            &costs.net,
            mode,
            costs.microvm.mmds_lookup,
            Rc::new(RefCell::new(MessageBus::new(
                clock.clone(),
                costs.bus.clone(),
            ))),
            Rc::new(RefCell::new(DocumentStore::new(
                clock,
                StoreCosts::default(),
            ))),
            Value::map([("n".to_string(), Value::Int(5))]),
        )
    }

    /// Serves `name` with `args` as the VM passes them: words it owns.
    fn call(h: &mut GuestHost, name: &str, args: &[Value]) -> Result<Value, LangError> {
        let words: Vec<TaggedValue> = args.iter().cloned().map(TaggedValue::from).collect();
        h.host_call(name, &words)
    }

    #[test]
    fn io_calls_charge_sandbox_path_costs() {
        let mut overlay = host(IoPathKind::OverlayFs, NetMode::Direct);
        let mut gvisor = host(IoPathKind::GvisorGofer, NetMode::Direct);
        let args = [Value::str("f"), Value::Int(10)];
        call(&mut overlay, "io_write", &args).expect("ok");
        call(&mut gvisor, "io_write", &args).expect("ok");
        assert!(gvisor.external_time > overlay.external_time);
    }

    #[test]
    fn db_round_trip_through_host_calls() {
        let mut h = host(IoPathKind::VirtioBlk, NetMode::ThroughNat);
        let doc = Value::map([("x".to_string(), Value::Int(1))]);
        let rev = call(
            &mut h,
            "db_put",
            &[Value::str("db"), Value::str("id1"), doc],
        )
        .expect("puts");
        assert_eq!(rev, Value::Int(1));
        let got = call(&mut h, "db_get", &[Value::str("db"), Value::str("id1")]).expect("gets");
        let Value::Map(m) = &got else { panic!("map") };
        assert_eq!(m.borrow()["x"], Value::Int(1));
        let missing =
            call(&mut h, "db_get", &[Value::str("db"), Value::str("nope")]).expect("null");
        assert_eq!(missing, Value::Null);
    }

    #[test]
    fn change_feed_surfaces_as_values() {
        let mut h = host(IoPathKind::VirtioBlk, NetMode::Direct);
        let doc = Value::map([("x".to_string(), Value::Int(1))]);
        call(&mut h, "db_put", &[Value::str("db"), Value::str("a"), doc]).expect("puts");
        let changes =
            call(&mut h, "db_changes", &[Value::str("db"), Value::Int(0)]).expect("changes");
        let Value::Array(a) = &changes else {
            panic!("array")
        };
        assert_eq!(a.borrow().len(), 1);
    }

    #[test]
    fn bus_and_mmds_serve_instance_identity() {
        let mut h = host(IoPathKind::VirtioBlk, NetMode::ThroughNat);
        h.mmds_set("instance-id", "vm-42");
        let id = call(&mut h, "mmds_get", &[Value::str("instance-id")]).expect("id");
        assert_eq!(id, Value::str("vm-42"));
        call(
            &mut h,
            "bus_produce",
            &[Value::str("params-vm-42"), Value::Int(99)],
        )
        .expect("produces");
        let got = call(&mut h, "bus_consume", &[Value::str("params-vm-42")]).expect("consumes");
        assert_eq!(got, Value::Int(99));
    }

    #[test]
    fn default_params_are_served_fresh() {
        let mut h = host(IoPathKind::VirtioBlk, NetMode::Direct);
        let a = call(&mut h, "default_params", &[]).expect("params");
        let b = call(&mut h, "default_params", &[]).expect("params");
        // Deep-cloned: mutating one must not affect the other.
        if let Value::Map(m) = &a {
            m.borrow_mut().insert("n".to_string(), Value::Int(-1));
        }
        let Value::Map(m) = &b else { panic!("map") };
        assert_eq!(m.borrow()["n"], Value::Int(5));
    }

    #[test]
    fn http_respond_collects_bodies_and_charges_nat() {
        let mut direct = host(IoPathKind::OverlayFs, NetMode::Direct);
        let mut nat = host(IoPathKind::VirtioBlk, NetMode::ThroughNat);
        call(&mut direct, "http_respond", &[Value::str("hello")]).expect("ok");
        call(&mut nat, "http_respond", &[Value::str("hello")]).expect("ok");
        assert_eq!(direct.responses, vec!["hello"]);
        assert!(nat.external_time > direct.external_time, "NAT adds cost");
    }

    #[test]
    fn unknown_host_call_is_an_error() {
        let mut h = host(IoPathKind::VirtioBlk, NetMode::Direct);
        assert!(call(&mut h, "launch_missiles", &[]).is_err());
    }
}
