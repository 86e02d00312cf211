//! Host networking for microVM snapshot clones (paper §3.5, Fig. 5).
//!
//! Every microVM restored from the same snapshot has the *same* guest IP,
//! MAC, and tap device name baked into its memory image. Running two such
//! clones on one host therefore conflicts — unless each clone's tap lives
//! in its own network namespace and is reached through NAT on a unique
//! external IP. This crate reproduces exactly that mechanism:
//!
//! - [`HostNetwork::attach_tap`] fails with [`NetError::Conflict`] when a
//!   duplicate tap name or guest IP appears *within one namespace*, and
//!   succeeds across namespaces;
//! - [`HostNetwork::install_nat`] maps a unique host-allocated external IP
//!   (DNAT in, SNAT out) to the namespace's guest IP;
//! - [`HostNetwork::deliver`] routes a packet to an external IP through
//!   the NAT into the right clone, charging per-packet costs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;

use fireworks_obs::{cat, Obs};
use fireworks_sim::cost::NetCosts;
use fireworks_sim::fault::{FaultSite, SharedInjector};
use fireworks_sim::{Clock, Nanos};

/// Retransmission timeout before the first retry; doubles per retry.
pub const RETRANSMIT_TIMEOUT: Nanos = Nanos::from_micros(500);
/// Transmission attempts per packet (1 original + bounded retries).
pub const MAX_TRANSMITS: u32 = 4;
/// Segment size host-to-host bulk transfers are cut into (one loss /
/// retransmission unit — a jumbo-frame-sized chunk of the stream).
pub const TRANSFER_SEGMENT_BYTES: u64 = 64 * 1024;

/// A completed host-to-host bulk transfer (snapshot chunk shipping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferReport {
    /// Payload bytes moved.
    pub bytes: u64,
    /// Segments the payload was cut into.
    pub segments: u64,
    /// Wire time: per-segment latency plus retransmission backoff.
    pub elapsed: Nanos,
    /// Segments that had to be retransmitted at least once.
    pub retransmits: u32,
}

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ip(pub u32);

impl Ip {
    /// Builds an address from octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ip {
        Ip(u32::from_be_bytes([a, b, c, d]))
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.0.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mac(pub [u8; 6]);

impl fmt::Display for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

/// Identifier of a network namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NsId(u32);

/// Networking errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A tap name or address collides inside one namespace — the exact
    /// failure the paper's namespace design avoids.
    Conflict(String),
    /// Unknown namespace.
    NoSuchNamespace(NsId),
    /// No route to the destination.
    NoRoute(Ip),
    /// The namespace has no tap to deliver into.
    NoTap(NsId),
    /// The packet and every bounded retransmission of it were lost
    /// (injected loss).
    Lost(Ip),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Conflict(what) => write!(f, "network conflict: {what}"),
            NetError::NoSuchNamespace(id) => write!(f, "no such namespace {id:?}"),
            NetError::NoRoute(ip) => write!(f, "no route to {ip}"),
            NetError::NoTap(id) => write!(f, "namespace {id:?} has no tap device"),
            NetError::Lost(ip) => write!(f, "packet to {ip} lost after retransmissions"),
        }
    }
}

impl std::error::Error for NetError {}

#[derive(Debug, Clone)]
struct Tap {
    name: String,
    guest_ip: Ip,
    guest_mac: Mac,
}

#[derive(Debug, Default, Clone)]
struct Namespace {
    taps: Vec<Tap>,
    /// DNAT: external IP → guest IP (with implied reverse SNAT).
    nat: HashMap<Ip, Ip>,
}

/// A successful packet delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Namespace the packet was delivered into.
    pub ns: NsId,
    /// Guest IP after DNAT.
    pub guest_ip: Ip,
    /// Tap device the packet entered through.
    pub tap: String,
    /// One-way latency charged (per successful transmission).
    pub latency: Nanos,
    /// Lost transmissions that were retried before this delivery.
    pub retransmits: u32,
}

/// The host's network state: a root namespace plus per-clone namespaces.
#[derive(Debug)]
pub struct HostNetwork {
    clock: Clock,
    costs: NetCosts,
    namespaces: HashMap<u32, Namespace>,
    next_ns: u32,
    /// Externally visible IPs must be host-unique (they live in the root
    /// namespace).
    external: HashMap<Ip, NsId>,
    next_external: u32,
    injector: SharedInjector,
    obs: Obs,
}

/// The root namespace id (taps attached here behave like a host without
/// namespace isolation — used to demonstrate the conflict).
pub const ROOT_NS: NsId = NsId(0);

impl HostNetwork {
    /// Creates a host network with only the root namespace.
    /// [`HostNetwork::deliver`] and [`HostNetwork::transfer_cost`]
    /// consult `injector`'s [`FaultSite::NetLoss`] per transmission
    /// attempt and retransmit lost packets with exponential backoff, up
    /// to [`MAX_TRANSMITS`]; they count `net.host.*` / `net.transfer.*`
    /// on `obs` and record an instant event per retransmission or final
    /// drop.
    pub fn new(clock: Clock, costs: NetCosts, injector: SharedInjector, obs: Obs) -> Self {
        let mut namespaces = HashMap::new();
        namespaces.insert(0, Namespace::default());
        HostNetwork {
            clock,
            costs,
            namespaces,
            next_ns: 1,
            external: HashMap::new(),
            next_external: u32::from_be_bytes([10, 200, 0, 2]),
            injector,
            obs,
        }
    }

    /// Creates a fresh network namespace.
    pub fn create_namespace(&mut self) -> NsId {
        self.clock.advance(self.costs.netns_create);
        let id = self.next_ns;
        self.next_ns += 1;
        self.namespaces.insert(id, Namespace::default());
        NsId(id)
    }

    /// Destroys a namespace, releasing its external IPs.
    pub fn destroy_namespace(&mut self, ns: NsId) -> Result<(), NetError> {
        if ns == ROOT_NS {
            return Err(NetError::Conflict(
                "cannot destroy the root namespace".into(),
            ));
        }
        self.namespaces
            .remove(&ns.0)
            .ok_or(NetError::NoSuchNamespace(ns))?;
        self.external.retain(|_, owner| *owner != ns);
        Ok(())
    }

    /// Attaches a tap device inside a namespace. Fails on a duplicate tap
    /// name or guest IP *within the same namespace* — which is what
    /// happens when two clones of one snapshot share a namespace.
    pub fn attach_tap(
        &mut self,
        ns: NsId,
        name: &str,
        guest_ip: Ip,
        guest_mac: Mac,
    ) -> Result<(), NetError> {
        self.clock.advance(self.costs.tap_create);
        let namespace = self
            .namespaces
            .get_mut(&ns.0)
            .ok_or(NetError::NoSuchNamespace(ns))?;
        for tap in &namespace.taps {
            if tap.name == name {
                return Err(NetError::Conflict(format!(
                    "tap `{name}` already exists in this namespace"
                )));
            }
            if tap.guest_ip == guest_ip {
                return Err(NetError::Conflict(format!(
                    "guest IP {guest_ip} already bound in this namespace"
                )));
            }
            if tap.guest_mac == guest_mac {
                return Err(NetError::Conflict(format!(
                    "guest MAC {guest_mac} already bound in this namespace"
                )));
            }
        }
        namespace.taps.push(Tap {
            name: name.to_string(),
            guest_ip,
            guest_mac,
        });
        Ok(())
    }

    /// Allocates a host-unique external IP for a namespace.
    pub fn alloc_external_ip(&mut self, ns: NsId) -> Result<Ip, NetError> {
        if !self.namespaces.contains_key(&ns.0) {
            return Err(NetError::NoSuchNamespace(ns));
        }
        let ip = Ip(self.next_external);
        self.next_external += 1;
        self.external.insert(ip, ns);
        Ok(ip)
    }

    /// Installs a DNAT/SNAT pair: packets to `external` are translated to
    /// `guest_ip` inside `ns`, and replies are translated back.
    pub fn install_nat(&mut self, ns: NsId, external: Ip, guest_ip: Ip) -> Result<(), NetError> {
        self.clock.advance(self.costs.nat_rule_install);
        match self.external.get(&external) {
            Some(owner) if *owner == ns => {}
            Some(_) => {
                return Err(NetError::Conflict(format!(
                    "external IP {external} is owned by another namespace"
                )))
            }
            None => {
                // Allow explicit externally chosen IPs too, as long as
                // they're unique.
                self.external.insert(external, ns);
            }
        }
        let namespace = self
            .namespaces
            .get_mut(&ns.0)
            .ok_or(NetError::NoSuchNamespace(ns))?;
        namespace.nat.insert(external, guest_ip);
        Ok(())
    }

    /// Routes a packet addressed to `dst` (an external IP) into the owning
    /// namespace, applying DNAT, and charges per-packet latency.
    pub fn deliver(&self, dst: Ip, payload_bytes: u64) -> Result<Delivery, NetError> {
        let ns = *self.external.get(&dst).ok_or(NetError::NoRoute(dst))?;
        let namespace = self
            .namespaces
            .get(&ns.0)
            .ok_or(NetError::NoSuchNamespace(ns))?;
        let guest_ip = *namespace.nat.get(&dst).ok_or(NetError::NoRoute(dst))?;
        let tap = namespace
            .taps
            .iter()
            .find(|t| t.guest_ip == guest_ip)
            .ok_or(NetError::NoTap(ns))?;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let latency = self.packet_latency(payload_bytes, true);
            self.clock.advance(latency);
            if !self.injector.borrow_mut().should_fail(FaultSite::NetLoss) {
                self.obs.metrics().inc("net.host.delivered", &[]);
                return Ok(Delivery {
                    ns,
                    guest_ip,
                    tap: tap.name.clone(),
                    latency,
                    retransmits: attempts - 1,
                });
            }
            if attempts >= MAX_TRANSMITS {
                self.obs.metrics().inc("net.host.drops", &[]);
                self.obs.recorder().instant_with(
                    format!("packet_lost:{dst}"),
                    cat::NET,
                    vec![("attempts", attempts.into())],
                );
                return Err(NetError::Lost(dst));
            }
            self.obs.metrics().inc("net.host.retransmits", &[]);
            self.obs.recorder().instant_with(
                format!("retransmit:{dst}"),
                cat::NET,
                vec![("attempt", attempts.into())],
            );
            // The sender times out and retransmits, doubling the wait.
            self.clock
                .advance(RETRANSMIT_TIMEOUT * (1u64 << (attempts - 1)));
        }
    }

    /// Computes the cost of streaming `payload_bytes` to a peer host
    /// (`peer` is only used to label errors and events) *without*
    /// advancing the clock. The payload is cut into
    /// [`TRANSFER_SEGMENT_BYTES`] segments; each segment is subject to
    /// the same per-attempt [`FaultSite::NetLoss`] draws and doubling
    /// retransmission backoff as [`HostNetwork::deliver`], and a segment
    /// exhausting [`MAX_TRANSMITS`] fails the whole transfer.
    ///
    /// Callers that overlap the transfer with other work (the delta-fetch
    /// prefetch pipeline) charge the returned elapsed time themselves;
    /// [`HostNetwork::transfer`] is the blocking convenience that charges
    /// it immediately.
    pub fn transfer_cost(&self, peer: Ip, payload_bytes: u64) -> Result<TransferReport, NetError> {
        let segments = payload_bytes.div_ceil(TRANSFER_SEGMENT_BYTES).max(1);
        let mut elapsed = Nanos::ZERO;
        let mut retransmits = 0u32;
        for seg in 0..segments {
            let seg_bytes =
                if seg + 1 == segments && !payload_bytes.is_multiple_of(TRANSFER_SEGMENT_BYTES) {
                    payload_bytes % TRANSFER_SEGMENT_BYTES
                } else {
                    TRANSFER_SEGMENT_BYTES.min(payload_bytes.max(1))
                };
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                elapsed += self.packet_latency(seg_bytes, false);
                if !self.injector.borrow_mut().should_fail(FaultSite::NetLoss) {
                    break;
                }
                if attempts >= MAX_TRANSMITS {
                    self.obs.metrics().inc("net.transfer.drops", &[]);
                    self.obs.recorder().instant_with(
                        format!("transfer_lost:{peer}"),
                        cat::NET,
                        vec![("segment", seg.into()), ("attempts", attempts.into())],
                    );
                    return Err(NetError::Lost(peer));
                }
                retransmits += 1;
                elapsed += RETRANSMIT_TIMEOUT * (1u64 << (attempts - 1));
            }
        }
        let metrics = self.obs.metrics();
        metrics.add("net.transfer.segments", &[], segments);
        metrics.add("net.transfer.bytes", &[], payload_bytes);
        if retransmits > 0 {
            metrics.add("net.transfer.retransmits", &[], u64::from(retransmits));
        }
        Ok(TransferReport {
            bytes: payload_bytes,
            segments,
            elapsed,
            retransmits,
        })
    }

    /// Streams `payload_bytes` to a peer host, charging the full transfer
    /// time on the clock. See [`HostNetwork::transfer_cost`].
    pub fn transfer(&self, peer: Ip, payload_bytes: u64) -> Result<TransferReport, NetError> {
        let report = self.transfer_cost(peer, payload_bytes)?;
        self.clock.advance(report.elapsed);
        Ok(report)
    }

    /// Latency of one packet: base + size + (optionally) NAT translation.
    fn packet_latency(&self, payload_bytes: u64, through_nat: bool) -> Nanos {
        let kib = payload_bytes.div_ceil(1024);
        let mut t = self.costs.packet_base + self.costs.packet_per_kib * kib;
        if through_nat {
            t += self.costs.nat_translate;
        }
        t
    }

    /// Number of live namespaces (including root).
    pub fn namespace_count(&self) -> usize {
        self.namespaces.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_sim::fault::{self, FaultInjector, FaultPlan};

    /// The guest address baked into every snapshot clone (A.A.A.A in the
    /// paper's Fig. 5).
    const GUEST_IP: Ip = Ip::new(172, 16, 0, 2);
    const GUEST_MAC: Mac = Mac([0x06, 0, 0, 0, 0, 0x2a]);

    fn net() -> HostNetwork {
        net_on(Clock::new(), FaultInjector::disabled())
    }

    fn net_on(clock: Clock, injector: FaultInjector) -> HostNetwork {
        let obs = Obs::new(clock.clone());
        HostNetwork::new(clock, NetCosts::default(), fault::shared(injector), obs)
    }

    #[test]
    fn clones_in_one_namespace_conflict() {
        let mut net = net();
        net.attach_tap(ROOT_NS, "tap0", GUEST_IP, GUEST_MAC)
            .expect("first clone attaches");
        let err = net.attach_tap(ROOT_NS, "tap0", GUEST_IP, GUEST_MAC);
        assert!(matches!(err, Err(NetError::Conflict(_))));
    }

    #[test]
    fn same_guest_ip_different_tap_name_still_conflicts() {
        let mut net = net();
        net.attach_tap(ROOT_NS, "tap0", GUEST_IP, GUEST_MAC)
            .expect("ok");
        let err = net.attach_tap(ROOT_NS, "tap1", GUEST_IP, Mac([6, 0, 0, 0, 0, 7]));
        assert!(matches!(err, Err(NetError::Conflict(_))));
    }

    #[test]
    fn namespaces_resolve_the_conflict() {
        // The paper's Fig. 5: identical guest addresses in separate
        // namespaces, reached via unique external IPs through NAT.
        let mut net = net();
        let ns1 = net.create_namespace();
        let ns2 = net.create_namespace();
        net.attach_tap(ns1, "tap0", GUEST_IP, GUEST_MAC)
            .expect("vm1");
        net.attach_tap(ns2, "tap0", GUEST_IP, GUEST_MAC)
            .expect("vm2");

        let ext1 = net.alloc_external_ip(ns1).expect("ip1");
        let ext2 = net.alloc_external_ip(ns2).expect("ip2");
        assert_ne!(ext1, ext2);
        net.install_nat(ns1, ext1, GUEST_IP).expect("nat1");
        net.install_nat(ns2, ext2, GUEST_IP).expect("nat2");

        let d1 = net.deliver(ext1, 500).expect("delivers to vm1");
        let d2 = net.deliver(ext2, 500).expect("delivers to vm2");
        assert_eq!(d1.ns, ns1);
        assert_eq!(d2.ns, ns2);
        assert_eq!(d1.guest_ip, GUEST_IP);
        assert_eq!(d2.guest_ip, GUEST_IP);
        assert_eq!(d1.tap, "tap0");
    }

    #[test]
    fn external_ips_are_host_unique() {
        let mut net = net();
        let ns1 = net.create_namespace();
        let ns2 = net.create_namespace();
        let ext = net.alloc_external_ip(ns1).expect("ip");
        let err = net.install_nat(ns2, ext, GUEST_IP);
        assert!(matches!(err, Err(NetError::Conflict(_))));
    }

    #[test]
    fn delivery_needs_route_and_tap() {
        let mut net = net();
        assert!(matches!(
            net.deliver(Ip::new(1, 2, 3, 4), 100),
            Err(NetError::NoRoute(_))
        ));
        let ns = net.create_namespace();
        let ext = net.alloc_external_ip(ns).expect("ip");
        net.install_nat(ns, ext, GUEST_IP).expect("nat");
        // NAT installed but no tap attached yet.
        assert!(matches!(net.deliver(ext, 100), Err(NetError::NoTap(_))));
    }

    #[test]
    fn destroy_releases_external_ips() {
        let mut net = net();
        let ns = net.create_namespace();
        let ext = net.alloc_external_ip(ns).expect("ip");
        net.install_nat(ns, ext, GUEST_IP).expect("nat");
        net.destroy_namespace(ns).expect("destroys");
        assert!(matches!(net.deliver(ext, 100), Err(NetError::NoRoute(_))));
        assert!(net.destroy_namespace(ROOT_NS).is_err());
    }

    #[test]
    fn packet_latency_scales_with_size_and_nat() {
        let net = net();
        let small = net.packet_latency(579, true);
        let big = net.packet_latency(64 * 1024, true);
        let no_nat = net.packet_latency(579, false);
        assert!(big > small);
        assert!(no_nat < small);
    }

    #[test]
    fn namespace_setup_charges_time() {
        let clock = Clock::new();
        let mut net = net_on(clock.clone(), FaultInjector::disabled());
        let before = clock.now();
        let ns = net.create_namespace();
        net.attach_tap(ns, "tap0", GUEST_IP, GUEST_MAC).expect("ok");
        let ext = net.alloc_external_ip(ns).expect("ip");
        net.install_nat(ns, ext, GUEST_IP).expect("nat");
        let elapsed = clock.now() - before;
        let costs = NetCosts::default();
        assert_eq!(
            elapsed,
            costs.netns_create + costs.tap_create + costs.nat_rule_install
        );
    }

    fn routed_net(clock: Clock, injector: FaultInjector) -> (HostNetwork, Ip) {
        let mut net = net_on(clock, injector);
        let ns = net.create_namespace();
        net.attach_tap(ns, "tap0", GUEST_IP, GUEST_MAC).expect("ok");
        let ext = net.alloc_external_ip(ns).expect("ip");
        net.install_nat(ns, ext, GUEST_IP).expect("nat");
        (net, ext)
    }

    #[test]
    fn lost_packets_are_retransmitted_with_backoff() {
        let clock = Clock::new();
        // Lose the first two transmissions; the third goes through.
        let (net, ext) = routed_net(
            clock.clone(),
            FaultInjector::new(
                FaultPlan::new(3)
                    .nth(FaultSite::NetLoss, 1)
                    .nth(FaultSite::NetLoss, 2),
            ),
        );
        let before = clock.now();
        let d = net.deliver(ext, 500).expect("third attempt delivers");
        assert_eq!(d.retransmits, 2);
        let elapsed = clock.now() - before;
        // 3 transmissions + two doubling backoffs.
        let expected = d.latency * 3 + RETRANSMIT_TIMEOUT + RETRANSMIT_TIMEOUT * 2;
        assert_eq!(elapsed, expected);
    }

    #[test]
    fn loss_on_every_attempt_gives_up_bounded() {
        let (net, ext) = routed_net(Clock::new(), FaultInjector::new(FaultPlan::uniform(1, 1.0)));
        let inj = net.injector.clone();
        let err = net.deliver(ext, 100).expect_err("all attempts lost");
        assert_eq!(err, NetError::Lost(ext));
        assert_eq!(
            inj.borrow().injected_at(FaultSite::NetLoss),
            MAX_TRANSMITS as usize,
            "exactly MAX_TRANSMITS attempts were made"
        );
    }

    #[test]
    fn transfer_cost_scales_with_bytes_and_charges_nothing() {
        let clock = Clock::new();
        let net = net_on(clock.clone(), FaultInjector::disabled());
        let peer = Ip::new(10, 42, 0, 1);
        let before = clock.now();
        let small = net.transfer_cost(peer, 64 * 1024).expect("ok");
        let big = net.transfer_cost(peer, 4 << 20).expect("ok");
        assert_eq!(clock.now(), before, "cost computation is clock-neutral");
        assert_eq!(small.segments, 1);
        assert_eq!(big.segments, 64);
        assert!(big.elapsed > small.elapsed * 32);
        // The blocking variant charges the same elapsed time.
        let charged = net.transfer(peer, 4 << 20).expect("ok");
        assert_eq!(charged.elapsed, big.elapsed);
        assert_eq!(clock.now() - before, big.elapsed);
    }

    #[test]
    fn transfer_retransmits_lost_segments_with_backoff() {
        let peer = Ip::new(10, 42, 0, 2);
        let clean = net().transfer_cost(peer, 128 * 1024).expect("ok");
        let net = net_on(
            Clock::new(),
            FaultInjector::new(FaultPlan::new(5).nth(FaultSite::NetLoss, 1)),
        );
        let lossy = net.transfer_cost(peer, 128 * 1024).expect("ok");
        assert_eq!(lossy.retransmits, 1);
        let seg_latency = net.packet_latency(TRANSFER_SEGMENT_BYTES, false);
        assert_eq!(
            lossy.elapsed,
            clean.elapsed + seg_latency + RETRANSMIT_TIMEOUT
        );
    }

    #[test]
    fn transfer_gives_up_when_a_segment_exhausts_retries() {
        let net = net_on(Clock::new(), FaultInjector::new(FaultPlan::uniform(1, 1.0)));
        let peer = Ip::new(10, 42, 0, 3);
        let err = net.transfer_cost(peer, 256 * 1024).expect_err("lost");
        assert_eq!(err, NetError::Lost(peer));
    }

    #[test]
    fn rate_zero_injector_changes_nothing() {
        let clock = Clock::new();
        let (plain, ext_a) = routed_net(clock.clone(), FaultInjector::disabled());
        let (armed, ext_b) = routed_net(clock, FaultInjector::new(FaultPlan::uniform(9, 0.0)));
        let d_plain = plain.deliver(ext_a, 500).expect("ok");
        let d_armed = armed.deliver(ext_b, 500).expect("ok");
        assert_eq!(d_plain.latency, d_armed.latency);
        assert_eq!(d_armed.retransmits, 0);
    }
}
