//! Property tests for the clone-networking invariants.

use fireworks_netsim::{HostNetwork, Ip, Mac, NetError, ROOT_NS};
use fireworks_obs::Obs;
use fireworks_sim::cost::NetCosts;
use fireworks_sim::fault::{self, FaultInjector};
use fireworks_sim::Clock;
use proptest::prelude::*;

const GUEST_IP: Ip = Ip::new(172, 16, 0, 2);
const GUEST_MAC: Mac = Mac([0x06, 0, 0, 0, 0, 0x2a]);

fn net() -> HostNetwork {
    let clock = Clock::new();
    let obs = Obs::new(clock.clone());
    HostNetwork::new(
        clock,
        NetCosts::default(),
        fault::shared(FaultInjector::disabled()),
        obs,
    )
}

proptest! {
    /// Any number of identical snapshot clones coexist when each gets its
    /// own namespace, and every clone is reachable on its own external IP.
    #[test]
    fn n_clones_coexist_with_namespaces(n in 1usize..40) {
        let mut net = net();
        let mut externals = Vec::new();
        for _ in 0..n {
            let ns = net.create_namespace();
            net.attach_tap(ns, "tap0", GUEST_IP, GUEST_MAC).expect("tap");
            let ext = net.alloc_external_ip(ns).expect("ip");
            net.install_nat(ns, ext, GUEST_IP).expect("nat");
            externals.push((ns, ext));
        }
        // All external IPs are distinct, and each routes to its own clone.
        let mut seen = std::collections::HashSet::new();
        for (ns, ext) in &externals {
            prop_assert!(seen.insert(*ext));
            let d = net.deliver(*ext, 500).expect("delivers");
            prop_assert_eq!(d.ns, *ns);
            prop_assert_eq!(d.guest_ip, GUEST_IP);
        }
        prop_assert_eq!(net.namespace_count(), n + 1); // + root
    }

    /// Without namespaces, at most one clone can attach; every further
    /// attach conflicts regardless of how many are tried.
    #[test]
    fn clones_without_namespaces_conflict(n in 2usize..20) {
        let mut net = net();
        net.attach_tap(ROOT_NS, "tap0", GUEST_IP, GUEST_MAC).expect("first");
        for _ in 1..n {
            prop_assert!(matches!(
                net.attach_tap(ROOT_NS, "tap0", GUEST_IP, GUEST_MAC),
                Err(NetError::Conflict(_))
            ));
        }
    }

    /// Destroying namespaces releases their routes; the rest keep working.
    #[test]
    fn destroy_releases_routes(keep_mask in 0u32..256) {
        let mut net = net();
        let mut all = Vec::new();
        for _ in 0..8 {
            let ns = net.create_namespace();
            net.attach_tap(ns, "tap0", GUEST_IP, GUEST_MAC).expect("tap");
            let ext = net.alloc_external_ip(ns).expect("ip");
            net.install_nat(ns, ext, GUEST_IP).expect("nat");
            all.push((ns, ext));
        }
        for (i, (ns, _)) in all.iter().enumerate() {
            if keep_mask & (1 << i) == 0 {
                net.destroy_namespace(*ns).expect("destroys");
            }
        }
        for (i, (ns, ext)) in all.iter().enumerate() {
            let delivery = net.deliver(*ext, 100);
            if keep_mask & (1 << i) == 0 {
                prop_assert!(delivery.is_err(), "destroyed route must be gone");
            } else {
                prop_assert_eq!(delivery.expect("kept route works").ns, *ns);
            }
        }
    }
}
