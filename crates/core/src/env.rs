//! Shared host services for one simulated machine.

use std::cell::RefCell;
use std::rc::Rc;

use fireworks_guestmem::HostMemory;
use fireworks_lang::Value;
use fireworks_msgbus::MessageBus;
use fireworks_netsim::HostNetwork;
use fireworks_obs::{cat, Obs};
use fireworks_sandbox::IoPath;
use fireworks_sim::fault::{self, FaultInjector, FaultPlan, SharedInjector};
use fireworks_sim::{Clock, CostModel};
use fireworks_store::{DocumentStore, StoreCosts};

use crate::host::{GuestHost, NetMode};

/// Host configuration for one experiment.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Physical RAM of the host.
    pub ram_bytes: u64,
    /// Linux `vm.swappiness` (the paper's Fig. 10 uses 60).
    pub swappiness: u8,
    /// Infrastructure cost table.
    pub costs: CostModel,
    /// Faults to inject (empty plan: nothing ever fails).
    pub fault_plan: FaultPlan,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            // A scaled-down host (the paper's testbed has 128 GiB; scaling
            // preserves every ratio while keeping simulations fast — see
            // DESIGN.md).
            ram_bytes: 24 << 30,
            swappiness: 60,
            costs: CostModel::default(),
            fault_plan: FaultPlan::default(),
        }
    }
}

/// The services all platforms on one host share: virtual clock, host
/// memory, the message bus, the document store, and the host network.
///
/// Cloning an env clones handles to the *same* services.
#[derive(Debug, Clone)]
pub struct PlatformEnv {
    /// The host's virtual clock.
    pub clock: Clock,
    /// The cost table.
    pub costs: Rc<CostModel>,
    /// Host physical memory.
    pub host_mem: HostMemory,
    /// Kafka-style message bus (parameter passer substrate).
    pub bus: Rc<RefCell<MessageBus<Value>>>,
    /// CouchDB-style document store.
    pub store: Rc<RefCell<DocumentStore>>,
    /// Host network (namespaces + NAT).
    pub net: Rc<RefCell<HostNetwork>>,
    /// The host's fault injector, shared by the store, the network, and
    /// the VM manager. Disabled (never fires) unless the [`EnvConfig`]
    /// armed a fault plan.
    pub injector: SharedInjector,
    /// The host's observability plane (span recorder + metrics registry),
    /// shared by every service and platform on this host.
    pub obs: Obs,
}

impl PlatformEnv {
    /// Builds the services for one host.
    pub fn new(config: EnvConfig) -> Self {
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        PlatformEnv::with_shared(config, clock, obs)
    }

    /// Builds the services for one host on an *existing* clock and obs
    /// plane. This is how a cluster stamps out per-host environments:
    /// each host gets its own memory, bus, store, network, and fault
    /// injector, but all hosts advance one virtual timeline and emit
    /// into one trace/metrics registry.
    pub fn with_shared(config: EnvConfig, clock: Clock, obs: Obs) -> Self {
        let costs = Rc::new(config.costs);
        let host_mem = HostMemory::with_costs(
            clock.clone(),
            config.ram_bytes,
            config.swappiness,
            costs.mem.clone(),
        );
        let mut inj = FaultInjector::new(config.fault_plan);
        inj.attach_clock(clock.clone());
        let injector = fault::shared(inj);
        let bus = Rc::new(RefCell::new(MessageBus::new(
            clock.clone(),
            costs.bus.clone(),
        )));
        let mut raw_store = DocumentStore::new(clock.clone(), StoreCosts::default());
        raw_store.set_fault_injector(injector.clone());
        raw_store.set_obs(obs.clone());
        let store = Rc::new(RefCell::new(raw_store));
        let mut raw_net = HostNetwork::new(clock.clone(), costs.net.clone());
        raw_net.set_fault_injector(injector.clone());
        raw_net.set_obs(obs.clone());
        let net = Rc::new(RefCell::new(raw_net));
        PlatformEnv {
            clock,
            costs,
            host_mem,
            bus,
            store,
            net,
            injector,
            obs,
        }
    }

    /// A default-configured environment.
    pub fn default_env() -> Self {
        PlatformEnv::new(EnvConfig::default())
    }

    /// An environment with `plan` armed on the shared injector.
    pub fn with_fault_plan(plan: FaultPlan) -> Self {
        PlatformEnv::new(EnvConfig {
            fault_plan: plan,
            ..EnvConfig::default()
        })
    }

    /// The host-call environment of one guest run on this host: disk I/O
    /// charged on `io`, responses in `net_mode`, `default_params` served
    /// by the `default_params` host call.
    pub fn guest_host(&self, io: IoPath, net_mode: NetMode, default_params: Value) -> GuestHost {
        GuestHost::new(
            self.clock.clone(),
            io,
            &self.costs.net,
            net_mode,
            self.costs.microvm.mmds_lookup,
            self.bus.clone(),
            self.store.clone(),
            default_params,
        )
    }

    /// Surfaces every fault the injector fired since the last flush as a
    /// `fault:<site>` instant, stamped with the instant it fired, under
    /// the innermost open span. Platforms call this just before an
    /// invocation's root span closes — failed invocations included — so
    /// recovery is auditable beside the latency spans and no fault bleeds
    /// into the next invocation.
    pub fn flush_faults(&self) {
        let rec = self.obs.recorder();
        for fault in self.injector.borrow_mut().drain_fired() {
            rec.instant_at(
                format!("fault:{}", fault.site.label()),
                cat::FAULT,
                fault.at,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_services() {
        let env = PlatformEnv::default_env();
        let env2 = env.clone();
        env.bus.borrow_mut().produce("t", Value::Int(1), 8);
        assert_eq!(env2.bus.borrow().len("t"), 1);
        let before = env2.clock.now();
        env.clock.advance(fireworks_sim::Nanos::from_millis(5));
        assert_eq!(
            env2.clock.now() - before,
            fireworks_sim::Nanos::from_millis(5)
        );
    }

    #[test]
    fn default_host_matches_fig10_methodology() {
        let cfg = EnvConfig::default();
        assert_eq!(cfg.swappiness, 60);
        assert!(cfg.ram_bytes >= 8 << 30);
    }
}
