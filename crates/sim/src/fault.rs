//! Deterministic fault injection.
//!
//! A [`FaultPlan`] names *fault sites* — places in the platform where the
//! real system can fail (snapshot reads, restored pages, VM boots, the
//! document store, the network) — and arms each with a trigger: a
//! probability per check, or a specific nth occurrence. A
//! [`FaultInjector`] executes the plan with the workspace's
//! [`SplitMix64`] generator, so the injected-fault
//! schedule is a pure function of the plan's seed and the sequence of
//! checks the platform performs: the same seed replays the same faults.
//!
//! Every injected fault is appended to a log with its virtual instant;
//! platforms drain the log ([`FaultInjector::drain_fired`]) into
//! `fault:<site>` instants on the `obs` recorder, so recovery behaviour
//! is observable on the same timeline that carries the latency
//! breakdowns.

use std::cell::RefCell;
use std::rc::Rc;

use crate::clock::Clock;
use crate::hash;
use crate::rng::SplitMix64;
use crate::time::Nanos;

/// A place in the platform where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// I/O error while reading a snapshot file for restore/prefetch.
    SnapshotRead,
    /// Bit-rot in a stored snapshot page (detected via checksums).
    SnapshotCorruption,
    /// The VM crashes during boot or restore.
    VmCrash,
    /// The document store is transiently unavailable.
    StoreUnavailable,
    /// A delivered packet is dropped by the host network.
    NetLoss,
    /// An entire host drops out of the cluster (crash, power loss, or a
    /// network partition that fences it). Checked by the cluster layer at
    /// host service boundaries; a firing drains and re-routes that host's
    /// queue.
    HostCrash,
    /// A draining host dies before its drain completes: in-flight work
    /// and any unfinished snapshot hand-off are abandoned and the
    /// control plane must degrade to hard removal with rerouting.
    DrainInterrupt,
    /// A drain-time snapshot migration stalls mid-transfer (donor-side
    /// wedge); the receiving host must retry with backoff on another
    /// donor or fall back to rebuild-from-source.
    MigrationStall,
    /// A scale-up host fails to boot: the control plane must retry the
    /// boot or re-queue admissions that were waiting on the new
    /// capacity.
    ScaleUpFail,
}

impl FaultSite {
    /// Every site, in a fixed order (indexes the injector's counters).
    pub const ALL: [FaultSite; 9] = [
        FaultSite::SnapshotRead,
        FaultSite::SnapshotCorruption,
        FaultSite::VmCrash,
        FaultSite::StoreUnavailable,
        FaultSite::NetLoss,
        FaultSite::HostCrash,
        FaultSite::DrainInterrupt,
        FaultSite::MigrationStall,
        FaultSite::ScaleUpFail,
    ];

    /// Stable label used in trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::SnapshotRead => "snapshot_read",
            FaultSite::SnapshotCorruption => "snapshot_corruption",
            FaultSite::VmCrash => "vm_crash",
            FaultSite::StoreUnavailable => "store_unavailable",
            FaultSite::NetLoss => "net_loss",
            FaultSite::HostCrash => "host_crash",
            FaultSite::DrainInterrupt => "drain_interrupt",
            FaultSite::MigrationStall => "migration_stall",
            FaultSite::ScaleUpFail => "scale_up_fail",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::SnapshotRead => 0,
            FaultSite::SnapshotCorruption => 1,
            FaultSite::VmCrash => 2,
            FaultSite::StoreUnavailable => 3,
            FaultSite::NetLoss => 4,
            FaultSite::HostCrash => 5,
            FaultSite::DrainInterrupt => 6,
            FaultSite::MigrationStall => 7,
            FaultSite::ScaleUpFail => 8,
        }
    }
}

/// When an armed site actually fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// Fires independently on each check with this probability.
    Probability(f64),
    /// Fires exactly once, on the nth check of the site (1-based).
    Nth(u64),
}

/// One armed fault site.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Where the fault strikes.
    pub site: FaultSite,
    /// When it strikes.
    pub trigger: FaultTrigger,
}

/// A seeded description of which faults to inject.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's RNG (probability triggers).
    pub seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Arms `site` to fire with probability `p` on every check.
    pub fn probability(mut self, site: FaultSite, p: f64) -> Self {
        self.rules.push(FaultRule {
            site,
            trigger: FaultTrigger::Probability(p),
        });
        self
    }

    /// Arms `site` to fire exactly once, on its nth check (1-based).
    pub fn nth(mut self, site: FaultSite, n: u64) -> Self {
        self.rules.push(FaultRule {
            site,
            trigger: FaultTrigger::Nth(n),
        });
        self
    }

    /// Arms *every* site with the same probability — the chaos-sweep
    /// configuration.
    pub fn uniform(seed: u64, p: f64) -> Self {
        let mut plan = FaultPlan::new(seed);
        for site in FaultSite::ALL {
            plan = plan.probability(site, p);
        }
        plan
    }

    /// The armed rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }
}

/// One fault that actually fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Which site fired.
    pub site: FaultSite,
    /// The site-local check count when it fired (1-based).
    pub occurrence: u64,
    /// The global check count when it fired (1-based).
    pub sequence: u64,
    /// Virtual time of the injection (zero when no clock is attached).
    pub at: Nanos,
}

/// Executes a [`FaultPlan`]: the platform asks `should_fail(site)` at each
/// fault site, and the injector answers deterministically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    occurrences: [u64; FaultSite::ALL.len()],
    checks: u64,
    injected: Vec<InjectedFault>,
    /// How many of `injected` [`FaultInjector::drain_fired`] has handed out.
    drained: usize,
    clock: Option<Clock>,
}

impl FaultInjector {
    /// An injector executing `plan` from its seed.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        FaultInjector {
            plan,
            rng,
            occurrences: [0; FaultSite::ALL.len()],
            checks: 0,
            injected: Vec::new(),
            drained: 0,
            clock: None,
        }
    }

    /// An injector with no armed sites (never fires).
    pub fn disabled() -> Self {
        FaultInjector::new(FaultPlan::new(0))
    }

    /// Attaches the virtual clock so injected faults are timestamped at
    /// the moment they fire.
    pub fn attach_clock(&mut self, clock: Clock) {
        self.clock = Some(clock);
    }

    /// Whether any rule is armed (cheap fast-path check).
    pub fn is_active(&self) -> bool {
        !self.plan.rules.is_empty()
    }

    /// Checks the site once; returns `true` when a fault fires there.
    ///
    /// Each probability-armed rule consumes exactly one RNG draw per
    /// check, so the schedule depends only on the seed and the sequence
    /// of checks — not on wall clock, addresses, or iteration order
    /// elsewhere.
    pub fn should_fail(&mut self, site: FaultSite) -> bool {
        self.checks += 1;
        self.occurrences[site.index()] += 1;
        let occurrence = self.occurrences[site.index()];
        let mut fired = false;
        for rule in &self.plan.rules {
            if rule.site != site {
                continue;
            }
            match rule.trigger {
                FaultTrigger::Probability(p) => {
                    if self.rng.next_bool(p) {
                        fired = true;
                    }
                }
                FaultTrigger::Nth(n) => {
                    if occurrence == n {
                        fired = true;
                    }
                }
            }
        }
        if fired {
            let at = self.clock.as_ref().map(Clock::now).unwrap_or(Nanos::ZERO);
            self.injected.push(InjectedFault {
                site,
                occurrence,
                sequence: self.checks,
                at,
            });
        }
        fired
    }

    /// Every fault injected so far, in firing order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }

    /// Number of faults injected at `site` so far.
    pub fn injected_at(&self, site: FaultSite) -> usize {
        self.injected.iter().filter(|f| f.site == site).count()
    }

    /// Total site checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// The faults fired since the previous call, in firing order.
    /// Platforms surface them as `fault:<site>` instants on the
    /// invocation that was running (or runs next).
    pub fn drain_fired(&mut self) -> &[InjectedFault] {
        let fired = &self.injected[self.drained..];
        self.drained = self.injected.len();
        fired
    }

    /// A digest of the injected-fault schedule: two runs with the same
    /// plan and check sequence produce the same fingerprint.
    pub fn schedule_fingerprint(&self) -> u64 {
        self.injected.iter().fold(hash::OFFSET, |h, f| {
            let h = hash::mix(h, f.site.index() as u64);
            hash::mix(hash::mix(h, f.occurrence), f.sequence)
        })
    }
}

/// A shareable injector handle: the platform, the store, the network, and
/// the VM manager all consult the same injector state.
pub type SharedInjector = Rc<RefCell<FaultInjector>>;

/// Wraps an injector for sharing across subsystems.
pub fn shared(injector: FaultInjector) -> SharedInjector {
    Rc::new(RefCell::new(injector))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let mut inj = FaultInjector::disabled();
        for _ in 0..1000 {
            for site in FaultSite::ALL {
                assert!(!inj.should_fail(site));
            }
        }
        assert!(inj.injected().is_empty());
        assert!(!inj.is_active());
    }

    #[test]
    fn probability_zero_never_fires_but_still_draws() {
        let mut armed = FaultInjector::new(FaultPlan::uniform(9, 0.0));
        assert!(armed.is_active());
        for _ in 0..500 {
            assert!(!armed.should_fail(FaultSite::NetLoss));
        }
        assert!(armed.injected().is_empty());
    }

    #[test]
    fn nth_trigger_fires_exactly_once_at_the_nth_check() {
        let mut inj = FaultInjector::new(FaultPlan::new(1).nth(FaultSite::SnapshotRead, 3));
        let fired: Vec<bool> = (0..6)
            .map(|_| inj.should_fail(FaultSite::SnapshotRead))
            .collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(inj.injected().len(), 1);
        assert_eq!(inj.injected()[0].occurrence, 3);
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::uniform(1234, 0.2);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for i in 0..400 {
            let site = FaultSite::ALL[i % FaultSite::ALL.len()];
            assert_eq!(a.should_fail(site), b.should_fail(site));
        }
        assert_eq!(a.injected(), b.injected());
        assert_eq!(a.schedule_fingerprint(), b.schedule_fingerprint());
        assert!(!a.injected().is_empty(), "rate 0.2 must fire in 400 checks");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultInjector::new(FaultPlan::uniform(1, 0.3));
        let mut b = FaultInjector::new(FaultPlan::uniform(2, 0.3));
        for _ in 0..200 {
            a.should_fail(FaultSite::StoreUnavailable);
            b.should_fail(FaultSite::StoreUnavailable);
        }
        assert_ne!(a.schedule_fingerprint(), b.schedule_fingerprint());
    }

    #[test]
    fn fired_faults_drain_once_with_their_instant() {
        let clock = Clock::new();
        clock.advance(Nanos::from_millis(5));
        let mut inj = FaultInjector::new(FaultPlan::new(0).nth(FaultSite::VmCrash, 1));
        inj.attach_clock(clock.clone());
        assert!(inj.should_fail(FaultSite::VmCrash));
        let fired = inj.drain_fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].site, FaultSite::VmCrash);
        assert_eq!(fired[0].at, Nanos::from_millis(5));
        // Draining hands each fault out once; the cumulative log stays.
        assert!(inj.drain_fired().is_empty());
        assert_eq!(inj.injected().len(), 1);
    }

    #[test]
    fn arming_after_construction_activates_the_site_without_disturbing_others() {
        let plan = FaultPlan::new(42).probability(FaultSite::NetLoss, 0.3);
        let mut inj = FaultInjector::new(plan.clone().nth(FaultSite::StoreUnavailable, 1));
        let mut twin = FaultInjector::new(plan);
        assert!(inj.should_fail(FaultSite::StoreUnavailable));
        // NetLoss draws are unaffected by the extra StoreUnavailable rule.
        for _ in 0..100 {
            assert_eq!(
                inj.should_fail(FaultSite::NetLoss),
                twin.should_fail(FaultSite::NetLoss)
            );
        }
    }

    #[test]
    fn sites_have_independent_occurrence_counters() {
        let mut inj = FaultInjector::new(
            FaultPlan::new(0)
                .nth(FaultSite::NetLoss, 2)
                .nth(FaultSite::StoreUnavailable, 1),
        );
        assert!(inj.should_fail(FaultSite::StoreUnavailable));
        assert!(!inj.should_fail(FaultSite::NetLoss));
        assert!(inj.should_fail(FaultSite::NetLoss));
        assert_eq!(inj.injected_at(FaultSite::NetLoss), 1);
        assert_eq!(inj.injected_at(FaultSite::StoreUnavailable), 1);
    }
}
