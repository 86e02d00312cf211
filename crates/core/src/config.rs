//! Construction-time platform configuration (API v2).
//!
//! The policy an experiment varies — paging, security refresh,
//! snapshot-cache budget and layout, warm-pool keep-alive — is gathered
//! into one [`PlatformConfig`] value consumed when a platform is built.
//! A cluster can therefore stamp out N identically-configured hosts from
//! one config value, and a platform's policy is immutable once it is
//! serving traffic. What no experiment varies is fixed: Fireworks
//! recovers with [`RecoveryPolicy::default`] and launches its runtimes
//! with `JitConfig::default()`.

use fireworks_sim::Nanos;

use crate::audit::SecurityPolicy;

/// Where snapshot pages live when an invocation arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagingPolicy {
    /// Snapshot pages are resident in the host page cache (the paper's
    /// single-host evaluation): restores fault cheaply via CoW.
    WarmPageCache,
    /// Snapshot pages live in cold storage (remote or evicted): first
    /// touches are major faults unless prefetched. The REAP extension
    /// records each function's working set on its first cold invocation
    /// and prefetches it afterwards.
    ColdStorage {
        /// Whether REAP recording/prefetching is enabled.
        reap: bool,
    },
}

/// How a component reacts to infrastructure failures (injected or
/// otherwise): Fireworks' snapshot-restore path always uses the
/// default, the elastic control plane's drain hand-offs take theirs from
/// `ElasticPolicy::migration`.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Boot/restore attempts per invocation, first try included.
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is `backoff_base * 2^(k-1)`,
    /// charged in virtual time and traced as a `recovery_backoff` span.
    pub backoff_base: Nanos,
    /// Consecutive infrastructure failures that open a function's
    /// circuit breaker.
    pub circuit_threshold: u32,
    /// While the breaker is open, invocations fail fast with
    /// [`crate::PlatformError::CircuitOpen`] for this long; the first
    /// attempt after the cooldown is let through (half-open).
    pub circuit_cooldown: Nanos,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            backoff_base: Nanos::from_millis(2),
            circuit_threshold: 3,
            circuit_cooldown: Nanos::from_secs(10),
        }
    }
}

impl RecoveryPolicy {
    /// Backoff charged before retry number `attempt` (1-based).
    pub(crate) fn backoff(&self, attempt: u32) -> Nanos {
        self.backoff_base * (1u64 << u64::from(attempt.saturating_sub(1).min(16)))
    }
}

/// A consecutive-failure circuit breaker driven by [`RecoveryPolicy`]'s
/// `circuit_threshold` and `circuit_cooldown`: the platform keeps one
/// per function for restores, the elastic control plane one per function
/// for drain hand-offs and one for scale-up boots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breaker {
    /// Failures since the last success.
    pub consecutive: u32,
    /// When the breaker half-opens, if it has opened.
    pub open_until: Option<Nanos>,
}

impl Breaker {
    /// Whether attempts are refused at `now`; past the cooldown one is
    /// let through (half-open) and either resets or re-opens it.
    pub fn is_open(&self, now: Nanos) -> bool {
        self.open_until.is_some_and(|t| now < t)
    }

    /// Counts a failure at `now`; the breaker opens once the streak
    /// reaches the threshold.
    pub fn failure(&mut self, now: Nanos, policy: &RecoveryPolicy) {
        self.consecutive += 1;
        if self.consecutive >= policy.circuit_threshold {
            self.open_until = Some(now + policy.circuit_cooldown);
        }
    }

    /// A success closes the breaker and resets the streak.
    pub fn success(&mut self) {
        *self = Breaker::default();
    }
}

/// How a host stores the post-JIT snapshots it caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotStorePolicy {
    /// Each cached snapshot owns its bytes (the original single-host
    /// layout): the cache budget is charged per snapshot file, and a
    /// remote miss rebuilds from source.
    Flat,
    /// Snapshots are chunked content-addressed into a per-host
    /// [`fireworks_store::ChunkStore`]: identical chunks across
    /// functions are stored once, the cache budget is charged *unique*
    /// chunk bytes, and (with `delta_fetch`) a host missing a snapshot
    /// fetches only the chunks it lacks from a peer instead of
    /// rebuilding from source.
    Dedup {
        /// Chunk granularity in pages (fixed-size runs of the
        /// snapshot's frame list).
        chunk_pages: usize,
        /// Whether remote misses are served by peer-to-peer chunk
        /// transfer when a peer holds the snapshot.
        delta_fetch: bool,
    },
}

impl SnapshotStorePolicy {
    /// Default chunk granularity: 64 pages (256 KiB) balances dedup
    /// resolution against manifest size.
    pub const DEFAULT_CHUNK_PAGES: usize = 64;

    /// The dedup policy with default granularity and delta fetch on.
    pub fn dedup() -> Self {
        SnapshotStorePolicy::Dedup {
            chunk_pages: Self::DEFAULT_CHUNK_PAGES,
            delta_fetch: true,
        }
    }
}

/// Construction-time configuration of a platform.
///
/// Every field has a sensible default; build one with
/// [`PlatformConfig::builder`] (or [`PlatformConfig::default`]) and pass
/// it to the platform's `with_config` constructor. Fields a platform has
/// no mechanism for are ignored there — e.g. the baselines have no
/// post-JIT snapshot cache, and Fireworks has no idle warm pool, so
/// `keep_alive` only matters to the baselines.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Byte budget of the post-JIT snapshot cache (Fireworks). LRU
    /// eviction; a miss rebuilds the snapshot from source. Default:
    /// unlimited.
    pub cache_budget_bytes: u64,
    /// Snapshot paging policy (Fireworks).
    pub paging: PagingPolicy,
    /// Restore-time security policy (Fireworks).
    pub security: SecurityPolicy,
    /// How long an idle warm sandbox is kept before reaping; `None`
    /// keeps it forever. Applies to the baselines' warm pools.
    pub keep_alive: Option<Nanos>,
    /// Snapshot storage layout (Fireworks): flat per-snapshot files or
    /// a content-addressed chunk store with optional peer delta fetch.
    pub snapshot_store: SnapshotStorePolicy,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            cache_budget_bytes: u64::MAX,
            paging: PagingPolicy::WarmPageCache,
            security: SecurityPolicy::default(),
            keep_alive: None,
            snapshot_store: SnapshotStorePolicy::Flat,
        }
    }
}

impl PlatformConfig {
    /// Starts a builder with the defaults.
    pub fn builder() -> PlatformConfigBuilder {
        PlatformConfigBuilder {
            config: PlatformConfig::default(),
        }
    }
}

/// Builder for [`PlatformConfig`].
#[derive(Debug, Clone)]
pub struct PlatformConfigBuilder {
    config: PlatformConfig,
}

impl PlatformConfigBuilder {
    /// Sets the snapshot-cache byte budget.
    pub fn cache_budget(mut self, bytes: u64) -> Self {
        self.config.cache_budget_bytes = bytes;
        self
    }

    /// Sets the paging policy.
    pub fn paging(mut self, paging: PagingPolicy) -> Self {
        self.config.paging = paging;
        self
    }

    /// Sets the security policy.
    pub fn security(mut self, security: SecurityPolicy) -> Self {
        self.config.security = security;
        self
    }

    /// Sets the warm-pool keep-alive.
    pub fn keep_alive(mut self, keep_alive: Option<Nanos>) -> Self {
        self.config.keep_alive = keep_alive;
        self
    }

    /// Sets the snapshot storage layout.
    pub fn snapshot_store(mut self, policy: SnapshotStorePolicy) -> Self {
        self.config.snapshot_store = policy;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> PlatformConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_every_field() {
        let security = SecurityPolicy {
            refresh_after_invocations: 11,
        };
        let cfg = PlatformConfig::builder()
            .cache_budget(123)
            .paging(PagingPolicy::ColdStorage { reap: true })
            .security(security)
            .keep_alive(Some(Nanos::from_secs(60)))
            .snapshot_store(SnapshotStorePolicy::Dedup {
                chunk_pages: 32,
                delta_fetch: false,
            })
            .build();
        assert_eq!(cfg.cache_budget_bytes, 123);
        assert_eq!(cfg.paging, PagingPolicy::ColdStorage { reap: true });
        assert_eq!(cfg.security.refresh_after_invocations, 11);
        assert_eq!(cfg.keep_alive, Some(Nanos::from_secs(60)));
        assert_eq!(
            cfg.snapshot_store,
            SnapshotStorePolicy::Dedup {
                chunk_pages: 32,
                delta_fetch: false
            }
        );
    }

    #[test]
    fn defaults_are_unlimited_cache_and_no_keep_alive() {
        let cfg = PlatformConfig::default();
        assert_eq!(cfg.cache_budget_bytes, u64::MAX);
        assert!(cfg.keep_alive.is_none());
        assert_eq!(cfg.paging, PagingPolicy::WarmPageCache);
        assert_eq!(cfg.snapshot_store, SnapshotStorePolicy::Flat);
    }

    #[test]
    fn dedup_shorthand_enables_delta_fetch() {
        let SnapshotStorePolicy::Dedup {
            chunk_pages,
            delta_fetch,
        } = SnapshotStorePolicy::dedup()
        else {
            panic!("dedup() must build the dedup variant");
        };
        assert_eq!(chunk_pages, SnapshotStorePolicy::DEFAULT_CHUNK_PAGES);
        assert!(delta_fetch);
    }

    #[test]
    fn breaker_opens_at_threshold_and_resets_on_success() {
        let policy = RecoveryPolicy::default();
        let mut b = Breaker::default();
        let now = Nanos::from_millis(1);
        assert!(!b.is_open(now));
        for _ in 0..policy.circuit_threshold {
            b.failure(now, &policy);
        }
        assert!(b.is_open(now));
        assert!(!b.is_open(now + policy.circuit_cooldown), "half-opens");
        b.success();
        assert!(!b.is_open(now));
        assert_eq!(b.consecutive, 0);
    }

    #[test]
    fn recovery_backoff_doubles_per_attempt() {
        let r = RecoveryPolicy::default();
        assert_eq!(r.backoff(1), r.backoff_base);
        assert_eq!(r.backoff(2), r.backoff_base * 2);
        assert_eq!(r.backoff(3), r.backoff_base * 4);
    }
}
