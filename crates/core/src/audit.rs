//! Security implications of snapshot cloning (paper §6).
//!
//! Clones restored from one snapshot share the guest RNG state and the
//! address-space layout, reducing effective entropy. The paper's
//! mitigations are reseeding the guest RNG from host entropy on restore
//! (cheap, via RDRAND on IvyBridge+, so the platform always does it) and
//! periodically regenerating the snapshot (like REAP), the one policy
//! an experiment varies. That is modelled here as a [`SecurityPolicy`]
//! enforced by the platform and a [`SecurityAudit`] report per function.

use fireworks_sim::Nanos;

/// Mitigation policy for snapshot-clone entropy sharing.
#[derive(Debug, Clone, Copy, Default)]
pub struct SecurityPolicy {
    /// Regenerate the function's snapshot after this many invocations so
    /// clones stop sharing one ASLR layout (0 disables refresh).
    pub refresh_after_invocations: u64,
}

/// Audit report for one installed function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityAudit {
    /// Function name.
    pub function: String,
    /// Clones restored from the current snapshot so far.
    pub clones_from_current_snapshot: u64,
    /// Whether those clones share one address-space layout (true unless a
    /// refresh just happened and no clone was restored since).
    pub shared_aslr_layout: bool,
    /// Snapshot regenerations performed for this function.
    pub refreshes: u64,
    /// Total virtual time spent on refreshes (maintenance, off the
    /// invocation path).
    pub refresh_time: Nanos,
}

impl SecurityAudit {
    /// Whether the configuration leaves a known entropy-sharing exposure.
    pub fn has_findings(&self) -> bool {
        self.shared_aslr_layout && self.clones_from_current_snapshot > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(clones: u64) -> SecurityAudit {
        SecurityAudit {
            function: "f".into(),
            clones_from_current_snapshot: clones,
            shared_aslr_layout: clones > 0,
            refreshes: 0,
            refresh_time: Nanos::ZERO,
        }
    }

    #[test]
    fn single_clone_with_reseed_is_clean() {
        assert!(!audit(1).has_findings());
    }

    #[test]
    fn many_clones_share_aslr() {
        assert!(audit(10).has_findings());
    }
}
