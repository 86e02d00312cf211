//! The paper's latency categories.
//!
//! The latency figures (Fig. 6/7/9) split end-to-end latency into
//! *start-up*, *exec*, and *others*. Spans recorded on the `obs`
//! recorder carry a [`Phase`]; folding an invocation's span subtree
//! yields its [`Breakdown`].

use crate::time::Nanos;

/// The latency category a span belongs to, matching the paper's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Time from invocation until the function body is entered: sandbox
    /// creation/restore, runtime launch, code load.
    Startup,
    /// Time spent executing the function body.
    Exec,
    /// Everything else: network hops, parameter passing, response delivery.
    Other,
}

/// The start-up / exec / others latency split used in Figs. 6, 7 and 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Total start-up time.
    pub startup: Nanos,
    /// Total function execution time.
    pub exec: Nanos,
    /// Everything else.
    pub other: Nanos,
}

impl Breakdown {
    /// End-to-end latency.
    pub fn total(&self) -> Nanos {
        self.startup + self.exec + self.other
    }

    /// Component-wise sum of two breakdowns.
    pub fn merge(&self, other: &Breakdown) -> Breakdown {
        Breakdown {
            startup: self.startup + other.startup,
            exec: self.exec + other.exec,
            other: self.other + other.other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_combines_components() {
        let a = Breakdown {
            startup: Nanos::from_millis(1),
            exec: Nanos::from_millis(2),
            other: Nanos::from_millis(3),
        };
        let b = a.merge(&a);
        assert_eq!(b.total(), Nanos::from_millis(12));
    }
}
