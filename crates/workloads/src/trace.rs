//! Invocation-trace generation in the style of Shahrad et al.'s Azure
//! analysis (the paper's citation 48): function popularity is heavily
//! skewed — a small head is called many times a minute, a long tail less
//! than once a minute — which is the §2.2 argument against warm pools.

use fireworks_sim::rng::SplitMix64;
use fireworks_sim::Nanos;

/// One invocation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual arrival time.
    pub at: Nanos,
    /// Index of the invoked function.
    pub function: usize,
}

/// Configuration of a Zipf-popularity Poisson trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of distinct functions.
    pub functions: usize,
    /// Total trace duration.
    pub horizon: Nanos,
    /// Expected total number of invocations over the horizon.
    pub total_events: usize,
    /// Zipf skew exponent (1.0 ≈ classic Zipf; higher = more skew).
    pub alpha: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            functions: 24,
            horizon: Nanos::from_secs(30 * 60),
            total_events: 400,
            alpha: 1.0,
            seed: 7,
        }
    }
}

/// Per-function mean arrival rates (events per horizon), Zipf-weighted to
/// sum to `total_events`.
fn zipf_rates(cfg: &TraceConfig) -> Vec<f64> {
    let weights: Vec<f64> = (0..cfg.functions)
        .map(|i| 1.0 / (i as f64 + 1.0).powf(cfg.alpha))
        .collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| w / total * cfg.total_events as f64)
        .collect()
}

/// Generates the merged trace: each function is an independent Poisson
/// process at its Zipf rate; events are merged and sorted. Deterministic
/// under the seed.
pub fn generate(cfg: &TraceConfig) -> Vec<TraceEvent> {
    let mut rng = SplitMix64::new(cfg.seed);
    let rates = zipf_rates(cfg);
    let mut events = Vec::with_capacity(cfg.total_events + cfg.functions);
    for (function, expected) in rates.iter().enumerate() {
        if *expected <= 0.0 {
            continue;
        }
        let mean_gap = cfg.horizon.scale(1.0 / expected);
        let mut t = Nanos::ZERO;
        loop {
            let u = rng.next_f64().max(1e-12);
            t += mean_gap.scale(-u.ln());
            if t >= cfg.horizon {
                break;
            }
            events.push(TraceEvent { at: t, function });
        }
    }
    events.sort_by_key(|e| (e.at, e.function));
    events
}

/// Fraction of functions whose mean inter-arrival exceeds one minute —
/// the paper's "81.4% of functions are called less than once a minute".
pub fn unpopular_fraction(cfg: &TraceConfig) -> f64 {
    let per_minute_budget = cfg.horizon.as_secs_f64() / 60.0;
    let unpopular = zipf_rates(cfg)
        .iter()
        .filter(|rate| **rate < per_minute_budget)
        .count();
    unpopular as f64 / cfg.functions as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_sorted_and_deterministic() {
        let cfg = TraceConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(!a.is_empty());
        assert!(a.iter().all(|e| e.at < cfg.horizon));
    }

    #[test]
    fn event_count_is_near_target() {
        let cfg = TraceConfig {
            total_events: 1_000,
            ..TraceConfig::default()
        };
        let n = generate(&cfg).len();
        assert!((700..1_300).contains(&n), "expected ≈1000 events, got {n}");
    }

    #[test]
    fn popularity_is_skewed() {
        let cfg = TraceConfig {
            total_events: 2_000,
            ..TraceConfig::default()
        };
        let events = generate(&cfg);
        let mut counts = vec![0usize; cfg.functions];
        for e in &events {
            counts[e.function] += 1;
        }
        // The most popular function dominates the least popular by a lot.
        assert!(counts[0] > 10 * counts[cfg.functions - 1].max(1));
        // And the head (top quarter) carries the majority of traffic.
        let head: usize = counts.iter().take(cfg.functions / 4).sum();
        assert!(head * 2 > events.len());
    }

    #[test]
    fn unpopular_fraction_matches_shahrad_shape() {
        // With enough functions and a realistic budget, most functions
        // fall below once-a-minute — the paper's 81.4% figure.
        let cfg = TraceConfig {
            functions: 200,
            total_events: 3_000,
            horizon: Nanos::from_secs(30 * 60),
            ..TraceConfig::default()
        };
        let f = unpopular_fraction(&cfg);
        assert!(f > 0.6, "unpopular fraction {f}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TraceConfig::default());
        let b = generate(&TraceConfig {
            seed: 8,
            ..TraceConfig::default()
        });
        assert_ne!(a, b);
    }
}
