//! Deterministic arrival schedules for the concurrent invocation engine.
//!
//! The load experiments drive a [`fireworks_core::engine::Engine`]
//! with open-loop request schedules: arrivals land whether or not earlier
//! requests finished, which is what exposes queueing delay and memory
//! pressure. Every schedule here is a pure function of its seed, so
//! same-seed runs are byte-identical.

use fireworks_core::api::InvokeRequest;
use fireworks_core::engine::EngineRequest;
use fireworks_core::FunctionId;
use fireworks_lang::Value;
use fireworks_sim::rng::SplitMix64;
use fireworks_sim::Nanos;

/// A Poisson-like open-loop schedule: exponential inter-arrival times
/// with the given mean, each request picking uniformly from `mix`
/// (interned function id plus its request arguments).
///
/// # Panics
///
/// Panics if `mix` is empty.
pub fn poisson_schedule(
    seed: u64,
    count: usize,
    mean_inter_arrival: Nanos,
    mix: &[(FunctionId, Value)],
) -> Vec<EngineRequest> {
    assert!(!mix.is_empty(), "need at least one function in the mix");
    let mut rng = SplitMix64::new(seed);
    let mut t = Nanos::ZERO;
    (0..count)
        .map(|_| {
            // Inverse-CDF sample of Exp(1/mean): -ln(U) * mean.
            let u = rng.next_f64().max(1e-12);
            t += mean_inter_arrival.scale(-u.ln());
            let (function, args) = &mix[rng.next_below(mix.len() as u64) as usize];
            EngineRequest::at(t, InvokeRequest::new(*function, args.deep_clone()))
        })
        .collect()
}

/// A flash-crowd schedule: Poisson arrivals whose mean inter-arrival
/// time drops from `base_mean` to `crowd_mean` inside the window
/// `[crowd_start, crowd_end)` and recovers afterwards — the classic
/// elasticity stressor (a quiet service suddenly trending). The draw
/// sequence is identical to [`poisson_schedule`]; only the mean is
/// piecewise, so same-seed runs stay byte-identical.
///
/// # Panics
///
/// Panics if `mix` is empty or `crowd_end < crowd_start`.
pub fn flash_crowd(
    seed: u64,
    count: usize,
    base_mean: Nanos,
    crowd_mean: Nanos,
    crowd_start: Nanos,
    crowd_end: Nanos,
    mix: &[(FunctionId, Value)],
) -> Vec<EngineRequest> {
    assert!(!mix.is_empty(), "need at least one function in the mix");
    assert!(crowd_start <= crowd_end, "crowd window must be ordered");
    let mut rng = SplitMix64::new(seed);
    let mut t = Nanos::ZERO;
    (0..count)
        .map(|_| {
            let mean = if t >= crowd_start && t < crowd_end {
                crowd_mean
            } else {
                base_mean
            };
            let u = rng.next_f64().max(1e-12);
            t += mean.scale(-u.ln());
            let (function, args) = &mix[rng.next_below(mix.len() as u64) as usize];
            EngineRequest::at(t, InvokeRequest::new(*function, args.deep_clone()))
        })
        .collect()
}

/// A burst of `count` simultaneous arrivals of one function at `at` —
/// the shape of the paper's density experiments (§5.4), where N clones
/// must coexist.
pub fn burst(function: FunctionId, args: &Value, count: usize, at: Nanos) -> Vec<EngineRequest> {
    (0..count)
        .map(|_| EngineRequest::at(at, InvokeRequest::new(function, args.deep_clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_core::fid;

    fn mix() -> Vec<(FunctionId, Value)> {
        vec![
            (fid("alpha"), Value::Int(1)),
            (fid("beta"), Value::Int(2)),
            (fid("gamma"), Value::Int(3)),
        ]
    }

    #[test]
    fn schedules_are_sorted_and_deterministic() {
        let a = poisson_schedule(11, 200, Nanos::from_millis(10), &mix());
        let b = poisson_schedule(11, 200, Nanos::from_millis(10), &mix());
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.arrival == y.arrival && x.invoke.function == y.invoke.function));
    }

    #[test]
    fn different_seeds_differ() {
        let a = poisson_schedule(1, 50, Nanos::from_millis(10), &mix());
        let b = poisson_schedule(2, 50, Nanos::from_millis(10), &mix());
        assert!(a.iter().zip(&b).any(|(x, y)| x.arrival != y.arrival));
    }

    #[test]
    fn the_mix_is_covered() {
        let sched = poisson_schedule(5, 300, Nanos::from_millis(1), &mix());
        for (function, _) in mix() {
            assert!(
                sched.iter().any(|r| r.invoke.function == function),
                "{} never drawn",
                function.name()
            );
        }
    }

    #[test]
    fn flash_crowd_densifies_inside_the_window() {
        let base = Nanos::from_millis(10);
        let crowd = Nanos::from_millis(1);
        let start = Nanos::from_millis(200);
        let end = Nanos::from_millis(400);
        let sched = flash_crowd(9, 400, base, crowd, start, end, &mix());
        assert!(sched.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let inside = sched
            .iter()
            .filter(|r| r.arrival >= start && r.arrival < end)
            .count();
        let before = sched.iter().filter(|r| r.arrival < start).count();
        // The crowd window is 10x denser than the quiet period; with a
        // 20x longer quiet span before it, the window should still hold
        // a clear majority of arrivals that land near it.
        assert!(
            inside > before,
            "crowd window must dominate: {inside} vs {before}"
        );
        // Determinism: same seed, same bytes.
        let again = flash_crowd(9, 400, base, crowd, start, end, &mix());
        assert!(sched
            .iter()
            .zip(&again)
            .all(|(x, y)| x.arrival == y.arrival && x.invoke.function == y.invoke.function));
    }

    #[test]
    fn flash_crowd_with_equal_means_matches_poisson() {
        let mean = Nanos::from_millis(5);
        let a = flash_crowd(3, 100, mean, mean, Nanos::ZERO, Nanos::ZERO, &mix());
        let b = poisson_schedule(3, 100, mean, &mix());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.arrival == y.arrival && x.invoke.function == y.invoke.function));
    }

    #[test]
    fn bursts_are_simultaneous() {
        let b = burst(fid("f"), &Value::Int(7), 12, Nanos::from_millis(3));
        assert_eq!(b.len(), 12);
        assert!(b.iter().all(|r| r.arrival == Nanos::from_millis(3)));
        assert!(b.iter().all(|r| r.invoke.args == Value::Int(7)));
    }
}
