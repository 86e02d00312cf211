//! Azure-Functions-shaped trace generation at planet scale.
//!
//! Shahrad et al.'s production characterization (the paper's citation
//! 48) established the workload shape every serverless scheduler must
//! survive: thousands of tenants, Zipf-skewed function popularity (a
//! tiny head takes most of the traffic, an enormous tail is called less
//! than once a minute), per-function diurnal rate envelopes, correlated
//! within-tenant bursts, and heavy-tailed (log-normal) execution times.
//! [`TraceSpec`] is a seeded builder for that shape; [`TraceSpec::generate`]
//! produces the merged, time-sorted invocation stream.
//!
//! The generator is minute-bucketed: each function's expected per-minute
//! rate is the product of its Zipf weight, its diurnal envelope, and any
//! burst multiplier covering its tenant at that minute, normalized so
//! the expected event total over the horizon equals
//! [`TraceSpec::total_invocations`] exactly. Realized counts are Poisson
//! draws per (function, minute) from per-function RNG substreams, so the
//! whole trace is a pure function of the spec: same spec → byte-identical
//! events, regardless of how the caller interleaves other RNG use.

use fireworks_core::{fid, FunctionId};
use fireworks_sim::rng::SplitMix64;
use fireworks_sim::Nanos;

/// One generated invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AzureEvent {
    /// Virtual arrival time.
    pub at: Nanos,
    /// The invoked function (interned).
    pub function: FunctionId,
    /// Owning tenant index.
    pub tenant: u32,
    /// Sampled execution time (log-normal, heavy-tailed).
    pub exec: Nanos,
}

/// One burst window: every function of `tenant` runs at `factor`× its
/// base rate for the covered minutes — the correlated-burst shape
/// (a tenant's deploy or fan-out hits all its functions at once).
#[derive(Debug, Clone, Copy)]
struct Burst {
    tenant: u32,
    start_minute: u32,
    end_minute: u32,
    factor: f64,
}

/// Builder for an Azure-shaped trace. Construct with [`TraceSpec::new`],
/// chain the setters, then call [`TraceSpec::generate`].
///
/// ```
/// use fireworks_workloads::azure::TraceSpec;
///
/// let trace = TraceSpec::new()
///     .tenants(50)
///     .functions_per_tenant(4)
///     .total_invocations(2_000)
///     .seed(7)
///     .generate();
/// assert!(!trace.events.is_empty());
/// // Same spec, same bytes.
/// let again = TraceSpec::new()
///     .tenants(50)
///     .functions_per_tenant(4)
///     .total_invocations(2_000)
///     .seed(7)
///     .generate();
/// assert_eq!(trace.events, again.events);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TraceSpec {
    /// Number of tenants.
    pub tenants: u32,
    /// Functions owned by each tenant.
    pub functions_per_tenant: u32,
    /// Zipf skew exponent over the global function population
    /// (1.0 ≈ classic Zipf; higher = more skew).
    pub alpha: f64,
    /// Trace duration.
    pub horizon: Nanos,
    /// Expected total invocation count over the horizon.
    pub total_invocations: u64,
    /// Diurnal envelope amplitude in `[0, 1)`: each function's rate
    /// swings between `1 - amplitude` and `1 + amplitude` of its mean
    /// over [`TraceSpec::diurnal_period`], phase-shifted per function.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal envelope (24 h in production; shorter for
    /// compressed experiments).
    pub diurnal_period: Nanos,
    /// Number of injected burst windows.
    pub bursts: u32,
    /// Rate multiplier inside a burst window.
    pub burst_factor: f64,
    /// Burst window length in minutes.
    pub burst_minutes: u32,
    /// Median execution time (the log-normal's `exp(μ)`).
    pub exec_median: Nanos,
    /// Log-normal shape parameter σ; 1.5–2.5 reproduces the heavy tail
    /// of the Azure duration distribution.
    pub exec_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            tenants: 1_000,
            functions_per_tenant: 4,
            alpha: 1.1,
            horizon: Nanos::from_secs(60 * 60),
            total_invocations: 100_000,
            diurnal_amplitude: 0.6,
            diurnal_period: Nanos::from_secs(60 * 60),
            bursts: 8,
            burst_factor: 12.0,
            burst_minutes: 3,
            exec_median: Nanos::from_millis(40),
            exec_sigma: 1.8,
            seed: 42,
        }
    }
}

impl TraceSpec {
    /// The default spec: 1000 tenants × 4 functions, one-hour horizon,
    /// 100k invocations.
    pub fn new() -> Self {
        TraceSpec::default()
    }

    /// Sets the tenant count.
    pub fn tenants(mut self, tenants: u32) -> Self {
        self.tenants = tenants.max(1);
        self
    }

    /// Sets the functions owned by each tenant.
    pub fn functions_per_tenant(mut self, functions: u32) -> Self {
        self.functions_per_tenant = functions.max(1);
        self
    }

    /// Sets the trace duration.
    pub fn horizon(mut self, horizon: Nanos) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the expected total invocation count.
    pub fn total_invocations(mut self, total: u64) -> Self {
        self.total_invocations = total;
        self
    }

    /// Sets the diurnal envelope (amplitude in `[0, 1)`, period).
    pub fn diurnal(mut self, amplitude: f64, period: Nanos) -> Self {
        self.diurnal_amplitude = amplitude.clamp(0.0, 0.99);
        self.diurnal_period = period;
        self
    }

    /// Sets the correlated-burst injection: `count` windows of
    /// `minutes` length at `factor`× the base rate.
    pub fn burst_injection(mut self, count: u32, factor: f64, minutes: u32) -> Self {
        self.bursts = count;
        self.burst_factor = factor.max(1.0);
        self.burst_minutes = minutes.max(1);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total functions across all tenants.
    pub fn functions(&self) -> u32 {
        self.tenants * self.functions_per_tenant
    }

    /// Whole minutes in the horizon (at least 1).
    pub fn minutes(&self) -> u32 {
        ((self.horizon.as_nanos() / 60_000_000_000).max(1)) as u32
    }

    /// The interned id of function `f` (`0..self.functions()`). Function
    /// `f` belongs to tenant `f % tenants`, so every tenant owns a slice
    /// of the popularity spectrum.
    pub fn function_id(&self, f: u32) -> FunctionId {
        fid(&format!("az-t{}-f{}", f % self.tenants, f / self.tenants))
    }

    /// Expected per-minute event rates, summed over all functions:
    /// `rates()[m]` is the expected number of arrivals in minute `m`.
    /// The vector sums to [`TraceSpec::total_invocations`] exactly (up
    /// to floating-point rounding) — the contract the rate-integration
    /// property test pins down.
    pub fn rates(&self) -> Vec<f64> {
        let minutes = self.minutes() as usize;
        let mut per_minute = vec![0.0f64; minutes];
        self.for_each_intensity(|_, m, lambda| per_minute[m as usize] += lambda);
        per_minute
    }

    /// Generates the trace: time-sorted events, deterministic under the
    /// spec.
    pub fn generate(&self) -> AzureTrace {
        let mut events = Vec::with_capacity(self.total_invocations as usize + 1024);
        let minute = Nanos::from_secs(60);
        let exec_mu = (self.exec_median.as_nanos().max(1) as f64).ln();
        let mut current = u32::MAX;
        let mut rng = SplitMix64::new(0);
        let mut function = fid("az-unreachable");
        let mut tenant = 0u32;
        self.for_each_intensity(|f, m, lambda| {
            if f != current {
                current = f;
                rng = self.stream(f);
                function = self.function_id(f);
                tenant = f % self.tenants;
            }
            let n = poisson(&mut rng, lambda);
            for _ in 0..n {
                let at = minute * m as u64 + minute.scale(rng.next_f64());
                let z = standard_normal(&mut rng);
                let exec_ns = (exec_mu + self.exec_sigma * z).exp();
                events.push(AzureEvent {
                    at,
                    function,
                    tenant,
                    exec: Nanos::from_nanos(exec_ns.clamp(1e3, 3.6e12) as u64),
                });
            }
        });
        events.sort_by_key(|e| (e.at, e.function));
        AzureTrace { events }
    }

    /// Visits every (function, minute) cell in function-major order with
    /// its normalized expected event count. Single source of truth for
    /// both [`TraceSpec::rates`] and [`TraceSpec::generate`].
    fn for_each_intensity(&self, mut visit: impl FnMut(u32, u32, f64)) {
        let functions = self.functions();
        let minutes = self.minutes();
        let bursts = self.burst_windows();
        let weights: Vec<f64> = (0..functions)
            .map(|f| 1.0 / (f as f64 + 1.0).powf(self.alpha))
            .collect();
        // First pass: the unnormalized intensity mass, so the second
        // pass can scale every cell to hit the spec's total exactly.
        let mut mass = 0.0f64;
        for f in 0..functions {
            for m in 0..minutes {
                mass += weights[f as usize] * self.envelope(f, m, &bursts);
            }
        }
        if mass <= 0.0 {
            return;
        }
        let scale = self.total_invocations as f64 / mass;
        for f in 0..functions {
            for m in 0..minutes {
                visit(
                    f,
                    m,
                    weights[f as usize] * self.envelope(f, m, &bursts) * scale,
                );
            }
        }
    }

    /// Diurnal × burst multiplier for function `f` at minute `m`.
    fn envelope(&self, f: u32, m: u32, bursts: &[Burst]) -> f64 {
        let period_min = (self.diurnal_period.as_secs_f64() / 60.0).max(1.0);
        // Per-function phase: functions don't peak in lockstep.
        let phase = (f as f64 * 0.618_033_988_749_895).fract();
        let angle = std::f64::consts::TAU * (m as f64 / period_min + phase);
        let mut v = 1.0 + self.diurnal_amplitude * angle.sin();
        let tenant = f % self.tenants;
        for b in bursts {
            if b.tenant == tenant && m >= b.start_minute && m < b.end_minute {
                v *= b.factor;
            }
        }
        v
    }

    /// The burst windows, drawn from a dedicated RNG substream.
    fn burst_windows(&self) -> Vec<Burst> {
        let mut rng = SplitMix64::new(self.seed ^ 0xB0B5_7B0B_57B0_B57B);
        let minutes = self.minutes();
        (0..self.bursts)
            .map(|_| {
                let start = rng.next_below(minutes as u64) as u32;
                Burst {
                    tenant: rng.next_below(self.tenants as u64) as u32,
                    start_minute: start,
                    end_minute: (start + self.burst_minutes).min(minutes),
                    factor: self.burst_factor,
                }
            })
            .collect()
    }

    /// The per-function RNG substream: splits the seed so a function's
    /// draws are independent of every other function's.
    fn stream(&self, f: u32) -> SplitMix64 {
        SplitMix64::new(self.seed ^ (f as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A generated trace: the time-sorted event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct AzureTrace {
    /// Events sorted by `(at, function)`.
    pub events: Vec<AzureEvent>,
}

impl AzureTrace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A compact deterministic fingerprint of the full event stream —
    /// what the byte-identity tests and the CI two-run diff compare.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the raw event words.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                // Not the FNV prime (one zero too many); frozen by goldens.
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for e in &self.events {
            mix(e.at.as_nanos());
            mix(e.function.raw() as u64);
            mix(e.exec.as_nanos());
        }
        h
    }
}

/// Poisson draw: Knuth's product method for small λ, halved recursively
/// for large λ (exact in distribution, bounded work per draw).
fn poisson(rng: &mut SplitMix64, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let half = lambda / 2.0;
        return poisson(rng, half) + poisson(rng, half);
    }
    let limit = (-lambda).exp();
    let mut product = rng.next_f64();
    let mut count = 0u64;
    while product > limit {
        count += 1;
        product *= rng.next_f64();
    }
    count
}

/// Standard normal draw via Box–Muller.
fn standard_normal(rng: &mut SplitMix64) -> f64 {
    let u1 = rng.next_f64().max(1e-12);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> TraceSpec {
        TraceSpec::new()
            .tenants(40)
            .functions_per_tenant(3)
            .total_invocations(5_000)
            .horizon(Nanos::from_secs(20 * 60))
            .seed(11)
    }

    #[test]
    fn same_spec_generates_byte_identical_traces() {
        let a = small_spec().generate();
        let b = small_spec().generate();
        assert_eq!(a.events, b.events, "same spec must give the same bytes");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_spec().generate();
        let b = small_spec().seed(12).generate();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn events_are_sorted_and_inside_the_horizon() {
        let spec = small_spec();
        let t = spec.generate();
        assert!(t.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(t.events.iter().all(|e| e.at < spec.horizon));
    }

    #[test]
    fn per_minute_rates_integrate_to_the_spec_total() {
        // The normalization contract: expected rates sum to the spec's
        // total exactly (up to float rounding)...
        let spec = small_spec();
        let rates = spec.rates();
        assert_eq!(rates.len(), spec.minutes() as usize);
        let expected: f64 = rates.iter().sum();
        let total = spec.total_invocations as f64;
        assert!(
            (expected - total).abs() < 1e-6 * total,
            "expected rates sum {expected}, spec total {total}"
        );
        // ...and the realized Poisson count lands within 5σ of it.
        let realized = spec.generate().len() as f64;
        let tolerance = 5.0 * total.sqrt();
        assert!(
            (realized - total).abs() < tolerance,
            "realized {realized} vs expected {total} (±{tolerance})"
        );
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let spec = small_spec();
        let t = spec.generate();
        let head = spec.function_id(0);
        let tail = spec.function_id(spec.functions() - 1);
        let head_n = t.events.iter().filter(|e| e.function == head).count();
        let tail_n = t.events.iter().filter(|e| e.function == tail).count();
        assert!(
            head_n > 10 * tail_n.max(1),
            "head {head_n} must dwarf tail {tail_n}"
        );
    }

    #[test]
    fn exec_times_are_heavy_tailed() {
        let spec = small_spec();
        let t = spec.generate();
        let mut execs: Vec<u64> = t.events.iter().map(|e| e.exec.as_nanos()).collect();
        execs.sort_unstable();
        let p50 = execs[execs.len() / 2];
        let p99 = execs[execs.len() * 99 / 100];
        // Log-normal with σ=1.8: p99/p50 = exp(2.326σ) ≈ 66.
        assert!(
            p99 > 10 * p50,
            "p99 {p99} must dwarf p50 {p50} for a heavy tail"
        );
    }

    #[test]
    fn bursts_concentrate_tenant_traffic() {
        let calm = small_spec().burst_injection(0, 1.0, 1);
        let stormy = small_spec().burst_injection(6, 25.0, 3);
        // Peak minute share of the busiest minute must rise under bursts.
        let share = |spec: &TraceSpec| {
            let t = spec.generate();
            let mut per_minute = vec![0usize; spec.minutes() as usize];
            for e in &t.events {
                per_minute[(e.at.as_nanos() / 60_000_000_000) as usize] += 1;
            }
            *per_minute.iter().max().unwrap() as f64 / t.len() as f64
        };
        assert!(
            share(&stormy) > share(&calm),
            "burst injection must sharpen the peak minute"
        );
    }
}
