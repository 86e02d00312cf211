//! JIT configuration carried from a runtime launch down to the guest VM.
//!
//! [`JitConfig`] bundles every knob that shapes what a post-JIT snapshot
//! captures: the tiering policy, the code-cache byte budget (compiled
//! functions are evicted LRU-first and demoted back to the interpreter
//! when the budget overflows), and the inline-cache polymorphism limit
//! (how many shapes a property-access site tolerates before going
//! megamorphic). It replaces the bare `Option<JitPolicy>` that used to be
//! threaded through `GuestRuntime::launch` / `VmManager::launch_runtime`.

use crate::vm::JitPolicy;

/// Guest-JIT configuration (policy + code-cache budget + IC limits).
///
/// `#[non_exhaustive]`: construct via [`JitConfig::default`] and refine
/// with the `with_*` builders, so adding knobs later is not a breaking
/// change.
///
/// # Examples
///
/// ```
/// use fireworks_lang::{JitConfig, JitPolicy};
///
/// let jit = JitConfig::default()
///     .with_policy(Some(JitPolicy::AnnotatedEager))
///     .with_code_cache_capacity_bytes(1 << 20)
///     .with_ic_poly_limit(2);
/// assert_eq!(jit.policy, Some(JitPolicy::AnnotatedEager));
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitConfig {
    /// Tiering policy. `None` means "use the language-runtime profile's
    /// default policy" (e.g. hot-spot for Node-like, off for Python-like).
    pub policy: Option<JitPolicy>,
    /// Budget for compiled (quickened/optimised) code, in modelled bytes.
    /// When a new compile would overflow it, least-recently-executed
    /// compiled functions are evicted and demoted to the interpreter.
    pub code_cache_capacity_bytes: u64,
    /// Number of distinct shapes an inline-cache site tracks before it
    /// transitions to the megamorphic state (every access a miss).
    pub ic_poly_limit: u8,
    /// Modelled bytes of machine code per compiled bytecode op, used to
    /// cost functions against the cache budget. Runtimes override this
    /// from their profile (`jit_code_bytes_per_op`).
    pub code_bytes_per_op: u64,
}

impl Default for JitConfig {
    fn default() -> JitConfig {
        JitConfig {
            policy: None,
            code_cache_capacity_bytes: 16 << 20,
            ic_poly_limit: 4,
            code_bytes_per_op: 64,
        }
    }
}

impl JitConfig {
    /// Sets the tiering policy (`None` = runtime-profile default).
    pub fn with_policy(mut self, policy: Option<JitPolicy>) -> JitConfig {
        self.policy = policy;
        self
    }

    /// Sets the compiled-code byte budget.
    pub fn with_code_cache_capacity_bytes(mut self, bytes: u64) -> JitConfig {
        self.code_cache_capacity_bytes = bytes;
        self
    }

    /// Sets the inline-cache polymorphism limit (minimum 1).
    pub fn with_ic_poly_limit(mut self, limit: u8) -> JitConfig {
        self.ic_poly_limit = limit.max(1);
        self
    }

    /// Sets the modelled code bytes per compiled op.
    pub fn with_code_bytes_per_op(mut self, bytes: u64) -> JitConfig {
        self.code_bytes_per_op = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_every_knob() {
        let jit = JitConfig::default()
            .with_policy(Some(JitPolicy::Off))
            .with_code_cache_capacity_bytes(4096)
            .with_ic_poly_limit(2)
            .with_code_bytes_per_op(100);
        assert_eq!(jit.policy, Some(JitPolicy::Off));
        assert_eq!(jit.code_cache_capacity_bytes, 4096);
        assert_eq!(jit.ic_poly_limit, 2);
        assert_eq!(jit.code_bytes_per_op, 100);
    }

    #[test]
    fn poly_limit_clamps_to_one() {
        assert_eq!(JitConfig::default().with_ic_poly_limit(0).ic_poly_limit, 1);
    }

    #[test]
    fn default_leaves_policy_to_the_profile() {
        assert_eq!(JitConfig::default().policy, None);
        assert!(JitConfig::default().code_cache_capacity_bytes > 1 << 20);
    }
}
