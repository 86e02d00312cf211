//! The platform API shared by Fireworks and the baseline platforms.
//!
//! # API v2
//!
//! Invocations are described by a single [`InvokeRequest`] value — one
//! thing a cluster router can carry, enqueue, and re-route — instead of
//! the positional `(name, args, mode)` triple of v1. Platform-wide
//! policies (recovery, paging, security, cache budget, keep-alive) are
//! consumed at construction via [`crate::config::PlatformConfig`];
//! the post-hoc mutators of v1 are gone.
//!
//! # API v3
//!
//! Function and host names are interned
//! ([`crate::symbols::FunctionId`], [`crate::symbols::HostId`]):
//! [`InvokeRequest::function`] carries an id, the per-function trait
//! methods ([`Platform::evict`], [`ConcurrentPlatform::residency`],
//! [`ConcurrentPlatform::prewarm`], [`ConcurrentPlatform::retire`])
//! take ids, and registries downstream key by id. Strings survive only
//! at the edges: [`FunctionSpec::name`] (the install boundary interns
//! it), error values, metric labels, and exports. The v2
//! string-accepting shims (`by_name`, `evict_named`, and friends) have
//! completed their deprecation cycle and are gone; intern once with
//! [`crate::symbols::fid`] and use the id-keyed methods.

use std::fmt;

use crate::env::PlatformEnv;
use crate::host::GuestHost;
use crate::symbols::{FunctionId, HostId};

use fireworks_lang::{ExecStats, LangError, Value};
use fireworks_microvm::VmError;
use fireworks_msgbus::BusError;
use fireworks_netsim::NetError;
use fireworks_obs::{cat, Breakdown, Phase, Recorder, RootSpan, SpanId};
use fireworks_runtime::guest::InvokeResult;
use fireworks_runtime::{GuestRuntime, RuntimeKind};
use fireworks_sandbox::IsolationLevel;
use fireworks_sim::Nanos;
use fireworks_store::StoreError;

/// Errors from platform operations.
///
/// Marked `#[non_exhaustive]`: new failure modes (cluster placement,
/// deadlines) may be added without a breaking change, so downstream
/// matches need a wildcard arm. Wrapped infrastructure errors are
/// exposed through [`std::error::Error::source`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum PlatformError {
    /// Guest-language error (compile or runtime).
    Lang(LangError),
    /// The function is not installed.
    UnknownFunction(String),
    /// Networking failure.
    Net(NetError),
    /// Message-bus failure.
    Bus(BusError),
    /// Document-store failure.
    Store(StoreError),
    /// A warm start was requested but no warm sandbox exists.
    NoWarmSandbox(String),
    /// A microVM boot/restore failure that survived the platform's
    /// recovery policy (retries, quarantine, rebuild).
    Vm(VmError),
    /// The function's circuit breaker is open after repeated
    /// infrastructure failures; invocations fail fast until `until`.
    CircuitOpen {
        /// The function whose breaker is open.
        function: String,
        /// Virtual time at which the breaker half-opens again.
        until: Nanos,
    },
    /// The invocation exceeded its timeout and was killed.
    Timeout {
        /// The function that timed out.
        function: String,
        /// Guest ops retired before the kill.
        ops: u64,
    },
    /// The cluster could not place (or re-place) the invocation on any
    /// healthy host.
    HostUnavailable {
        /// The function that could not be placed.
        function: String,
        /// The host that failed while holding the invocation, if the
        /// request had already been routed somewhere.
        host: Option<usize>,
    },
    /// The request's [`InvokeRequest::deadline`] passed before a slot
    /// could start serving it.
    DeadlineExceeded {
        /// The function whose request expired.
        function: String,
        /// The deadline that passed.
        deadline: Nanos,
    },
    /// Anything else.
    Other(String),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Lang(e) => write!(f, "{e}"),
            PlatformError::UnknownFunction(name) => write!(f, "function `{name}` not installed"),
            PlatformError::Net(e) => write!(f, "{e}"),
            PlatformError::Bus(e) => write!(f, "{e}"),
            PlatformError::Store(e) => write!(f, "{e}"),
            PlatformError::NoWarmSandbox(name) => {
                write!(f, "no warm sandbox for `{name}` (invoke cold first)")
            }
            PlatformError::Vm(e) => write!(f, "{e}"),
            PlatformError::CircuitOpen { function, until } => {
                write!(f, "circuit open for `{function}` until t={until}")
            }
            PlatformError::Timeout { function, ops } => {
                write!(f, "`{function}` timed out after {ops} guest ops")
            }
            PlatformError::HostUnavailable { function, host } => match host {
                Some(h) => write!(f, "host {h} became unavailable while serving `{function}`"),
                None => write!(f, "no healthy host available for `{function}`"),
            },
            PlatformError::DeadlineExceeded { function, deadline } => {
                write!(
                    f,
                    "`{function}` missed its deadline t={deadline} before starting"
                )
            }
            PlatformError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for PlatformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlatformError::Lang(e) => Some(e),
            PlatformError::Net(e) => Some(e),
            PlatformError::Bus(e) => Some(e),
            PlatformError::Store(e) => Some(e),
            PlatformError::Vm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LangError> for PlatformError {
    fn from(e: LangError) -> Self {
        PlatformError::Lang(e)
    }
}

impl From<NetError> for PlatformError {
    fn from(e: NetError) -> Self {
        PlatformError::Net(e)
    }
}

impl From<BusError> for PlatformError {
    fn from(e: BusError) -> Self {
        PlatformError::Bus(e)
    }
}

impl From<StoreError> for PlatformError {
    fn from(e: StoreError) -> Self {
        PlatformError::Store(e)
    }
}

impl From<VmError> for PlatformError {
    fn from(e: VmError) -> Self {
        PlatformError::Vm(e)
    }
}

/// A function to install on a platform.
#[derive(Debug, Clone)]
pub struct FunctionSpec {
    /// Registered name.
    pub name: String,
    /// Flame source text with a `main(params)` entry.
    pub source: String,
    /// Which language runtime executes it.
    pub runtime: RuntimeKind,
    /// Representative parameters for install-time JIT warm-up.
    pub default_params: Value,
    /// Invocation timeout; `None` is unlimited. Exceeding it aborts the
    /// invocation with [`PlatformError::Timeout`].
    pub timeout: Option<Nanos>,
}

impl FunctionSpec {
    /// Builds a spec with the conventions used throughout the benches
    /// (no timeout).
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        runtime: RuntimeKind,
        default_params: Value,
    ) -> Self {
        FunctionSpec {
            name: name.into(),
            source: source.into(),
            runtime,
            default_params,
            timeout: None,
        }
    }

    /// Adds an invocation timeout.
    pub fn with_timeout(mut self, timeout: Nanos) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// Report from installing a function.
#[derive(Debug, Clone)]
pub struct InstallReport {
    /// Total virtual install time (the paper's §5.1 measurement).
    pub install_time: Nanos,
    /// Pages in the snapshot memory file (0 for platforms that don't
    /// snapshot).
    pub snapshot_pages: usize,
    /// On-disk snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// Functions that received the `@jit` annotation (Fireworks only).
    pub annotated_functions: usize,
}

/// Which start path served an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    /// Fresh sandbox creation (VM boot or container create).
    ColdBoot,
    /// Re-attached kept-warm sandbox.
    WarmPool,
    /// Restored from a snapshot (OS-level or post-JIT).
    SnapshotRestore,
}

/// How the caller wants the invocation started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartMode {
    /// Force a fresh sandbox (evicts any warm one first).
    Cold,
    /// Require a kept-warm sandbox (error if none).
    Warm,
    /// Platform's natural path (Fireworks: snapshot restore; baselines:
    /// warm pool if available, else cold).
    Auto,
}

/// A fully-specified invocation request (API v2).
///
/// One value carries everything a platform — or a cluster router in
/// front of N platforms — needs to serve, enqueue, or re-route the
/// invocation. Defaults: [`StartMode::Auto`], no deadline.
///
/// Deadlines are *absolute* virtual instants enforced by the drivers
/// ([`crate::engine::Engine`], [`crate::cluster::Cluster`]): a
/// request still queued when its deadline passes completes with
/// [`PlatformError::DeadlineExceeded`] instead of occupying a slot.
/// Platforms themselves ignore the field (per-invocation *timeouts*
/// belong to [`FunctionSpec::timeout`]).
#[derive(Debug, Clone)]
pub struct InvokeRequest {
    /// The installed function to invoke.
    pub function: FunctionId,
    /// Invocation arguments.
    pub args: Value,
    /// Requested start path.
    pub mode: StartMode,
    /// Absolute virtual-time admission deadline, if any.
    pub deadline: Option<Nanos>,
    /// Distributed-tracing context, minted at cluster admission. When
    /// set, the serving platform parents its `invoke` span under
    /// `trace.parent` so the whole service joins the request's causal
    /// tree even across hosts.
    pub trace: Option<fireworks_obs::SpanContext>,
}

impl InvokeRequest {
    /// A request for `function` with `args`, [`StartMode::Auto`], no
    /// deadline, and no trace context.
    pub fn new(function: FunctionId, args: Value) -> Self {
        InvokeRequest {
            function,
            args,
            mode: StartMode::Auto,
            deadline: None,
            trace: None,
        }
    }

    /// Sets the start mode.
    pub fn with_mode(mut self, mode: StartMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets an absolute admission deadline.
    pub fn with_deadline(mut self, deadline: Nanos) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches distributed-tracing context.
    pub fn with_trace(mut self, trace: fireworks_obs::SpanContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Derives the request for one chain stage: same mode, deadline, and
    /// trace context; next stage's function; the previous stage's result
    /// as arguments.
    pub fn stage(&self, function: FunctionId, args: Value) -> Self {
        InvokeRequest {
            function,
            args,
            mode: self.mode,
            deadline: self.deadline,
            trace: self.trace,
        }
    }
}

/// A completed invocation with its latency breakdown.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Value returned by the function.
    pub value: Value,
    /// Start-up / exec / others split (paper Figs. 6, 7, 9): the
    /// self-time fold of the `invoke` root's span subtree, taken when
    /// the root closed.
    pub breakdown: Breakdown,
    /// The invocation's `invoke` root span on the platform's recorder —
    /// the labelled spans behind the breakdown hang underneath it.
    /// `None` only for cost-model platforms that record no spans.
    pub span: Option<SpanId>,
    /// Which start path served it.
    pub start: StartKind,
    /// Guest execution counters.
    pub stats: ExecStats,
    /// `print()` output captured from the guest.
    pub printed: Vec<String>,
    /// Body passed to `http_respond`, if the function responded.
    pub response: Option<String>,
}

impl Invocation {
    /// Closes the invocation's root span and builds the invocation from
    /// the guest's result: the breakdown is the fold of the root's
    /// subtree at this instant, the captured output comes from `host`.
    pub fn from_run(
        root: RootSpan<'_>,
        result: InvokeResult,
        host: GuestHost,
        start: StartKind,
    ) -> Self {
        let span = root.id();
        Invocation {
            value: result.value,
            breakdown: root.close(),
            span: Some(span),
            start,
            stats: result.stats,
            printed: host.printed,
            response: host.responses.into_iter().next_back(),
        }
    }

    /// End-to-end latency.
    pub fn total(&self) -> Nanos {
        self.breakdown.total()
    }

    /// Summed duration of this invocation's spans named `label`, on the
    /// recorder of the platform that served it.
    pub fn total_for(&self, rec: &Recorder, label: &str) -> Nanos {
        self.span
            .map_or(Nanos::ZERO, |root| rec.total_under(root, label))
    }
}

/// The guest-run step every platform shares: charges the
/// request-handling framework path as an `Exec` span, arms the
/// invocation timeout, runs the guest through `run` (Fireworks resumes
/// past the snapshot point, the baselines call `main`), and maps a guest
/// timeout to [`PlatformError::Timeout`].
pub fn run_guest(
    env: &PlatformEnv,
    function: FunctionId,
    timeout: Option<Nanos>,
    rt: &mut GuestRuntime,
    run: impl FnOnce(&mut GuestRuntime) -> Result<InvokeResult, LangError>,
) -> Result<InvokeResult, PlatformError> {
    env.obs
        .recorder()
        .scope_phase("framework", cat::EXEC, Phase::Exec, || {
            rt.charge_request_overhead(&env.clock);
        });
    rt.set_invocation_timeout(timeout);
    run(rt).map_err(|e| match e {
        LangError::Timeout { ops } => PlatformError::Timeout {
            function: function.name().to_string(),
            ops,
        },
        e => e.into(),
    })
}

/// Attributes the guest's run slice, which ends now and charged
/// `exec_time + external_time` on the clock: compute to `exec`, host I/O
/// to `guest_io` (others).
pub fn attribute_run(env: &PlatformEnv, result: &InvokeResult, host: &GuestHost) {
    let rec = env.obs.recorder();
    let anchor = env.clock.now();
    let io_start = anchor - host.external_time;
    rec.record_closed(
        "exec",
        cat::EXEC,
        Phase::Exec,
        io_start - result.exec_time,
        io_start,
    );
    rec.record_closed("guest_io", cat::EXEC, Phase::Other, io_start, anchor);
}

/// A serverless platform under test.
///
/// Object-safe: routers and multi-platform harnesses hold
/// `&mut dyn Platform` / `Box<dyn Platform>`.
pub trait Platform {
    /// Platform name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Isolation level (paper Table 1).
    fn isolation(&self) -> IsolationLevel;

    /// Installs (registers) a function.
    fn install(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError>;

    /// Invokes an installed function.
    fn invoke(&mut self, req: &InvokeRequest) -> Result<Invocation, PlatformError>;

    /// Drops any kept-warm sandboxes for a function.
    fn evict(&mut self, function: FunctionId);

    /// Whether the platform can execute a chain of functions (paper §5.3:
    /// only OpenWhisk and Fireworks can).
    fn supports_chains(&self) -> bool {
        false
    }

    /// Invokes a chain of installed functions, piping each result into the
    /// next function's arguments. The request's `args` seed the first
    /// stage; its mode and deadline apply to every stage ( its
    /// `function` field is ignored — stages come from `stages`). Returns
    /// one invocation per stage. A platform that does not support chains
    /// refuses.
    fn invoke_chain(
        &mut self,
        stages: &[FunctionId],
        req: &InvokeRequest,
    ) -> Result<Vec<Invocation>, PlatformError> {
        if !self.supports_chains() {
            return Err(PlatformError::Other(format!(
                "{} cannot process a chain of serverless functions",
                self.name()
            )));
        }
        run_chain(self, stages, req)
    }
}

/// The resources an in-flight invocation holds between its service phase
/// and its completion event (a resident clone, a checked-out microVM, a
/// warm container).
///
/// The invocation engine keeps tokens alive from service start to the
/// invocation's virtual finish instant, so concurrent populations
/// genuinely coexist: host-memory accounting, CoW sharing against the
/// snapshot, and warm-pool contents all reflect who is live *now* on the
/// virtual timeline.
pub trait InFlightToken {
    /// Proportional-set-size attributed to this in-flight invocation's
    /// guest memory, if the platform tracks it (0 otherwise).
    fn pss_bytes(&self) -> u64 {
        0
    }
}

impl InFlightToken for () {}

/// A platform whose invocation path is split into non-blocking admission
/// plus explicit completion, so a discrete-event driver can hold many
/// invocations in flight at once.
///
/// [`ConcurrentPlatform::begin_invoke`] performs the whole service
/// activity (charging its virtual cost on the shared clock) but does
/// *not* release the sandbox; it returns the finished [`Invocation`]
/// together with an in-flight token owning the resources. The driver
/// schedules a completion event at the invocation's virtual finish
/// instant and calls [`ConcurrentPlatform::finish_invoke`] there — which
/// is where warm-pool returns, pause accounting, and memory release
/// happen. The blocking [`Platform::invoke`] is equivalent to
/// `begin_invoke` immediately followed by `finish_invoke` (a degenerate
/// single-event schedule).
pub trait ConcurrentPlatform: Platform {
    /// Resources held while the invocation is in flight.
    type InFlight: InFlightToken;

    /// Runs the invocation's service activity without releasing its
    /// sandbox.
    fn begin_invoke(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, Self::InFlight), PlatformError>;

    /// Releases the invocation's resources at its completion instant
    /// (the current clock time).
    fn finish_invoke(&mut self, inflight: Self::InFlight);

    /// How much of `function`'s start artifact this platform holds — a
    /// cached post-JIT snapshot (Fireworks), an OS snapshot or
    /// checkpoint, or a non-empty warm pool. Content-addressed platforms
    /// report [`SnapshotResidency::Partial`] with the bytes still
    /// missing, so the cluster's locality router can rank hosts by
    /// transfer cost instead of an all-or-nothing boolean. Must not
    /// disturb replacement state (no LRU touch).
    fn residency(&self, function: FunctionId) -> SnapshotResidency {
        let _ = function;
        SnapshotResidency::Absent
    }

    /// Functions whose complete start artifact this platform currently
    /// holds hot (cached snapshot, warm pool), in ascending id order so
    /// walks are deterministic. A draining host's hand-off iterates
    /// this.
    fn hot_functions(&self) -> Vec<FunctionId> {
        Vec::new()
    }

    /// Makes `function`'s start artifact fully resident ahead of demand
    /// — on a content-addressed platform, by delta-fetching the missing
    /// chunks from a mesh donor. Returns whether the artifact is resident
    /// afterwards; platforms without a proactive path return `false`
    /// (the next invocation pays the normal miss cost).
    fn prewarm(&mut self, function: FunctionId) -> bool {
        let _ = function;
        false
    }

    /// Drops `function`'s local start artifact (scale-to-zero
    /// retirement): the cached snapshot is released and any mesh
    /// publication withdrawn. Returns whether anything was resident.
    /// Invocations still work afterwards — they pay a delta fetch or a
    /// rebuild.
    fn retire(&mut self, function: FunctionId) -> bool {
        let _ = function;
        false
    }

    /// A consistency snapshot of this platform's content-addressed
    /// storage, for invariant audits: the chunk store's reference-count
    /// ledger next to the cached manifests those references should be
    /// held by. `None` on platforms without a chunk store.
    fn store_audit(&self) -> Option<StoreAudit> {
        None
    }

    /// Joins the cluster's [`crate::mesh::ChunkMesh`] as `host_id`.
    /// Content-addressed platforms register their chunk store and start
    /// publishing manifests; everyone else ignores the call.
    fn attach_mesh(&mut self, mesh: crate::mesh::SharedChunkMesh, host_id: HostId) {
        let _ = (mesh, host_id);
    }

    /// Makes `spec` invocable without building its start artifact: a
    /// first invocation pays the build (or a delta fetch). Platforms
    /// without a lazy path install eagerly.
    fn register(&mut self, spec: &FunctionSpec) -> Result<(), PlatformError> {
        self.install(spec).map(|_| ())
    }
}

/// How much of a function's start artifact a host holds.
///
/// The ordering a router wants is by *bytes to move*: `Full` (0 bytes) <
/// `Partial { missing_bytes }` (ship the delta) < `Absent` (rebuild from
/// source or ship everything). [`SnapshotResidency::missing_bytes`]
/// exposes exactly that scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotResidency {
    /// The complete artifact is resident; a start needs no extra bytes.
    Full,
    /// Some chunks are resident (shared with other functions or
    /// previously fetched); `missing_bytes` must arrive before a restore.
    Partial {
        /// Bytes of the snapshot this host does not hold.
        missing_bytes: u64,
    },
    /// Nothing usable is resident.
    Absent,
}

impl SnapshotResidency {
    /// Bytes that must be moved (or rebuilt) before this host can serve a
    /// snapshot start. `Absent` answers `u64::MAX` — worse than any
    /// partial holding — so rankings can compare residencies directly.
    pub fn missing_bytes(self) -> u64 {
        match self {
            SnapshotResidency::Full => 0,
            SnapshotResidency::Partial { missing_bytes } => missing_bytes,
            SnapshotResidency::Absent => u64::MAX,
        }
    }

    /// Whether the complete artifact is resident.
    pub fn is_full(self) -> bool {
        matches!(self, SnapshotResidency::Full)
    }
}

/// A consistency snapshot of one host's content-addressed storage,
/// produced by [`ConcurrentPlatform::store_audit`].
///
/// The invariant it exists to check: every chunk reference in the store
/// is held by exactly one live manifest occurrence, and every cached
/// manifest's chunks are present. [`StoreAudit::verify`] performs that
/// cross-check; the elastic control plane's auditor runs it after every
/// membership event.
#[derive(Debug, Clone)]
pub struct StoreAudit {
    /// The store's full `(chunk hash, reference count)` ledger, in hash
    /// order.
    pub chunk_refs: Vec<(fireworks_guestmem::ChunkHash, u32)>,
    /// Cached dedup entries: `(function, manifest)`, sorted by function.
    pub manifests: Vec<(String, fireworks_guestmem::SnapshotManifest)>,
}

impl StoreAudit {
    /// Cross-checks the reference-count ledger against the live
    /// manifests: each chunk's refcount must equal its total occurrence
    /// count across cached manifests (no orphaned chunks, no dangling
    /// references). Returns every violation found, as human-readable
    /// descriptions; an empty vector means the store is consistent.
    pub fn verify(&self) -> Vec<String> {
        use std::collections::BTreeMap;
        let mut expected: BTreeMap<fireworks_guestmem::ChunkHash, u32> = BTreeMap::new();
        for (_, manifest) in &self.manifests {
            for chunk in &manifest.chunks {
                *expected.entry(chunk.hash).or_insert(0) += 1;
            }
        }
        let mut violations = Vec::new();
        let mut seen: BTreeMap<fireworks_guestmem::ChunkHash, u32> = BTreeMap::new();
        for (hash, refs) in &self.chunk_refs {
            seen.insert(*hash, *refs);
            match expected.get(hash) {
                None => violations.push(format!(
                    "orphaned chunk {hash:?}: {refs} refs but no live manifest references it"
                )),
                Some(want) if want != refs => violations.push(format!(
                    "refcount mismatch on chunk {hash:?}: store holds {refs}, live manifests need {want}"
                )),
                Some(_) => {}
            }
        }
        for (hash, want) in &expected {
            if !seen.contains_key(hash) {
                violations.push(format!(
                    "missing chunk {hash:?}: {want} live manifest references but the store lacks it"
                ));
            }
        }
        violations
    }
}

/// Shared helper: thread a value through a chain by invoking one stage at
/// a time (used by the platforms that do support chains). Stage `k`
/// receives stage `k-1`'s result as its arguments; the template request's
/// mode and deadline apply to every stage.
pub fn run_chain<P: Platform + ?Sized>(
    platform: &mut P,
    stages: &[FunctionId],
    req: &InvokeRequest,
) -> Result<Vec<Invocation>, PlatformError> {
    let mut results = Vec::with_capacity(stages.len());
    let mut current = req.args.clone();
    for &stage in stages {
        let inv = platform.invoke(&req.stage(stage, current))?;
        current = inv.value.clone();
        results.push(inv);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::fid;

    #[test]
    fn platform_error_display_covers_variants() {
        let e = PlatformError::UnknownFunction("f".into());
        assert!(e.to_string().contains("not installed"));
        let e: PlatformError = LangError::runtime("boom").into();
        assert!(e.to_string().contains("boom"));
        let e = PlatformError::NoWarmSandbox("f".into());
        assert!(e.to_string().contains("warm"));
        let e = PlatformError::CircuitOpen {
            function: "f".into(),
            until: Nanos::from_millis(5),
        };
        assert!(e.to_string().contains("circuit open"));
        let e = PlatformError::Timeout {
            function: "f".into(),
            ops: 10,
        };
        assert!(e.to_string().contains("timed out"));
        let e = PlatformError::HostUnavailable {
            function: "f".into(),
            host: None,
        };
        assert!(e.to_string().contains("no healthy host"));
        let e = PlatformError::HostUnavailable {
            function: "f".into(),
            host: Some(3),
        };
        assert!(e.to_string().contains("host 3"));
        let e = PlatformError::DeadlineExceeded {
            function: "f".into(),
            deadline: Nanos::from_millis(9),
        };
        assert!(e.to_string().contains("deadline"));
        let e = PlatformError::Other("misc".into());
        assert!(e.to_string().contains("misc"));
    }

    #[test]
    fn wrapped_causes_surface_through_source() {
        use std::error::Error as _;
        let e: PlatformError = LangError::runtime("boom").into();
        assert!(e.source().is_some(), "Lang cause exposed");
        let e = PlatformError::UnknownFunction("f".into());
        assert!(e.source().is_none(), "leaf errors have no cause");
    }

    #[test]
    fn invoke_request_builder_defaults_and_overrides() {
        let req = InvokeRequest::new(fid("f"), Value::Int(1));
        assert_eq!(req.function, fid("f"));
        assert_eq!(req.function.name().as_ref(), "f");
        assert_eq!(req.mode, StartMode::Auto);
        assert!(req.deadline.is_none());
        let req = req
            .with_mode(StartMode::Cold)
            .with_deadline(Nanos::from_millis(7));
        assert_eq!(req.mode, StartMode::Cold);
        assert_eq!(req.deadline, Some(Nanos::from_millis(7)));
        // Chain stages inherit mode and deadline.
        let stage = req.stage(fid("g"), Value::Int(2));
        assert_eq!(stage.function, fid("g"));
        assert_eq!(stage.mode, StartMode::Cold);
        assert_eq!(stage.deadline, Some(Nanos::from_millis(7)));
    }

    #[test]
    fn residency_orders_by_bytes_to_move() {
        let full = SnapshotResidency::Full;
        let near = SnapshotResidency::Partial {
            missing_bytes: 4096,
        };
        let far = SnapshotResidency::Partial {
            missing_bytes: 1 << 30,
        };
        let absent = SnapshotResidency::Absent;
        assert!(full.is_full());
        assert!(!near.is_full());
        assert!(full.missing_bytes() < near.missing_bytes());
        assert!(near.missing_bytes() < far.missing_bytes());
        assert!(far.missing_bytes() < absent.missing_bytes());
    }

    #[test]
    fn invocation_total_sums_breakdown() {
        let inv = Invocation {
            value: Value::Null,
            breakdown: Breakdown {
                startup: Nanos::from_millis(10),
                exec: Nanos::from_millis(20),
                other: Nanos::from_millis(5),
            },
            span: None,
            start: StartKind::ColdBoot,
            stats: ExecStats::default(),
            printed: vec![],
            response: None,
        };
        assert_eq!(inv.total(), Nanos::from_millis(35));
    }
}
