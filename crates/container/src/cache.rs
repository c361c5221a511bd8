//! Content-addressed action cache: memoized build steps keyed by input digests.
//!
//! The paper's deduplication economics (Figures 7–8, 12–13) come from never redoing a
//! build step whose inputs were already seen: translation units are deduplicated by the
//! hash of their *preprocessed* content, and shared IR is lowered once per target ISA.
//! This module supplies the substrate for that reuse, in the style of Nix/Bazel
//! derivation stores: a [`BuildKey`] names one build action by the digests of everything
//! that determines its output, and the [`ActionCache`] maps key digests to output blobs
//! stored in the content-addressed [`ImageStore`].
//!
//! # `BuildKey` derivation
//!
//! A key is the canonical tuple
//!
//! ```text
//! (tu_digest, target_isa, options, toolchain)
//! ```
//!
//! * `tu_digest` — content digest of the *preprocessed* translation unit (or of the
//!   stored IR unit when lowering): two configurations whose definitions do not change
//!   the token stream share this digest, exactly the stage-2 identity of Figure 7;
//! * `target_isa` — the code-generation target (`xir.ir` while building
//!   target-independent IR; the concrete ISA name when lowering at deployment);
//! * `options` — the IR-relevant option/flag assignment (definitions, OpenMP,
//!   optimisation level — never the delayed `-m…` flags);
//! * `toolchain` — an identifier pinning the compiler that runs the action.
//!
//! The key digest is the SHA-256 of the canonical rendering, so it is stable across
//! processes and sessions. Because every component is itself a content digest or a
//! canonical string, a cache hit is sound: equal keys imply byte-identical outputs.
//!
//! The cache is safe for concurrent use and *single-flight*: when several workers race
//! on the same key (the fleet specializer does this deliberately), exactly one computes
//! the action and the rest reuse its output, so no [`BuildKey`] is ever built twice.
//!
//! # The nonblocking flight protocol
//!
//! Single-flight is exposed as a *nonblocking* protocol so an executor thread never has
//! to sleep on another worker's computation:
//!
//! ```text
//! try_begin(key) ──► Hit(blob, tier)      the output already exists (in `tier`)
//!                ──► Owner(ticket)        caller computes; complete(ticket, bytes)
//!                │                        or fail(ticket, error) retires the flight
//!                ──► InFlight(id)         someone else is computing; park(id, waker)
//!                                         registers a continuation for the outcome
//! ```
//!
//! A [`FlightTicket`] is proof of ownership and must be redeemed exactly once via
//! [`CacheBackend::complete`] or [`CacheBackend::fail`]; *dropping* an unredeemed ticket
//! (an owner that panicked and unwound) poisons the flight, waking every parked waiter
//! with [`FlightError::Poisoned`] instead of stranding them. Waiters woken with a
//! failure retry [`CacheBackend::try_begin`] and may become the next owner, so an
//! error is never cached and progress is guaranteed.
//!
//! The blocking [`ActionCache::get_or_compute`] is a thin convenience over this
//! protocol: it parks a channel-backed waker and blocks the *calling* thread only.
//!
//! An [`ActionCache`] built by [`ActionCache::with_tiers`] also keeps an ordered
//! list of [`tier::Tier`]s under the flight table and memory index; a flight owner
//! walks them outside the mutex — see [`tier`].

pub mod tier;

use crate::blob::Blob;
use crate::digest::Digest;
use crate::image::{ImageError, ImageStore, StoreGcReport};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};
use tier::{Claim, DiskLock, DiskTier, DiskTierStats, Tier, TierConfig, TierError};

/// The identity of one memoizable build action. See the module docs for the derivation.
///
/// The components are fixed at construction, so the key digest — asked for by planning,
/// preflight, the trace and the cache on every request — is computed once per key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BuildKey {
    tu_digest: String,
    target_isa: String,
    options: String,
    toolchain: String,
    #[serde(default, skip_serializing_if = "DigestMemo::skip")]
    digest: DigestMemo,
}

impl BuildKey {
    /// Build a key from its four components.
    pub fn new(
        tu_digest: impl Into<String>,
        target_isa: impl Into<String>,
        options: impl Into<String>,
        toolchain: impl Into<String>,
    ) -> Self {
        Self {
            tu_digest: tu_digest.into(),
            target_isa: target_isa.into(),
            options: options.into(),
            toolchain: toolchain.into(),
            digest: DigestMemo::default(),
        }
    }

    /// Content digest of the preprocessed translation unit or stored IR unit.
    pub fn tu_digest(&self) -> &str {
        &self.tu_digest
    }

    /// Code-generation target (`xir.ir` for IR builds, the ISA name for lowering).
    pub fn target_isa(&self) -> &str {
        &self.target_isa
    }

    /// Canonical IR-relevant option assignment (definitions, OpenMP, opt level).
    pub fn options(&self) -> &str {
        &self.options
    }

    /// Toolchain identifier pinning the compiler.
    pub fn toolchain(&self) -> &str {
        &self.toolchain
    }

    /// Canonical textual rendering (field-tagged so components can never collide by
    /// shifting bytes between fields).
    pub fn canonical(&self) -> String {
        format!(
            "tu={}\nisa={}\nopts={}\ntoolchain={}\n",
            self.tu_digest, self.target_isa, self.options, self.toolchain
        )
    }

    /// The stable SHA-256 digest of the canonical rendering, hashed on first use.
    pub fn digest(&self) -> Digest {
        self.digest
            .0
            .get_or_init(|| Digest::of_str(&self.canonical()))
            .clone()
    }
}

/// The memoised [`BuildKey::digest`]: a cache, not data. It compares equal to every
/// other memo, hashes to nothing and is never serialised, so the derived impls on
/// [`BuildKey`] see the four components only; a deserialised key starts empty.
#[derive(Clone, Default)]
struct DigestMemo(OnceLock<Digest>);

impl DigestMemo {
    /// Always `true`: the `skip_serializing_if` that keeps the memo out of the serde form.
    fn skip(&self) -> bool {
        true
    }
}

impl PartialEq for DigestMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for DigestMemo {}

impl PartialOrd for DigestMemo {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DigestMemo {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl std::hash::Hash for DigestMemo {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}

impl std::fmt::Debug for DigestMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(digest) => f.write_str(digest.as_str()),
            None => f.write_str("<unhashed>"),
        }
    }
}

impl Serialize for DigestMemo {
    /// Never reached (the field is always skipped); the derive needs the impl to
    /// type-check.
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for DigestMemo {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self::default())
    }
}

/// Counters describing cache effectiveness. Snapshots are cheap copies.
///
/// The per-tier counters (`disk_hits`, `remote_hits`, `promotions`, `writebacks`)
/// stay zero for a memory-only cache; [`ActionCache::with_tiers`] stacks populate
/// them. All are `#[serde(default)]` so snapshots serialized before the tiers
/// existed still deserialize.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache (any tier).
    pub hits: u64,
    /// Lookups that had to run the action.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Lookups that blocked on a concurrent in-flight computation of the same key and
    /// then reused its result (counted in `hits` as well).
    pub coalesced: u64,
    /// Live entries currently in the cache.
    pub entries: usize,
    /// Hits served by the persistent disk tier (counted in `hits` as well).
    #[serde(default)]
    pub disk_hits: u64,
    /// Hits served by the remote tier (counted in `hits` as well).
    #[serde(default)]
    pub remote_hits: u64,
    /// Outputs copied *up* the tier stack on a lower-tier hit (remote→disk,
    /// disk/remote→memory), one count per tier written.
    #[serde(default)]
    pub promotions: u64,
    /// Outputs written *down* the tier stack after a miss computed them, one count
    /// per tier written.
    #[serde(default)]
    pub writebacks: u64,
    /// Index entries evicted because the backing store no longer held their blob
    /// (stale entries surfaced by store-level GC or a swapped store), plus the
    /// disk tier's [`stale_drops`](DiskTierStats::stale_drops) and
    /// [`corrupt_drops`](DiskTierStats::corrupt_drops).
    #[serde(default)]
    pub stale_evictions: u64,
}

impl CacheStats {
    /// Total number of compile/lower actions actually executed through this cache.
    pub fn actions_executed(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; zero when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Hits served by the in-memory tier: total hits minus the lower-tier hits.
    pub fn memory_hits(&self) -> u64 {
        self.hits.saturating_sub(self.disk_hits + self.remote_hits)
    }

    /// Fraction of all lookups answered by `tier`, in `[0, 1]`.
    pub fn tier_hit_ratio(&self, tier: CacheTier) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        let hits = match tier {
            CacheTier::Memory => self.memory_hits(),
            CacheTier::Disk => self.disk_hits,
            CacheTier::Remote => self.remote_hits,
        };
        hits as f64 / total as f64
    }
}

/// Which tier of a cache stack served a hit: [`CacheTier::Memory`], or the
/// [`Tier::kind`] of the lower tier that actually held the output before promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CacheTier {
    /// The in-memory [`ActionCache`] index.
    Memory,
    /// The persistent on-disk CAS tier ([`DiskTier`]).
    Disk,
    /// A cache service shared between machines, below the disk tier.
    Remote,
}

impl CacheTier {
    /// Stable lowercase label, used in traces and JSON snapshots.
    pub fn label(&self) -> &'static str {
        match self {
            CacheTier::Memory => "memory",
            CacheTier::Disk => "disk",
            CacheTier::Remote => "remote",
        }
    }
}

impl std::fmt::Display for CacheTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Rejected cache configuration. Returned by [`ActionCache::with_capacity`] instead
/// of silently "fixing" a caller bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// A capacity bound of zero entries: such a cache could never hold an output,
    /// so every insert would evict itself — reject instead of clamping.
    ZeroCapacity,
}

impl std::fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheConfigError::ZeroCapacity => {
                write!(f, "cache capacity must be at least 1 entry (got 0)")
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Why a flight retired without producing an output. Parked waiters receive this
/// through [`FlightOutcome::Failed`]; the correct response is to retry
/// [`CacheBackend::try_begin`] (possibly becoming the next owner), so an error is
/// never cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightError {
    /// The owner's compute returned an error ([`CacheBackend::fail`]).
    Failed,
    /// The owner's [`FlightTicket`] was dropped unredeemed — the owner panicked (or
    /// leaked the ticket) and its waiters were woken instead of stranded.
    Poisoned,
    /// The flight had already retired when the waiter tried to park and the backend
    /// no longer holds its output (evicted, failed, or a backend without memoization).
    Retired,
}

impl std::fmt::Display for FlightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightError::Failed => write!(f, "flight owner's computation failed"),
            FlightError::Poisoned => write!(f, "flight poisoned: owner dropped its ticket"),
            FlightError::Retired => write!(f, "flight already retired without a held output"),
        }
    }
}

impl std::error::Error for FlightError {}

/// Identity of one in-flight computation, as handed out by
/// [`CacheBackend::try_begin`]. The nonce distinguishes successive flights for the
/// same key digest, so a waker can never be parked on the wrong generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightId {
    digest: Digest,
    nonce: u64,
}

impl FlightId {
    /// The key digest this flight is computing.
    pub fn digest(&self) -> &Digest {
        &self.digest
    }
}

/// What a parked waiter is woken with when its flight retires.
#[derive(Debug, Clone)]
pub enum FlightOutcome {
    /// The owner completed; the blob shares the store's allocation.
    Completed(Blob),
    /// The flight retired without an output; retry [`CacheBackend::try_begin`].
    Failed(FlightError),
}

/// A continuation parked on a flight's outcome. Invoked exactly once, after the
/// backend has released its internal locks — a waker may freely call back into the
/// cache or an executor's queues.
pub type FlightWaker = Box<dyn FnOnce(FlightOutcome) + Send>;

/// Proof of flight ownership returned by [`CacheBackend::try_begin`]. Redeem it
/// exactly once with [`CacheBackend::complete`] or [`CacheBackend::fail`]; dropping
/// an unredeemed ticket poisons the flight, waking parked waiters with
/// [`FlightError::Poisoned`].
pub struct FlightTicket {
    digest: Digest,
    nonce: u64,
    /// Flight state to poison if the ticket is dropped unredeemed; `None` for
    /// backends without coalescing ([`NoCache`]) and after redemption.
    inner: Option<Arc<Mutex<CacheInner>>>,
    /// The cross-process claim on the key, when a disk tier took one. It lives
    /// exactly as long as the ticket: completing, failing or dropping the ticket
    /// releases the lock file.
    lock: Option<DiskLock>,
}

impl FlightTicket {
    /// The identity of the owned flight.
    pub fn id(&self) -> FlightId {
        FlightId {
            digest: self.digest.clone(),
            nonce: self.nonce,
        }
    }

    /// Retire the flight without an output, waking every parked waiter with
    /// `error`. A no-op on a disarmed ticket.
    fn abandon(&mut self, error: FlightError) {
        // Released before the wake: a woken waiter may claim the key at once.
        self.lock = None;
        if let Some(inner) = self.inner.take() {
            let waiters = inner.lock().retire_flight(&self.digest, self.nonce);
            // Wake outside the lock: wakers may re-enter the cache or an executor.
            for waker in waiters {
                waker(FlightOutcome::Failed(error));
            }
        }
    }
}

impl Drop for FlightTicket {
    fn drop(&mut self) {
        self.abandon(FlightError::Poisoned);
    }
}

impl std::fmt::Debug for FlightTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightTicket")
            .field("digest", &self.digest)
            .field("nonce", &self.nonce)
            .field("armed", &self.inner.is_some())
            .finish()
    }
}

/// The three answers of [`CacheBackend::try_begin`].
#[derive(Debug)]
pub enum TryBegin {
    /// The output is cached; the handle shares the store's allocation. The tier is
    /// the one that held it when the lookup arrived.
    Hit(Blob, CacheTier),
    /// The caller owns the flight: compute, then redeem the ticket.
    Owner(FlightTicket),
    /// Another owner is computing this key; park a continuation on the id.
    InFlight(FlightId),
}

/// A pluggable action-cache backend: the seam between the `xaas::engine` executor and
/// artifact storage.
///
/// Two implementations ship with the crate: [`ActionCache`] (content-addressed
/// memoization with single-flight semantics, over any stack of [`tier::Tier`]s)
/// and [`NoCache`] (always compute — the
/// honest replacement for the old "private empty cache" trick the uncached pipeline
/// entry points used). Both are backed by an [`ImageStore`] so the executor can commit
/// images through the same handle it routes actions through.
///
/// The backend's surface is the *nonblocking* flight protocol
/// ([`try_begin`](Self::try_begin) / [`complete`](Self::complete) /
/// [`fail`](Self::fail) / [`park`](Self::park) — see the module docs).
pub trait CacheBackend: Send + Sync {
    /// The content-addressed store backing this cache (also used to commit images).
    fn store(&self) -> &ImageStore;

    /// Begin (or join) the single flight for `key` without blocking: a cached
    /// output answers [`TryBegin::Hit`], an idle key makes the caller the owner
    /// ([`TryBegin::Owner`]), and a key someone else is computing answers
    /// [`TryBegin::InFlight`] for the caller to [`park`](Self::park) on.
    fn try_begin(&self, key: &BuildKey) -> TryBegin;

    /// Redeem an owned flight with its computed output: store the bytes (for
    /// memoizing backends), retire the flight, and wake every parked waiter with
    /// [`FlightOutcome::Completed`]. Returns the stored handle; the owner, each
    /// waiter, and later hits all share one allocation.
    fn complete(&self, ticket: FlightTicket, bytes: Vec<u8>) -> Blob;

    /// Retire an owned flight without an output (the compute failed), waking every
    /// parked waiter with [`FlightOutcome::Failed`]. Nothing is cached.
    fn fail(&self, ticket: FlightTicket, error: FlightError);

    /// Park a continuation on an in-flight computation. Returns `None` when the
    /// waker was registered (it will be invoked exactly once, when the flight
    /// retires), or `Some(outcome)` when the flight already retired between
    /// [`try_begin`](Self::try_begin) and this call — the waker is dropped uncalled
    /// and the caller handles the outcome inline.
    fn park(&self, flight: &FlightId, waker: FlightWaker) -> Option<FlightOutcome>;

    /// A snapshot of the backend's counters (all zeros for backends that do not track).
    fn backend_stats(&self) -> CacheStats;
}

impl CacheBackend for ActionCache {
    fn store(&self) -> &ImageStore {
        ActionCache::store(self)
    }

    fn try_begin(&self, key: &BuildKey) -> TryBegin {
        let digest = key.digest();
        let mut ticket = {
            let mut inner = self.inner.lock();
            if let Some(bytes) = inner.resident(&self.store, &digest) {
                inner.stats.hits += 1;
                return TryBegin::Hit(bytes, CacheTier::Memory);
            }
            if let Some(flight) = inner.in_flight.get(&digest) {
                return TryBegin::InFlight(FlightId {
                    digest,
                    nonce: flight.nonce,
                });
            }
            let nonce = inner.next_nonce;
            inner.next_nonce += 1;
            inner.in_flight.insert(
                digest.clone(),
                Flight {
                    nonce,
                    waiters: Vec::new(),
                },
            );
            FlightTicket {
                digest,
                nonce,
                inner: Some(self.inner.clone()),
                lock: None,
            }
        };
        // We own the flight, so same-process racers park on it while the lower
        // tiers are read — outside the mutex.
        if let Some(hit) = self.read_through(&mut ticket) {
            return hit;
        }
        if let Some(disk) = &self.disk {
            match disk.claim_or_wait(&ticket.digest) {
                Claim::Owner(lock) => ticket.lock = lock,
                Claim::Published => {
                    if let Some(hit) = self.read_through(&mut ticket) {
                        return hit;
                    }
                }
            }
        }
        TryBegin::Owner(ticket)
    }

    fn complete(&self, mut ticket: FlightTicket, bytes: Vec<u8>) -> Blob {
        // Convert the computed bytes into a shared handle once; the store keeps a
        // clone of the handle (a refcount bump), not a copy of the payload.
        let bytes = Blob::new(bytes);
        let content = Digest::of_bytes(&bytes);
        for tier in &self.lower {
            tier.put(&ticket.digest, &content, &bytes);
        }
        self.land(&mut ticket, content, &bytes, |stats| {
            stats.misses += 1;
            stats.writebacks += self.lower.len() as u64;
        });
        bytes
    }

    fn fail(&self, mut ticket: FlightTicket, error: FlightError) {
        ticket.abandon(error);
    }

    fn park(&self, flight: &FlightId, waker: FlightWaker) -> Option<FlightOutcome> {
        let mut inner = self.inner.lock();
        if let Some(current) = inner.in_flight.get_mut(&flight.digest) {
            if current.nonce == flight.nonce {
                current.waiters.push(waker);
                return None;
            }
        }
        // The flight retired (or was superseded) before we parked: resolve from
        // the current cache state instead of registering a waker that could never
        // fire for this generation.
        if let Some(bytes) = inner.resident(&self.store, &flight.digest) {
            inner.stats.hits += 1;
            inner.stats.coalesced += 1;
            return Some(FlightOutcome::Completed(bytes));
        }
        Some(FlightOutcome::Failed(FlightError::Retired))
    }

    fn backend_stats(&self) -> CacheStats {
        self.stats()
    }
}

/// A cache backend that never caches: every action executes, nothing is memoized.
///
/// This replaces the former pattern of handing the uncached pipeline entry points a
/// private, empty [`ActionCache`] — the intent ("run everything") is now explicit, and
/// the executed-action counters stay meaningful.
#[derive(Clone)]
pub struct NoCache {
    store: ImageStore,
    stats: Arc<Mutex<CacheStats>>,
}

impl NoCache {
    /// An always-compute backend whose images and blobs land in `store`.
    pub fn new(store: ImageStore) -> Self {
        Self {
            store,
            stats: Arc::new(Mutex::new(CacheStats::default())),
        }
    }

    /// Counters: every routed action is a miss, hits stay zero.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }
}

impl CacheBackend for NoCache {
    fn store(&self) -> &ImageStore {
        &self.store
    }

    fn try_begin(&self, key: &BuildKey) -> TryBegin {
        // Never a hit, never coalesced: every caller owns a private flight. The
        // ticket is unarmed (no shared flight state to poison).
        TryBegin::Owner(FlightTicket {
            digest: key.digest(),
            nonce: 0,
            inner: None,
            lock: None,
        })
    }

    fn complete(&self, _ticket: FlightTicket, bytes: Vec<u8>) -> Blob {
        self.stats.lock().misses += 1;
        Blob::new(bytes)
    }

    fn fail(&self, _ticket: FlightTicket, _error: FlightError) {}

    fn park(&self, _flight: &FlightId, _waker: FlightWaker) -> Option<FlightOutcome> {
        // `try_begin` never answers `InFlight`, so no flight can be parked on;
        // report it retired so a caller holding a stale id simply retries.
        Some(FlightOutcome::Failed(FlightError::Retired))
    }

    fn backend_stats(&self) -> CacheStats {
        self.stats()
    }
}

impl std::fmt::Debug for NoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoCache")
            .field("stats", &self.stats())
            .finish()
    }
}

/// One in-flight computation: its generation nonce plus the continuations parked
/// on its outcome.
struct Flight {
    nonce: u64,
    waiters: Vec<FlightWaker>,
}

#[derive(Default)]
struct CacheInner {
    entries: BTreeMap<Digest, Digest>,
    /// Insertion order for FIFO eviction under a capacity bound.
    order: VecDeque<Digest>,
    in_flight: BTreeMap<Digest, Flight>,
    /// Generation counter for [`FlightId`] nonces.
    next_nonce: u64,
    stats: CacheStats,
}

impl CacheInner {
    /// Remove the flight for `digest` if its generation matches, returning its
    /// parked waiters for the caller to wake *after* releasing the lock. A nonce
    /// mismatch means the flight was already retired (redeem + poison racing):
    /// nothing to do.
    fn retire_flight(&mut self, digest: &Digest, nonce: u64) -> Vec<FlightWaker> {
        match self.in_flight.get(digest) {
            Some(flight) if flight.nonce == nonce => self
                .in_flight
                .remove(digest)
                .map(|flight| flight.waiters)
                .unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// The stored output the index holds for `digest`. An entry whose blob `store`
    /// no longer holds (store-level GC ran, or the store was swapped) is evicted —
    /// keeping `entries`, the FIFO `order` queue and the stale-eviction counter
    /// consistent — instead of lingering as a dead digest.
    fn resident(&mut self, store: &ImageStore, digest: &Digest) -> Option<Blob> {
        let bytes = store.blob(self.entries.get(digest)?);
        if bytes.is_err() {
            self.entries.remove(digest);
            self.order.retain(|d| d != digest);
            self.stats.stale_evictions += 1;
            self.stats.entries = self.entries.len();
        }
        bytes.ok()
    }
}

/// A digest-keyed action cache backed by a content-addressed [`ImageStore`].
///
/// Cloning the cache shares its state: builders, deployers, and fleet workers all see
/// the same memoized actions. The blob payloads live in the (also shared) store, so an
/// action output and an identical image layer occupy the bytes only once.
#[derive(Clone)]
pub struct ActionCache {
    store: ImageStore,
    capacity: Option<usize>,
    inner: Arc<Mutex<CacheInner>>,
    /// The tiers below the memory index, fastest first; empty unless built by
    /// [`ActionCache::with_tiers`].
    lower: Vec<Arc<dyn Tier>>,
    /// The disk tier among `lower`, kept typed for its counters and for the
    /// cross-process claim a miss takes on it.
    disk: Option<Arc<DiskTier>>,
}

impl ActionCache {
    /// An unbounded cache backed by `store`.
    pub fn new(store: ImageStore) -> Self {
        Self {
            store,
            capacity: None,
            inner: Arc::new(Mutex::new(CacheInner::default())),
            lower: Vec::new(),
            disk: None,
        }
    }

    /// A cache that evicts (FIFO) beyond `capacity` entries.
    ///
    /// The bound applies to the key→blob *index* only: eviction drops the memoization
    /// entry, not the output blob, because the backing store is a shared CAS whose
    /// blobs may also be referenced by committed image layers. Unreferenced blobs are
    /// reclaimed by store-level garbage collection
    /// ([`ImageStore::collect_garbage`](crate::image::ImageStore::collect_garbage)),
    /// with the cache's live outputs ([`ActionCache::indexed_blobs`]) pinned.
    ///
    /// # Errors
    ///
    /// A `capacity` of zero is a caller bug (such a cache could never hold an entry)
    /// and answers [`CacheConfigError::ZeroCapacity`] instead of being clamped.
    pub fn with_capacity(store: ImageStore, capacity: usize) -> Result<Self, CacheConfigError> {
        if capacity == 0 {
            return Err(CacheConfigError::ZeroCapacity);
        }
        Ok(Self {
            capacity: Some(capacity),
            ..Self::new(store)
        })
    }

    /// Build the whole stack over `store` per `config`: the memory index, then the
    /// disk tier when one is configured (opened, and its journal replayed, here),
    /// then every [`TierConfig::tier`] in the order attached.
    pub fn with_tiers(store: ImageStore, config: TierConfig) -> Result<Self, TierError> {
        let mut cache = match config.l1_capacity {
            Some(capacity) => Self::with_capacity(store, capacity).map_err(TierError::Config)?,
            None => Self::new(store),
        };
        cache.disk = config.disk.map(DiskTier::open).transpose()?.map(Arc::new);
        let disk = cache.disk.iter().map(|disk| disk.clone() as Arc<dyn Tier>);
        cache.lower = disk.chain(config.below_disk).collect();
        Ok(cache)
    }

    /// The backing content-addressed store.
    pub fn store(&self) -> &ImageStore {
        &self.store
    }

    /// Disk-tier counters, when a disk tier is configured.
    pub fn disk_stats(&self) -> Option<DiskTierStats> {
        self.disk.as_ref().map(|disk| disk.stats())
    }

    /// Run store-level blob GC with every indexed action output pinned, so the
    /// sweep reclaims orphaned intermediates without invalidating live cache
    /// entries. The lower tiers are not swept: they bound themselves.
    pub fn collect_garbage(&self) -> StoreGcReport {
        self.store.collect_garbage(&self.indexed_blobs())
    }

    /// Walk the lower tiers in order for the ticket's key. The first that answers
    /// with bytes matching the digest it recorded is copied into every faster tier
    /// and landed as the flight's output; a mismatch is discarded from its tier —
    /// a damaged blob is never served — and the walk continues.
    fn read_through(&self, ticket: &mut FlightTicket) -> Option<TryBegin> {
        for (depth, tier) in self.lower.iter().enumerate() {
            let Some((recorded, bytes)) = tier.get(&ticket.digest) else {
                continue;
            };
            let blob = Blob::new(bytes);
            // The one hash a promotion pays is also the verification.
            let content = Digest::of_bytes(&blob);
            if content != recorded {
                tier.discard(&ticket.digest);
                continue;
            }
            for faster in &self.lower[..depth] {
                faster.put(&ticket.digest, &content, &blob);
            }
            let kind = tier.kind();
            self.land(ticket, content, &blob, |stats| {
                stats.hits += 1;
                match kind {
                    CacheTier::Memory => {}
                    CacheTier::Disk => stats.disk_hits += 1,
                    CacheTier::Remote => stats.remote_hits += 1,
                }
                // One per faster tier written: `depth` lower tiers and the memory index.
                stats.promotions += depth as u64 + 1;
            });
            return Some(TryBegin::Hit(blob, kind));
        }
        None
    }

    /// Redeem the ticket with `blob` (content digest `content`): store and index it,
    /// retire the flight, and wake every parked waiter — each a coalesced hit —
    /// once all locks are released. `book` counts the event itself under the lock.
    fn land(
        &self,
        ticket: &mut FlightTicket,
        content: Digest,
        blob: &Blob,
        book: impl FnOnce(&mut CacheStats),
    ) {
        ticket.inner = None; // redeemed: nothing left to poison
        let content = self.store.put_blob_with_digest(content, blob.clone());
        let waiters = {
            let mut inner = self.inner.lock();
            let waiters = inner.retire_flight(&ticket.digest, ticket.nonce);
            book(&mut inner.stats);
            inner.stats.hits += waiters.len() as u64;
            inner.stats.coalesced += waiters.len() as u64;
            self.record_entry(&mut inner, ticket.digest.clone(), content);
            waiters
        };
        // Wake outside the lock: wakers may re-enter the cache or an executor.
        for waker in waiters {
            waker(FlightOutcome::Completed(blob.clone()));
        }
    }

    /// Look up an action output in the memory index. Does not touch hit/miss
    /// counters — use [`ActionCache::get_or_compute`] for the accounted path. The
    /// returned handle shares the store's allocation.
    ///
    /// An index entry whose blob the store no longer holds (store-level GC ran, or
    /// the store was swapped) is evicted here — counted in
    /// [`CacheStats::stale_evictions`] — instead of lingering as a dead digest that
    /// inflates `entries` and clogs the FIFO order queue.
    pub fn peek(&self, key: &BuildKey) -> Option<Blob> {
        let digest = key.digest();
        self.inner.lock().resident(&self.store, &digest)
    }

    /// Whether the memory index currently holds an output for `key`.
    pub fn contains(&self, key: &BuildKey) -> bool {
        self.inner.lock().entries.contains_key(&key.digest())
    }

    /// Memoize: return the cached output for `key`, or run `compute`, store its output,
    /// and return it. The boolean is `true` on a cache hit.
    ///
    /// Concurrent callers with the same key are single-flighted: one computes, the
    /// others park on the flight until the result is stored and then reuse it as a
    /// (coalesced) hit. Every caller — the computing worker, each coalesced waiter,
    /// and later hits — receives a [`Blob`] handle onto the *same* stored allocation.
    ///
    /// This is the blocking convenience over the nonblocking flight protocol (see
    /// the module docs): only the *calling* thread waits. A panicking `compute`
    /// poisons the flight on unwind (its [`FlightTicket`] drops unredeemed), so
    /// racing callers are woken to retry instead of stranded.
    pub fn get_or_compute<E>(
        &self,
        key: &BuildKey,
        compute: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> Result<(Blob, bool), E> {
        let mut compute = Some(compute);
        loop {
            match CacheBackend::try_begin(self, key) {
                TryBegin::Hit(blob, _) => return Ok((blob, true)),
                TryBegin::Owner(ticket) => {
                    let compute = compute.take().expect("the owner branch returns");
                    return match compute() {
                        Ok(bytes) => Ok((CacheBackend::complete(self, ticket, bytes), false)),
                        Err(error) => {
                            CacheBackend::fail(self, ticket, FlightError::Failed);
                            Err(error)
                        }
                    };
                }
                TryBegin::InFlight(flight) => {
                    let (sender, receiver) = std::sync::mpsc::channel();
                    let outcome = CacheBackend::park(
                        self,
                        &flight,
                        Box::new(move |outcome| {
                            let _ = sender.send(outcome);
                        }),
                    )
                    .unwrap_or_else(|| receiver.recv().expect("a flight always retires"));
                    if let FlightOutcome::Completed(blob) = outcome {
                        return Ok((blob, true));
                    }
                    // The owner failed or poisoned the flight: retry, possibly
                    // becoming the next owner (compute has not run yet).
                }
            }
        }
    }

    /// Index an action output produced elsewhere (memory index only; no write-through).
    pub fn insert(&self, key: &BuildKey, bytes: impl Into<Blob>) -> Digest {
        let blob = self.store.put_blob(bytes);
        let mut inner = self.inner.lock();
        self.record_entry(&mut inner, key.digest(), blob.clone());
        blob
    }

    /// Register `digest → blob` in the index and enforce the capacity bound (shared by
    /// [`ActionCache::get_or_compute`] and [`ActionCache::insert`]).
    fn record_entry(&self, inner: &mut CacheInner, digest: Digest, blob: Digest) {
        if inner.entries.insert(digest.clone(), blob).is_none() {
            inner.order.push_back(digest);
        }
        if let Some(capacity) = self.capacity {
            while inner.entries.len() > capacity {
                let Some(oldest) = inner.order.pop_front() else {
                    break;
                };
                inner.entries.remove(&oldest);
                inner.stats.evictions += 1;
            }
        }
        inner.stats.entries = inner.entries.len();
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.inner.lock().stats;
        if let Some(disk) = self.disk_stats() {
            stats.stale_evictions += disk.stale_drops + disk.corrupt_drops;
        }
        stats
    }

    /// Reset the counters (entries are kept) — used to separate warm from cold phases
    /// in experiments.
    pub fn reset_stats(&self) {
        let mut inner = self.inner.lock();
        let entries = inner.entries.len();
        inner.stats = CacheStats {
            entries,
            ..CacheStats::default()
        };
    }

    /// The content digests of every blob the index currently references — the pin
    /// set store-level garbage collection must not reclaim (see
    /// [`ImageStore::collect_garbage`](crate::image::ImageStore::collect_garbage)).
    pub fn indexed_blobs(&self) -> Vec<Digest> {
        self.inner.lock().entries.values().cloned().collect()
    }

    /// Convenience for callers that want the raw blob digest of a cached action.
    pub fn action_blob(&self, key: &BuildKey) -> Result<Digest, ImageError> {
        self.inner
            .lock()
            .entries
            .get(&key.digest())
            .cloned()
            .ok_or_else(|| ImageError::MissingBlob(key.digest()))
    }
}

impl std::fmt::Debug for ActionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ActionCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn key(n: u32) -> BuildKey {
        BuildKey::new(
            format!("tu{n}"),
            "xir.ir",
            "defs=;openmp=false;opt=O2",
            "xirc",
        )
    }

    #[test]
    fn key_digest_is_stable_and_field_sensitive() {
        let a = key(1);
        assert_eq!(a.digest(), key(1).digest());
        let b = BuildKey::new(a.tu_digest(), "x86-avx_512", a.options(), a.toolchain());
        assert_eq!(b.target_isa(), "x86-avx_512");
        assert_ne!(a.digest(), b.digest());
        // Field-tagged canonical form: moving bytes between fields changes the digest.
        let c = BuildKey::new("tu1x", "ir", "o", "t");
        let d = BuildKey::new("tu1", "xir", "o", "t");
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn memoised_digest_is_not_part_of_the_key() {
        use std::hash::{Hash, Hasher};
        let hash_of = |key: &BuildKey| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            key.hash(&mut hasher);
            hasher.finish()
        };
        let (hashed, fresh) = (key(1), key(1));
        let cold_json = serde_json::to_string(&hashed).unwrap();
        assert!(format!("{hashed:?}").contains("<unhashed>"));
        let digest = hashed.digest();
        assert_eq!(digest, Digest::of_str(&hashed.canonical()));
        assert!(format!("{hashed:?}").contains(digest.as_str()), "held");
        assert!(format!("{:?}", hashed.clone()).contains(digest.as_str()));
        assert_eq!(hashed.digest(), digest);

        assert_eq!(hashed, fresh);
        assert_eq!(hashed.cmp(&fresh), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(&hashed), hash_of(&fresh));
        // The serde form is the four components, before and after hashing, and a key
        // written before the memo existed reads back and hashes the same.
        assert_eq!(serde_json::to_string(&hashed).unwrap(), cold_json);
        assert_eq!(
            cold_json,
            r#"{"options":"defs=;openmp=false;opt=O2","target_isa":"xir.ir","toolchain":"xirc","tu_digest":"tu1"}"#
        );
        let back: BuildKey = serde_json::from_str(&cold_json).unwrap();
        assert_eq!(back, hashed);
        assert_eq!(back.digest(), digest);
    }

    #[test]
    fn get_or_compute_memoizes_and_counts() {
        let cache = ActionCache::new(ImageStore::new());
        let calls = AtomicUsize::new(0);
        let compute = || -> Result<Vec<u8>, ()> {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(b"artifact".to_vec())
        };
        let (first, hit1) = cache.get_or_compute(&key(1), compute).unwrap();
        let (second, hit2) = cache
            .get_or_compute(&key(1), || -> Result<Vec<u8>, ()> {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok(b"never-run".to_vec())
            })
            .unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hits_and_the_store_share_one_allocation() {
        let cache = ActionCache::new(ImageStore::new());
        let (first, _) = cache
            .get_or_compute(&key(3), || -> Result<Vec<u8>, ()> {
                Ok(b"shared".to_vec())
            })
            .unwrap();
        let (second, hit) = cache
            .get_or_compute(&key(3), || -> Result<Vec<u8>, ()> { unreachable!() })
            .unwrap();
        assert!(hit);
        let stored = cache
            .store()
            .blob(&cache.action_blob(&key(3)).unwrap())
            .unwrap();
        assert!(Blob::ptr_eq(&first, &stored), "miss returns store's handle");
        assert!(Blob::ptr_eq(&second, &stored), "hit returns store's handle");
        let peeked = cache.peek(&key(3)).unwrap();
        assert!(
            Blob::ptr_eq(&peeked, &stored),
            "peek returns store's handle"
        );
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ActionCache::new(ImageStore::new());
        let failed: Result<(Blob, bool), &str> = cache.get_or_compute(&key(2), || Err("boom"));
        assert_eq!(failed.unwrap_err(), "boom");
        assert_eq!(cache.stats().entries, 0);
        let (bytes, hit) = cache
            .get_or_compute(&key(2), || -> Result<Vec<u8>, &str> { Ok(vec![7]) })
            .unwrap();
        assert_eq!(bytes, vec![7]);
        assert!(!hit);
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let cache = ActionCache::with_capacity(ImageStore::new(), 2).unwrap();
        for n in 0..3 {
            cache
                .get_or_compute(&key(n), || -> Result<Vec<u8>, ()> { Ok(vec![n as u8]) })
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(!cache.contains(&key(0)), "oldest entry evicted");
        assert!(cache.contains(&key(2)));
        // Evicted key recomputes (a second miss), others still hit.
        let (_, hit) = cache
            .get_or_compute(&key(0), || -> Result<Vec<u8>, ()> { Ok(vec![0]) })
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn zero_capacity_is_a_typed_error() {
        // Historically `with_capacity(store, 0)` silently clamped to 1, masking a
        // caller bug; it is now rejected outright.
        assert_eq!(
            ActionCache::with_capacity(ImageStore::new(), 0).unwrap_err(),
            CacheConfigError::ZeroCapacity
        );
        assert!(ActionCache::with_capacity(ImageStore::new(), 1).is_ok());
    }

    #[test]
    fn reinsert_does_not_duplicate_order_entries() {
        // Pin the FIFO invariant: re-inserting a present key must not push a second
        // order entry. With duplicates, the repeated key would occupy two FIFO slots
        // and its first eviction would decrement `entries` without freeing a slot,
        // prematurely evicting live keys and inflating `evictions`.
        let cache = ActionCache::with_capacity(ImageStore::new(), 2).unwrap();
        for round in 0..4u8 {
            cache.insert(&key(0), vec![round]);
        }
        cache.insert(&key(1), vec![1]);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "both keys fit the capacity bound");
        assert_eq!(stats.evictions, 0, "re-inserts must not consume FIFO slots");
        assert!(cache.contains(&key(0)) && cache.contains(&key(1)));
        // A genuinely new third key evicts exactly the oldest (key 0), not more.
        cache.insert(&key(2), vec![2]);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        assert!(!cache.contains(&key(0)), "oldest key evicted once");
        assert!(cache.contains(&key(1)) && cache.contains(&key(2)));
    }

    #[test]
    fn stale_entries_are_evicted_and_counted() {
        // When store-level GC reclaims a blob out from under the index, both `peek`
        // and `try_begin` must drop the dead entry (keeping `entries` and the FIFO
        // queue consistent) and count it in `stale_evictions`.
        let store = ImageStore::new();
        let cache = ActionCache::new(store.clone());
        cache.insert(&key(1), b"doomed".to_vec());
        cache.insert(&key(2), b"doomed-too".to_vec());
        assert_eq!(cache.stats().entries, 2);
        // Reclaim every unpinned blob: both index entries are now stale.
        let report = store.collect_garbage(&[]);
        assert_eq!(report.blobs_removed, 2);
        assert!(cache.peek(&key(1)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.stale_evictions, 1, "peek evicted the stale entry");
        assert_eq!(stats.entries, 1, "entries tracks reality");
        assert!(matches!(cache.try_begin(&key(2)), TryBegin::Owner(_)));
        let stats = cache.stats();
        assert_eq!(
            stats.stale_evictions, 2,
            "try_begin evicted the stale entry"
        );
        assert_eq!(stats.entries, 0);
        // A fresh insert after the evictions behaves normally.
        cache.insert(&key(1), b"reborn".to_vec());
        assert!(cache.peek(&key(1)).is_some());
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache = ActionCache::new(ImageStore::new());
        let calls = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = cache.clone();
                let calls = calls.clone();
                scope.spawn(move || {
                    let (bytes, _) = cache
                        .get_or_compute(&key(9), || -> Result<Vec<u8>, ()> {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so coalescing is actually exercised.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(b"once".to_vec())
                        })
                        .unwrap();
                    assert_eq!(bytes, b"once");
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "single-flight");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    /// One single-threaded action through the flight protocol, the way the
    /// executor drives a backend: a hit, or own the flight and redeem it with
    /// `output` (`None` = the compute failed).
    fn run_action(
        backend: &dyn CacheBackend,
        key: &BuildKey,
        output: Option<Vec<u8>>,
    ) -> Option<(Blob, bool)> {
        match backend.try_begin(key) {
            TryBegin::Hit(blob, _) => Some((blob, true)),
            TryBegin::Owner(ticket) => match output {
                Some(bytes) => Some((backend.complete(ticket, bytes), false)),
                None => {
                    backend.fail(ticket, FlightError::Failed);
                    None
                }
            },
            TryBegin::InFlight(flight) => panic!("no racing owner, got {flight:?}"),
        }
    }

    #[test]
    fn nocache_always_computes_and_counts_misses() {
        let backend = NoCache::new(ImageStore::new());
        for _ in 0..3 {
            let (bytes, hit) = run_action(&backend, &key(1), Some(b"fresh".to_vec())).unwrap();
            assert_eq!(bytes, b"fresh");
            assert!(!hit, "NoCache never reports a hit: every action executes");
        }
        let stats = backend.backend_stats();
        assert_eq!((stats.hits, stats.misses), (0, 3));
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn action_cache_and_nocache_agree_through_the_backend_trait() {
        let store = ImageStore::new();
        let cached: &dyn CacheBackend = &ActionCache::new(store.clone());
        let uncached: &dyn CacheBackend = &NoCache::new(store.clone());
        for backend in [cached, uncached] {
            let (bytes, hit) = run_action(backend, &key(7), Some(vec![7, 7])).unwrap();
            assert_eq!(bytes, vec![7, 7]);
            assert!(!hit);
        }
        // Second round: the memoizing backend hits, the no-op backend recomputes.
        let (_, hit) = run_action(cached, &key(7), Some(vec![7, 7])).unwrap();
        assert!(hit);
        let (_, hit) = run_action(uncached, &key(7), Some(vec![7, 7])).unwrap();
        assert!(!hit);
        // Failures retire the flight without caching anything: the next caller
        // owns a fresh flight on either backend.
        for backend in [cached, uncached] {
            assert!(run_action(backend, &key(8), None).is_none());
            let (bytes, hit) = run_action(backend, &key(8), Some(vec![8])).unwrap();
            assert_eq!(bytes, vec![8]);
            assert!(!hit, "a failed flight caches nothing");
        }
    }

    #[test]
    fn try_begin_walks_hit_owner_inflight() {
        let cache = ActionCache::new(ImageStore::new());
        // Idle key: caller becomes the owner.
        let ticket = match cache.try_begin(&key(1)) {
            TryBegin::Owner(ticket) => ticket,
            other => panic!("expected Owner, got {other:?}"),
        };
        // While the flight is open, racers see InFlight with the same identity.
        let flight = match cache.try_begin(&key(1)) {
            TryBegin::InFlight(flight) => flight,
            other => panic!("expected InFlight, got {other:?}"),
        };
        assert_eq!(flight, ticket.id());
        let blob = cache.complete(ticket, b"flown".to_vec());
        assert_eq!(blob, b"flown");
        // Retired flight: the key now hits.
        match cache.try_begin(&key(1)) {
            TryBegin::Hit(bytes, tier) => {
                assert!(Blob::ptr_eq(&bytes, &blob) || bytes == blob);
                assert_eq!(tier, CacheTier::Memory);
            }
            other => panic!("expected Hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn parked_waker_fires_on_complete_with_the_stored_blob() {
        let cache = ActionCache::new(ImageStore::new());
        let ticket = match cache.try_begin(&key(2)) {
            TryBegin::Owner(ticket) => ticket,
            other => panic!("expected Owner, got {other:?}"),
        };
        let flight = ticket.id();
        let woken = Arc::new(Mutex::new(None));
        let sink = woken.clone();
        let parked = cache.park(
            &flight,
            Box::new(move |outcome| {
                *sink.lock() = Some(outcome);
            }),
        );
        assert!(parked.is_none(), "open flight registers the waker");
        assert!(woken.lock().is_none(), "waker must not fire before retire");
        let blob = cache.complete(ticket, b"woken".to_vec());
        match woken.lock().take() {
            Some(FlightOutcome::Completed(bytes)) => assert_eq!(bytes, blob),
            other => panic!("expected Completed wake, got {other:?}"),
        }
        // The waiter counted as a coalesced hit.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (1, 1, 1));
    }

    #[test]
    fn dropping_an_unredeemed_ticket_poisons_the_flight() {
        // Over a disk tier, so the flight also holds the key's cross-process lock.
        let root = tier::tests::TempRoot::new("poisoned-lock");
        let config = TierConfig::new().disk_root(root.path());
        let cache = ActionCache::with_tiers(ImageStore::new(), config).unwrap();
        let lock_file = root
            .path()
            .join("locks")
            .join(format!("{}.lock", key(3).digest().hex()));
        let ticket = match cache.try_begin(&key(3)) {
            TryBegin::Owner(ticket) => ticket,
            other => panic!("expected Owner, got {other:?}"),
        };
        let flight = ticket.id();
        let woken = Arc::new(Mutex::new(None));
        let sink = woken.clone();
        assert!(cache
            .park(
                &flight,
                Box::new(move |outcome| {
                    *sink.lock() = Some(outcome);
                })
            )
            .is_none());
        assert!(lock_file.exists(), "the open flight holds the lock file");
        drop(ticket); // The owner unwound without redeeming.
        assert!(matches!(
            woken.lock().take(),
            Some(FlightOutcome::Failed(FlightError::Poisoned))
        ));
        assert!(
            !lock_file.exists(),
            "the lock rides in the ticket: a second process must not wait for nobody"
        );
        // Nothing was cached and the key is free again: the waiter can own it.
        assert!(!cache.contains(&key(3)));
        assert!(matches!(cache.try_begin(&key(3)), TryBegin::Owner(_)));
    }

    #[test]
    fn park_after_retire_resolves_inline() {
        let cache = ActionCache::new(ImageStore::new());
        let ticket = match cache.try_begin(&key(4)) {
            TryBegin::Owner(ticket) => ticket,
            other => panic!("expected Owner, got {other:?}"),
        };
        let flight = ticket.id();
        let blob = cache.complete(ticket, b"late".to_vec());
        // The flight retired before we parked: the outcome comes back inline.
        match cache.park(&flight, Box::new(|_| panic!("waker must not run"))) {
            Some(FlightOutcome::Completed(bytes)) => assert_eq!(bytes, blob),
            other => panic!("expected inline Completed, got {other:?}"),
        }
        // A failed flight's late parker is told to retry.
        let ticket = match cache.try_begin(&key(5)) {
            TryBegin::Owner(ticket) => ticket,
            other => panic!("expected Owner, got {other:?}"),
        };
        let flight = ticket.id();
        cache.fail(ticket, FlightError::Failed);
        assert!(matches!(
            cache.park(&flight, Box::new(|_| panic!("waker must not run"))),
            Some(FlightOutcome::Failed(FlightError::Retired))
        ));
    }

    #[test]
    fn panicking_owner_wakes_blocking_waiters_to_retry() {
        // The historical stranding bug: an owner that unwound mid-compute left the
        // flight entry behind and waiters spun forever. The ticket's poison-on-drop
        // now wakes them to retry (and one becomes the next owner).
        let cache = ActionCache::new(ImageStore::new());
        let entered = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            let owner_cache = cache.clone();
            let owner_gate = entered.clone();
            scope.spawn(move || {
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    owner_cache.get_or_compute(&key(6), || -> Result<Vec<u8>, ()> {
                        owner_gate.wait();
                        // Give the waiter time to park on the open flight.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("owner dies mid-compute");
                    })
                }));
                assert!(result.is_err(), "the owner's panic propagates");
            });
            entered.wait();
            let (bytes, hit) = cache
                .get_or_compute(&key(6), || -> Result<Vec<u8>, ()> {
                    Ok(b"recovered".to_vec())
                })
                .unwrap();
            assert_eq!(bytes, b"recovered");
            assert!(!hit, "the waiter recomputed after the poison wake");
        });
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn nocache_flights_are_private_and_unarmed() {
        let backend = NoCache::new(ImageStore::new());
        // Every try_begin owns a fresh private flight — racers never coalesce.
        let first = match backend.try_begin(&key(1)) {
            TryBegin::Owner(ticket) => ticket,
            other => panic!("expected Owner, got {other:?}"),
        };
        let second = match backend.try_begin(&key(1)) {
            TryBegin::Owner(ticket) => ticket,
            other => panic!("expected Owner, got {other:?}"),
        };
        drop(second); // Unarmed: dropping poisons nothing.
        let blob = backend.complete(first, b"fresh".to_vec());
        assert_eq!(blob, b"fresh");
        assert_eq!(backend.stats().misses, 1);
        assert!(matches!(
            backend.park(
                &FlightId {
                    digest: key(1).digest(),
                    nonce: 0
                },
                Box::new(|_| panic!("waker must not run"))
            ),
            Some(FlightOutcome::Failed(FlightError::Retired))
        ));
    }
}
