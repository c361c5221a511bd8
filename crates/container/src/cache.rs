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
//! A key is the SHA-256 of one typed record, written by the one derivation
//! encoder, [`Derivation`]: the action kind, then every input the action reads —
//!
//! * `machine-lower`: the stored IR unit's content digest and the whole target ISA
//!   (name, vector width, FMA);
//! * `ir-lower`: the *preprocessed* content digest (two configurations whose
//!   definitions do not change the token stream share it, the stage-2 identity of
//!   Figure 7), the file, the IR flags (sorted definitions, OpenMP, optimisation
//!   level — never the delayed `-m…` flags) and the early-optimisation switch;
//! * `sd-compile`: the path, the IR flags, the target ISA and the preprocessed digest;
//!
//! each beside the toolchain id (the pipeline's key functions live in
//! `xaas::engine::plan`). Every field is a type tag and a fixed-width value or a
//! length and its bytes, streamed into the hasher: a record reads back as one field
//! sequence, so no two records share a key however their strings are cut, and equal
//! keys imply byte-identical outputs. The digest is taken once, at construction.
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
//! try_begin(key) ──► Hit(blob, tier, h)   the output already exists (in `tier`),
//!                │                        and `h` is the SHA-256 the index holds
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
//! error is never cached and progress is guaranteed. The protocol is the cache's
//! one entrance for computing an action.
//!
//! An [`ActionCache`] built by [`ActionCache::with_tiers`] with a disk root also
//! keeps a persistent [`DiskTier`] under the flight table and memory index; a
//! flight owner reads through it outside the mutex — see [`tier`]. One built by
//! [`ActionCache::bypass`] is the always-compute cache an uncached engine runs on:
//! every caller owns a private flight and nothing is retained.
//!
//! What the disk tier reads back (journal records, segment ranges) is outside input,
//! so the module denies the lints that let a decoder panic on it.

#![deny(clippy::unwrap_used, clippy::indexing_slicing, clippy::dbg_macro)]

pub mod tier;

use crate::blob::Blob;
use crate::digest::{sha256, Digest, DigestError, Sha256};
use crate::image::{ImageStore, StoreGcReport};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use tier::{Claim, DiskClaim, DiskTier, DiskTierStats, TierConfig, TierError};

/// The identity of one memoizable build action: the digest of its derivation record
/// (see the module docs), computed once, at construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BuildKey(Digest);

impl BuildKey {
    /// The four-field derivation of kind `build`: the generic key tests and probes
    /// use. The pipeline's keys are [`Derivation`]s of their action kinds.
    pub fn new(
        tu_digest: impl AsRef<str>,
        target_isa: impl AsRef<str>,
        options: impl AsRef<str>,
        toolchain: impl AsRef<str>,
    ) -> Self {
        Derivation::new("build")
            .str(tu_digest.as_ref())
            .str(target_isa.as_ref())
            .str(options.as_ref())
            .str(toolchain.as_ref())
            .finish()
    }

    /// The stable SHA-256 digest of the derivation record.
    pub fn digest(&self) -> &Digest {
        &self.0
    }

    /// Read a key back from its digest's text (`sha256:` and 64 hex digits), as a
    /// trace prints it; the one way to name a key without its derivation record.
    pub fn parse(text: &str) -> Result<Self, DigestError> {
        Digest::parse(text).map(Self)
    }
}

/// The one derivation encoder: a build action's kind, then its typed fields,
/// streamed into SHA-256 and finished into the [`BuildKey`] they name.
///
/// Every field is a one-byte type tag followed by a fixed-width value or by a
/// length and the bytes, so a record reads back as exactly one sequence of typed
/// fields: no byte can move across a field boundary, and no value of one type can
/// pass for another.
pub struct Derivation(Sha256);

impl Derivation {
    /// Start the record of an action of `kind`.
    pub fn new(kind: &str) -> Self {
        Self(Sha256::new()).str(kind)
    }

    /// Append a string: tag `s`, its byte length, its bytes.
    pub fn str(mut self, value: &str) -> Self {
        self.head(b's', value.len() as u64);
        self.0.update(value.as_bytes());
        self
    }

    /// Append a list of strings: tag `l`, the count, then each as a string.
    pub fn strs<'a, I>(mut self, values: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        self.head(b'l', values.len() as u64);
        values.fold(self, Self::str)
    }

    /// Append an unsigned integer: tag `u`, eight bytes.
    pub fn u64(mut self, value: u64) -> Self {
        self.head(b'u', value);
        self
    }

    /// Append a flag: tag `b`, one byte.
    pub fn bool(mut self, value: bool) -> Self {
        self.0.update(&[b'b', u8::from(value)]);
        self
    }

    /// The key the record names.
    pub fn finish(self) -> BuildKey {
        BuildKey(Digest::from_sha256(self.0.finalize()))
    }

    /// A type tag and a little-endian `u64` (a length, a count or a value).
    fn head(&mut self, tag: u8, value: u64) {
        let mut head = [tag; 9];
        let [_, body @ ..] = &mut head;
        *body = value.to_le_bytes();
        self.0.update(&head);
    }
}

/// Counters describing cache effectiveness. Snapshots are cheap copies.
///
/// The disk-tier counters (`disk_hits`, `promotions`) stay zero for a memory-only
/// cache; an [`ActionCache::with_tiers`] stack with a disk root populates them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (any tier).
    pub hits: u64,
    /// Lookups that had to run the action.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Lookups that parked on a concurrent in-flight computation of the same key and
    /// were then served its result (counted in `hits` as well).
    pub coalesced: u64,
    /// Live entries currently in the cache.
    pub entries: usize,
    /// Hits served by the persistent disk tier (counted in `hits` as well).
    pub disk_hits: u64,
    /// Disk hits copied up into the memory index: one per disk hit, so always
    /// equal to `disk_hits`.
    pub promotions: u64,
    /// Index entries evicted because the backing store no longer held their blob
    /// (stale entries surfaced by store-level GC or a swapped store), plus the
    /// disk tier's [`stale_drops`](DiskTierStats::stale_drops) and
    /// [`corrupt_drops`](DiskTierStats::corrupt_drops).
    pub stale_evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Hits served by the in-memory tier: total hits minus the disk hits.
    pub fn memory_hits(&self) -> u64 {
        self.hits.saturating_sub(self.disk_hits)
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
        };
        hits as f64 / total as f64
    }
}

/// Which tier of a cache stack served a hit: the memory index, or the disk tier
/// that held the output before it was promoted into memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheTier {
    /// The in-memory [`ActionCache`] index.
    Memory,
    /// The persistent on-disk CAS tier ([`DiskTier`]).
    Disk,
}

impl CacheTier {
    /// Stable lowercase label, used in traces and JSON snapshots.
    pub fn label(&self) -> &'static str {
        match self {
            CacheTier::Memory => "memory",
            CacheTier::Disk => "disk",
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
    /// The flight had already retired when the waiter tried to park and the cache
    /// no longer holds its output (evicted, failed, or a bypass cache).
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
    /// The owner completed; the blob shares the store's allocation, and the
    /// hash is its SHA-256, as the index holds it.
    Completed(Blob, [u8; 32]),
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
    /// Flight state to poison if the ticket is dropped unredeemed; `None` for a
    /// [bypass](ActionCache::bypass) cache's private flights and after redemption.
    inner: Option<Arc<Mutex<CacheInner>>>,
    /// The cross-process claim on the key, when a disk tier took one. It lives
    /// exactly as long as the ticket: completing, failing or dropping the ticket
    /// appends its release.
    claim: Option<DiskClaim>,
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
        self.claim = None;
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
    /// the one that held it when the lookup arrived, and the hash is the output's
    /// SHA-256 — the content digest the index already holds, handed back so a
    /// consumer that names the output by its digest hashes nothing.
    Hit(Blob, CacheTier, [u8; 32]),
    /// The caller owns the flight: compute, then redeem the ticket.
    Owner(FlightTicket),
    /// Another owner is computing this key; park a continuation on the id.
    InFlight(FlightId),
}

/// The *nonblocking* flight protocol ([`try_begin`](Self::try_begin) /
/// [`complete`](Self::complete) / [`fail`](Self::fail) / [`park`](Self::park) —
/// see the module docs): the cache's one entrance for computing an action.
///
/// [`ActionCache`] is its one implementation, memoizing or
/// [bypass](ActionCache::bypass); its backing store and counters are the inherent
/// [`ActionCache::store`] and [`ActionCache::stats`].
pub trait CacheBackend: Send + Sync {
    /// Begin (or join) the single flight for `key` without blocking: a cached
    /// output answers [`TryBegin::Hit`], an idle key makes the caller the owner
    /// ([`TryBegin::Owner`]), and a key someone else is computing answers
    /// [`TryBegin::InFlight`] for the caller to [`park`](Self::park) on.
    fn try_begin(&self, key: &BuildKey) -> TryBegin;

    /// Redeem an owned flight with its computed output: store the bytes (unless
    /// the cache is a bypass cache), retire the flight, and wake every parked
    /// waiter with [`FlightOutcome::Completed`]. Returns the stored handle; the
    /// owner, each waiter, and later hits all share one allocation.
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
}

impl CacheBackend for ActionCache {
    fn try_begin(&self, key: &BuildKey) -> TryBegin {
        let digest = key.digest();
        if self.bypass {
            // Never a hit, never coalesced: every caller owns a private flight.
            // The ticket is unarmed (no shared flight state to poison).
            return TryBegin::Owner(FlightTicket {
                digest: digest.clone(),
                nonce: 0,
                inner: None,
                claim: None,
            });
        }
        let mut ticket = {
            let mut inner = self.inner.lock();
            if let Some((bytes, hash)) = inner.resident(&self.store, digest) {
                inner.stats.hits += 1;
                return TryBegin::Hit(bytes, CacheTier::Memory, hash);
            }
            if let Some(flight) = inner.in_flight.get(digest) {
                return TryBegin::InFlight(FlightId {
                    digest: digest.clone(),
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
                digest: digest.clone(),
                nonce,
                inner: Some(self.inner.clone()),
                claim: None,
            }
        };
        // We own the flight, so same-process racers park on it while the disk
        // tier is read — outside the mutex.
        if let Some(hit) = self.read_through(&mut ticket) {
            return hit;
        }
        if let Some(disk) = &self.disk {
            match disk.claim_or_wait(&ticket.digest) {
                Claim::Owner(claim) => ticket.claim = claim,
                Claim::Published => {
                    if let Some(hit) = self.read_through(&mut ticket) {
                        return hit;
                    }
                }
            }
        }
        TryBegin::Owner(ticket)
    }

    fn complete(&self, ticket: FlightTicket, bytes: Vec<u8>) -> Blob {
        self.complete_hashed(ticket, bytes).0
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
        if let Some((bytes, hash)) = inner.resident(&self.store, &flight.digest) {
            inner.stats.hits += 1;
            inner.stats.coalesced += 1;
            return Some(FlightOutcome::Completed(bytes, hash));
        }
        Some(FlightOutcome::Failed(FlightError::Retired))
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

    /// The stored output the index holds for `digest`, with its SHA-256 read off
    /// the content digest the index keeps. An entry whose blob `store` no longer
    /// holds (store-level GC ran, or the store was swapped) is evicted — keeping
    /// `entries`, the FIFO `order` queue and the stale-eviction counter
    /// consistent — instead of lingering as a dead digest.
    fn resident(&mut self, store: &ImageStore, digest: &Digest) -> Option<(Blob, [u8; 32])> {
        let content = self.entries.get(digest)?;
        match store.blob(content) {
            Ok(bytes) => {
                // Every indexed digest is written by `Digest::of_bytes`.
                let hash = content.sha256_bytes().unwrap_or_else(|| sha256(&bytes));
                Some((bytes, hash))
            }
            Err(_) => {
                self.entries.remove(digest);
                self.order.retain(|d| d != digest);
                self.stats.stale_evictions += 1;
                self.stats.entries = self.entries.len();
                None
            }
        }
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
    /// The one tier below the memory index, when [`ActionCache::with_tiers`] was
    /// given a disk root: read through on a miss, written through on a
    /// completion, and claimed across processes before a miss computes.
    disk: Option<Arc<DiskTier>>,
    /// Set by [`ActionCache::bypass`]: every flight is private and unarmed, and
    /// a completion is a miss that stores and indexes nothing.
    bypass: bool,
}

impl ActionCache {
    /// An unbounded cache backed by `store`.
    pub fn new(store: ImageStore) -> Self {
        Self {
            store,
            capacity: None,
            inner: Arc::new(Mutex::new(CacheInner::default())),
            disk: None,
            bypass: false,
        }
    }

    /// An always-compute cache whose images and blobs land in `store`: every
    /// [`try_begin`](CacheBackend::try_begin) owns a private, unarmed flight
    /// without reading the index, and [`complete`](CacheBackend::complete) books
    /// one miss and hands the bytes back without storing or indexing them. This
    /// is what an uncached engine runs on.
    pub fn bypass(store: ImageStore) -> Self {
        Self {
            bypass: true,
            ..Self::new(store)
        }
    }

    /// A cache that evicts (FIFO) beyond `capacity` entries.
    ///
    /// The bound applies to the key→blob *index* only: eviction drops the memoization
    /// entry, not the output blob, because the backing store is a shared CAS whose
    /// blobs may also be referenced by committed image layers. Unreferenced blobs are
    /// reclaimed by store-level garbage collection
    /// ([`ImageStore::collect_garbage`](crate::image::ImageStore::collect_garbage)),
    /// with the cache's live outputs pinned.
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
    /// disk tier when one is configured (opened, and its journal replayed, here).
    pub fn with_tiers(store: ImageStore, config: TierConfig) -> Result<Self, TierError> {
        let mut cache = match config.l1_capacity {
            Some(capacity) => Self::with_capacity(store, capacity).map_err(TierError::Config)?,
            None => Self::new(store),
        };
        cache.disk = config.disk.map(DiskTier::open).transpose()?.map(Arc::new);
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
    /// entries. The disk tier is not swept: it bounds itself.
    pub fn collect_garbage(&self) -> StoreGcReport {
        self.store.collect_garbage(&self.indexed_blobs())
    }

    /// [`CacheBackend::complete`], also handing back the output's SHA-256 — the
    /// content digest the index now holds — or `None` from a bypass cache, which
    /// hashes nothing.
    pub fn complete_hashed(
        &self,
        mut ticket: FlightTicket,
        bytes: Vec<u8>,
    ) -> (Blob, Option<[u8; 32]>) {
        // The handle adopts the computed buffer; the store keeps a clone of the
        // handle (a refcount bump), not a copy of the payload.
        let bytes = Blob::new(bytes);
        if self.bypass {
            self.inner.lock().stats.misses += 1;
            return (bytes, None);
        }
        let hash = sha256(&bytes);
        let content = Digest::from_sha256(hash);
        if let Some(disk) = &self.disk {
            disk.store(&ticket.digest, &content, &bytes);
        }
        self.land(&mut ticket, content, hash, &bytes, |stats| {
            stats.misses += 1
        });
        (bytes, Some(hash))
    }

    /// Read the ticket's key through the disk tier. Bytes that hash to the digest
    /// the journal recorded are promoted into the memory index and landed as the
    /// flight's output; a mismatch is discarded from the tier — a damaged blob is
    /// never served — and the lookup is a miss.
    fn read_through(&self, ticket: &mut FlightTicket) -> Option<TryBegin> {
        let disk = self.disk.as_ref()?;
        let (recorded, bytes) = disk.load(&ticket.digest)?;
        // The read's own buffer is what the store and every waiter share.
        let blob = Blob::new(bytes);
        // The one hash a promotion pays is also the verification.
        let hash = sha256(&blob);
        if recorded.sha256_bytes() != Some(hash) {
            disk.discard(&ticket.digest);
            return None;
        }
        self.land(ticket, recorded, hash, &blob, |stats| {
            stats.hits += 1;
            stats.disk_hits += 1;
            stats.promotions += 1;
        });
        Some(TryBegin::Hit(blob, CacheTier::Disk, hash))
    }

    /// Redeem the ticket with `blob` (content digest `content`, whose raw hash is
    /// `hash`): store and index it, retire the flight, and wake every parked
    /// waiter — each a coalesced hit — once all locks are released. `book` counts
    /// the event itself under the lock.
    fn land(
        &self,
        ticket: &mut FlightTicket,
        content: Digest,
        hash: [u8; 32],
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
            waker(FlightOutcome::Completed(blob.clone(), hash));
        }
    }

    /// Look up an action output in the memory index. Does not touch hit/miss
    /// counters — [`CacheBackend::try_begin`] is the accounted path. The returned
    /// handle shares the store's allocation.
    ///
    /// An index entry whose blob the store no longer holds (store-level GC ran, or
    /// the store was swapped) is evicted here — counted in
    /// [`CacheStats::stale_evictions`] — instead of lingering as a dead digest that
    /// inflates `entries` and clogs the FIFO order queue.
    pub fn peek(&self, key: &BuildKey) -> Option<Blob> {
        let resident = self.inner.lock().resident(&self.store, key.digest());
        resident.map(|(blob, _)| blob)
    }

    /// Whether the memory index currently holds an output for `key`.
    pub fn contains(&self, key: &BuildKey) -> bool {
        self.inner.lock().entries.contains_key(key.digest())
    }

    /// Index an action output produced elsewhere (memory index only; no write-through).
    pub fn insert(&self, key: &BuildKey, bytes: impl Into<Blob>) -> Digest {
        let blob = self.store.put_blob(bytes);
        let mut inner = self.inner.lock();
        self.record_entry(&mut inner, key.digest().clone(), blob.clone());
        blob
    }

    /// Register `digest → blob` in the index and enforce the capacity bound (shared by
    /// `land`, where every completed flight is booked, and [`ActionCache::insert`]).
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

    /// A snapshot of the cache counters. `stale_evictions` folds in the disk
    /// tier's stale and corrupt drops.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.inner.lock().stats;
        if let Some(disk) = self.disk_stats() {
            stats.stale_evictions += disk.stale_drops + disk.corrupt_drops;
        }
        stats
    }

    /// The content digests of every blob the index currently references — the pin
    /// set store-level garbage collection must not reclaim (see
    /// [`ImageStore::collect_garbage`](crate::image::ImageStore::collect_garbage)).
    pub(crate) fn indexed_blobs(&self) -> Vec<Digest> {
        self.inner.lock().entries.values().cloned().collect()
    }
}

impl std::fmt::Debug for ActionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ActionCache")
            .field("capacity", &self.capacity)
            .field("bypass", &self.bypass)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;

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
        assert_eq!(a, key(1));
        assert_ne!(
            a,
            BuildKey::new("tu1", "x86-avx_512", "defs=;openmp=false;opt=O2", "xirc")
        );
        // Length-prefixed fields: moving bytes between fields changes the digest.
        let c = BuildKey::new("tu1x", "ir", "o", "t");
        let d = BuildKey::new("tu1", "xir", "o", "t");
        assert_ne!(c, d);
    }

    /// A field holding another field's separator and tag cannot forge a second key:
    /// a `tu=…\nisa=…` rendering gave these two one text.
    #[test]
    fn separator_bytes_in_a_field_cannot_forge_another_key() {
        assert_ne!(
            BuildKey::new("x\nisa=y", "z", "o", "t"),
            BuildKey::new("x", "y\nisa=z", "o", "t")
        );
        assert_ne!(
            BuildKey::new("a;b", "c", "o", "t"),
            BuildKey::new("a", "b;c", "o", "t")
        );
    }

    /// The record is the kind and the fields, each a type tag and a little-endian
    /// length or value, hashed once: the key and its `Debug` are that digest, and
    /// the digest's text parses back to the key.
    #[test]
    fn a_key_is_the_digest_of_its_typed_record() {
        fn string(record: &mut Vec<u8>, value: &str) {
            record.push(b's');
            record.extend_from_slice(&(value.len() as u64).to_le_bytes());
            record.extend_from_slice(value.as_bytes());
        }
        let mut record = Vec::new();
        for field in [
            "build",
            "tu1",
            "xir.ir",
            "defs=;openmp=false;opt=O2",
            "xirc",
        ] {
            string(&mut record, field);
        }
        let digest = Digest::of_bytes(&record);
        assert_eq!(key(1).digest(), &digest);
        assert!(format!("{:?}", key(1)).contains(digest.as_str()));

        let mut record = Vec::new();
        string(&mut record, "kind");
        record.push(b'l');
        record.extend_from_slice(&2u64.to_le_bytes());
        string(&mut record, "-DA");
        string(&mut record, "");
        record.push(b'u');
        record.extend_from_slice(&8u64.to_le_bytes());
        record.extend_from_slice(&[b'b', 1]);
        let typed = Derivation::new("kind")
            .strs(["-DA", ""])
            .u64(8)
            .bool(true)
            .finish();
        assert_eq!(typed.digest(), &Digest::of_bytes(&record));

        assert_eq!(BuildKey::parse(digest.as_str()).unwrap(), key(1));
        assert_eq!(
            BuildKey::parse(digest.hex()),
            Err(DigestError::MissingSeparator)
        );
        assert_eq!(
            BuildKey::parse(&digest.as_str()[..70]),
            Err(DigestError::InvalidHex)
        );
    }

    /// A value of one type never passes for another, and a list is not its items.
    #[test]
    fn typed_fields_do_not_collide_across_types() {
        let kind = || Derivation::new("kind");
        let keys = [
            kind().u64(1).finish(),
            kind().bool(true).finish(),
            kind().str("\u{1}").finish(),
            kind().strs(["a", "b"]).finish(),
            kind().str("a").str("b").finish(),
            kind().strs([]).finish(),
            kind().finish(),
            Derivation::new("other").finish(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Four fields drawn from separator-heavy bytes, cut again at other points:
        /// moving any byte across a field boundary changes the key.
        #[test]
        fn moving_bytes_across_a_field_boundary_changes_the_key(
            fields in proptest::collection::vec("[ab\n=;]{0,5}", 4),
            cuts in proptest::collection::vec(0usize..=20, 3),
        ) {
            let whole = fields.concat();
            let mut cuts: Vec<usize> = cuts.iter().map(|&cut| cut.min(whole.len())).collect();
            cuts.sort_unstable();
            let bounds = [0, cuts[0], cuts[1], cuts[2], whole.len()];
            let moved: Vec<&str> = bounds.windows(2).map(|w| &whole[w[0]..w[1]]).collect();
            let before = BuildKey::new(&fields[0], &fields[1], &fields[2], &fields[3]);
            let after = BuildKey::new(moved[0], moved[1], moved[2], moved[3]);
            proptest::prop_assert_eq!(
                before == after,
                moved.iter().zip(&fields).all(|(m, f)| m == f),
                "{:?} recut as {:?}",
                fields,
                moved
            );
        }
    }

    #[test]
    fn hits_and_the_store_share_one_allocation() {
        let cache = ActionCache::new(ImageStore::new());
        let (first, _) = run_action(&cache, &key(3), Some(b"shared".to_vec())).unwrap();
        let (second, hit) = run_action(&cache, &key(3), None).unwrap();
        assert!(hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        let stored = cache.store().blob(&Digest::of_bytes(b"shared")).unwrap();
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
        assert!(run_action(&cache, &key(2), None).is_none());
        assert_eq!(cache.stats().entries, 0);
        let (bytes, hit) = run_action(&cache, &key(2), Some(vec![7])).unwrap();
        assert_eq!(bytes, vec![7]);
        assert!(!hit);
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let cache = ActionCache::with_capacity(ImageStore::new(), 2).unwrap();
        for n in 0..3 {
            run_action(&cache, &key(n), Some(vec![n as u8])).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(!cache.contains(&key(0)), "oldest entry evicted");
        assert!(cache.contains(&key(2)));
        // Evicted key recomputes (a second miss), others still hit.
        let (_, hit) = run_action(&cache, &key(0), Some(vec![0])).unwrap();
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

    /// One single-threaded action through the flight protocol, the way the
    /// executor drives a backend: a hit, or own the flight and redeem it with
    /// `output` (`None` = the compute failed).
    fn run_action(
        backend: &ActionCache,
        key: &BuildKey,
        output: Option<Vec<u8>>,
    ) -> Option<(Blob, bool)> {
        match backend.try_begin(key) {
            TryBegin::Hit(blob, _, _) => Some((blob, true)),
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
        let backend = ActionCache::bypass(ImageStore::new());
        for _ in 0..3 {
            let (bytes, hit) = run_action(&backend, &key(1), Some(b"fresh".to_vec())).unwrap();
            assert_eq!(bytes, b"fresh");
            assert!(
                !hit,
                "a bypass cache never reports a hit: every action executes"
            );
        }
        let stats = backend.stats();
        assert_eq!((stats.hits, stats.misses), (0, 3));
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn action_cache_and_nocache_agree_through_the_backend_trait() {
        let store = ImageStore::new();
        let cached = &ActionCache::new(store.clone());
        let uncached = &ActionCache::bypass(store.clone());
        for backend in [cached, uncached] {
            let (bytes, hit) = run_action(backend, &key(7), Some(vec![7, 7])).unwrap();
            assert_eq!(bytes, vec![7, 7]);
            assert!(!hit);
        }
        // Second round: the memoizing cache hits, the bypass cache recomputes.
        let (_, hit) = run_action(cached, &key(7), Some(vec![7, 7])).unwrap();
        assert!(hit);
        let (_, hit) = run_action(uncached, &key(7), Some(vec![7, 7])).unwrap();
        assert!(!hit);
        // Failures retire the flight without caching anything: the next caller
        // owns a fresh flight on either cache.
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
            TryBegin::Hit(bytes, tier, _) => {
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
            Some(FlightOutcome::Completed(bytes, _)) => assert_eq!(bytes, blob),
            other => panic!("expected Completed wake, got {other:?}"),
        }
        // The waiter counted as a coalesced hit.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (1, 1, 1));
    }

    #[test]
    fn dropping_an_unredeemed_ticket_poisons_the_flight() {
        // Over a disk tier, so the flight also holds the key's cross-process claim.
        let root = tier::tests::TempRoot::new("poisoned-claim");
        let config = TierConfig::new().disk_root(root.path());
        let cache = ActionCache::with_tiers(ImageStore::new(), config).unwrap();
        let claims = || std::fs::read_to_string(root.path().join("claims.log")).unwrap();
        let key_hex = key(3).digest().hex().to_string();
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
        let open = claims();
        assert!(
            open.starts_with(&format!("claim {key_hex} ")) && !open.contains("release"),
            "the open flight holds the claim: {open}"
        );
        drop(ticket); // The owner unwound without redeeming.
        assert!(matches!(
            woken.lock().take(),
            Some(FlightOutcome::Failed(FlightError::Poisoned))
        ));
        assert!(
            claims().contains(&format!("release {key_hex} ")),
            "the claim rides in the ticket: a second process must not wait for nobody"
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
            Some(FlightOutcome::Completed(bytes, _)) => assert_eq!(bytes, blob),
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
    fn nocache_flights_are_private_and_unarmed() {
        let backend = ActionCache::bypass(ImageStore::new());
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
                    digest: key(1).digest().clone(),
                    nonce: 0
                },
                Box::new(|_| panic!("waker must not run"))
            ),
            Some(FlightOutcome::Failed(FlightError::Retired))
        ));
    }

    /// A bypass cache keeps no output: the fleet's uncached baseline shares its
    /// store with a memoizing cache, so a completion must leave the store as it was.
    #[test]
    fn a_bypass_cache_retains_nothing() {
        let store = ImageStore::new();
        let before = store.stats();
        let cache = ActionCache::bypass(store.clone());
        let (bytes, hit) = run_action(&cache, &key(9), Some(b"transient".to_vec())).unwrap();
        assert_eq!(bytes, b"transient");
        assert!(!hit);
        assert!(cache.peek(&key(9)).is_none());
        assert!(!cache.contains(&key(9)));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses), (0, 1));
        assert_eq!(store.stats(), before);
    }
}
