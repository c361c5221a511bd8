//! The tiers below the memory index: the [`Tier`] trait and the persistent on-disk CAS.
//!
//! The paper's economics rest on specialization work being *reusable*; a memory-only
//! [`ActionCache`](super::ActionCache) forfeits that reuse the moment the orchestrator
//! process exits. A cache built with
//! [`ActionCache::with_tiers`](super::ActionCache::with_tiers) therefore keeps an
//! ordered list of [`Tier`]s under its flight table and memory index, and one walk
//! serves every lookup:
//!
//! ```text
//!                try_begin(key)
//!                      │
//!        ┌─────────────▼──────────────┐
//!        │  memory index + flights    │── Hit ──────────────► Hit(_, Memory)
//!        └─────────────┬──────────────┘
//!                Owner │ (miss; the mutex is released)
//!        ┌─────────────▼──────────────┐
//!        │  lower[0]  DiskTier (blob  │── get ─┐
//!        │            CAS + journal)  │        │ verify: hash == recorded digest,
//!        ├────────────────────────────┤        │ else discard and keep walking
//!        │  lower[1…] any other Tier  │── get ─┤
//!        └─────────────┬──────────────┘        ▼
//!                      │ (miss)         put into every faster tier, store, index,
//!                      ▼                retire the flight ─► Hit(_, tier.kind())
//!             Owner(ticket) — caller computes; complete() hashes once and puts
//!             the output into every tier so each can serve the next request
//! ```
//!
//! * **Verification on promotion:** a tier hands back the content digest it
//!   *recorded* beside the bytes it *read*; the one hash promotion pays anyway is
//!   compared with it, so a damaged blob is [`discard`](Tier::discard)ed and
//!   recomputed, never served.
//! * **Persistence:** the disk tier is a content-addressed blob directory plus an
//!   append-only index journal (in the style of OxidePM's derivation store and
//!   Bazel's disk cache). Reopening the same root after a process restart replays
//!   the journal, so a warm restart serves byte-identical outputs with zero
//!   recomputes. Everything read back — journal records, blob files — is treated
//!   as outside input.
//! * **Cross-process single-flight:** a true miss takes a `locks/<key>.lock` file
//!   (atomic `create_new`) before ownership is handed to the caller; the guard
//!   rides in the [`FlightTicket`](super::FlightTicket) and is released when the
//!   ticket is completed, failed or dropped. A second builder process that misses
//!   on the same key waits (bounded) for the lock holder and then serves the
//!   freshly written disk blob instead of recomputing; stale locks left by crashed
//!   owners are broken after a timeout.
//! * **Eviction per tier:** the memory index keeps its FIFO bound; the disk tier
//!   evicts oldest-first beyond a byte budget (deleting unreferenced blob files and
//!   journaling tombstones).

use super::{CacheConfigError, CacheTier};
use crate::digest::Digest;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors raised while opening or operating a cache tier.
#[derive(Debug)]
pub enum TierError {
    /// A filesystem operation under the disk-tier root failed.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The tier stack was misconfigured (e.g. a zero L1 capacity).
    Config(CacheConfigError),
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::Io { path, source } => {
                write!(f, "disk tier I/O error at {}: {source}", path.display())
            }
            TierError::Config(error) => write!(f, "tier configuration rejected: {error}"),
        }
    }
}

impl std::error::Error for TierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TierError::Io { source, .. } => Some(source),
            TierError::Config(error) => Some(error),
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> TierError {
    TierError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// One tier below an [`ActionCache`](super::ActionCache)'s memory index. The cache
/// walks its tiers in order on a miss and writes through all of them on a
/// completion; single-flight, promotion, verification and counters live in the
/// cache, so a tier only stores and fetches. Failures degrade to a miss.
pub trait Tier: Send + Sync {
    /// Which [`CacheTier`] hits served by this tier are attributed to.
    fn kind(&self) -> CacheTier;

    /// The output for `key`: the content digest recorded when it was
    /// [`put`](Self::put), and the bytes as read back now. The caller verifies
    /// one against the other.
    fn get(&self, key: &Digest) -> Option<(Digest, Vec<u8>)>;

    /// Hold `bytes` (content digest `content`) as the output for `key`. Idempotent.
    fn put(&self, key: &Digest, content: &Digest, bytes: &[u8]);

    /// Drop `key`: what [`get`](Self::get) returned for it failed verification.
    fn discard(&self, key: &Digest);
}

/// Configuration of the persistent on-disk tier.
#[derive(Debug, Clone)]
pub struct DiskTierConfig {
    root: PathBuf,
    capacity_bytes: Option<u64>,
    lock_timeout: Duration,
}

/// How often a lookup waiting on another process's lock looks again.
const LOCK_POLL: Duration = Duration::from_millis(2);

impl DiskTierConfig {
    /// A disk tier rooted at `root` (created if absent), unbounded, with a 2 s
    /// cross-process lock timeout.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            capacity_bytes: None,
            lock_timeout: Duration::from_secs(2),
        }
    }

    /// Bound the tier to `bytes` of blob payload; oldest entries are evicted beyond it.
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.capacity_bytes = Some(bytes);
        self
    }

    /// How long a missing-everywhere lookup waits for another process's lock before
    /// breaking it (crash recovery) and computing itself.
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }
}

/// Counters for the disk tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskTierStats {
    /// Keys currently indexed on disk.
    pub entries: usize,
    /// Blob payload bytes currently on disk.
    pub bytes: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Index entries dropped because their blob file was missing or unreadable
    /// (journal replay after a crash, or files removed behind our back).
    pub stale_drops: u64,
    /// Entries dropped because the blob read back did not hash to the content
    /// digest the journal recorded (overwritten or truncated file); the file is
    /// moved to `quarantine/`.
    #[serde(default)]
    pub corrupt_drops: u64,
    /// Misses that were answered by waiting on (and then reading behind) another
    /// process's lock file instead of recomputing.
    pub lock_waits: u64,
    /// Stale lock files broken after `lock_timeout` (crashed owner recovery).
    pub locks_broken: u64,
}

#[derive(Clone)]
struct DiskEntry {
    content: Digest,
    /// Size of the blob file. `None` only inside [`DiskTier::replay`], between a
    /// journal `put` being applied and its blob file being sized.
    len: Option<u64>,
}

impl DiskEntry {
    fn len(&self) -> u64 {
        self.len.unwrap_or(0)
    }
}

struct DiskState {
    index: BTreeMap<String, DiskEntry>,
    /// Insertion order of key digests for oldest-first eviction.
    order: VecDeque<String>,
    bytes: u64,
    journal: fs::File,
    /// How far into `index.log` this instance has replayed. Another process
    /// appending to the shared journal moves the file past this offset; catching
    /// up from here (see [`DiskTier::refresh_from_journal`]) is how one builder
    /// process observes entries a concurrent builder published.
    journal_offset: u64,
    /// The event counters; `entries` and `bytes` are filled in by [`DiskTier::stats`].
    stats: DiskTierStats,
}

impl DiskState {
    /// Append one record with a single `write`: under `O_APPEND` that is one
    /// atomic append, so another process sharing the root never observes, or
    /// interleaves with, part of a line — only a crash leaves a torn tail.
    fn journal(&mut self, record: std::fmt::Arguments<'_>) {
        let _ = self.journal.write_all(format!("{record}\n").as_bytes());
    }

    /// Drop `key` from the index and journal the tombstone; the caller counts why.
    fn forget(&mut self, key: &str) -> Option<DiskEntry> {
        let entry = self.index.remove(key)?;
        self.order.retain(|k| k != key);
        self.bytes = self.bytes.saturating_sub(entry.len());
        self.journal(format_args!("del {key}"));
        Some(entry)
    }
}

/// The persistent on-disk CAS tier: digest-named blob files plus an append-only
/// index journal, surviving process restarts. See the module docs for the layout.
pub struct DiskTier {
    config: DiskTierConfig,
    state: Mutex<DiskState>,
}

/// An exclusive cross-process claim on one key, backed by a `locks/<key>.lock`
/// file. Dropping the guard releases the claim (removes the file).
pub(super) struct DiskLock {
    path: PathBuf,
}

impl Drop for DiskLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// How [`DiskTier::claim_or_wait`] ended.
pub(super) enum Claim {
    /// The caller computes the key. The guard is `None` when the holder outlived
    /// `lock_timeout` without publishing: compute unlocked rather than stall.
    Owner(Option<DiskLock>),
    /// Another process published the key to the disk tier while we waited.
    Published,
}

impl DiskTier {
    /// Open (or create) the tier under `config.root`, replaying the index journal.
    ///
    /// Journal entries whose blob file no longer exists are dropped — counted in
    /// [`DiskTierStats::stale_drops`] — so the in-memory index always reflects what
    /// the directory can actually serve.
    pub fn open(config: DiskTierConfig) -> Result<Self, TierError> {
        let blobs = config.root.join("blobs");
        let locks = config.root.join("locks");
        fs::create_dir_all(&blobs).map_err(|e| io_err(&blobs, e))?;
        fs::create_dir_all(&locks).map_err(|e| io_err(&locks, e))?;
        let journal_path = config.root.join("index.log");
        let text = fs::read(&journal_path).unwrap_or_default();
        let mut index = BTreeMap::new();
        let mut order = VecDeque::new();
        let stale_drops = Self::replay(&blobs, &text, &mut index, &mut order);
        let mut journal = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| io_err(&journal_path, e))?;
        // A crash mid-append leaves a fragment with no newline. Terminate it, or
        // our first append lands on the same line and is lost with it; terminated,
        // the fragment is one more (usually malformed) line that replay judged.
        let torn = text.last().is_some_and(|&byte| byte != b'\n');
        if torn {
            journal
                .write_all(b"\n")
                .map_err(|e| io_err(&journal_path, e))?;
        }
        Ok(Self {
            config,
            state: Mutex::new(DiskState {
                bytes: Self::total_bytes(&index),
                index,
                order,
                journal,
                journal_offset: text.len() as u64 + u64::from(torn),
                stats: DiskTierStats {
                    stale_drops,
                    ..DiskTierStats::default()
                },
            }),
        })
    }

    /// Apply one journal line to an index. `put` lines for an already-indexed key
    /// replace the entry without consuming a second FIFO slot; malformed or torn
    /// lines are skipped. Records are outside input: a `put` is accepted only with
    /// a 64-hex-character key and a well-formed content digest, and the `len` it
    /// claims is never used — [`replay`](Self::replay) sizes the entry from the
    /// blob file itself.
    fn apply_journal_line(
        line: &str,
        index: &mut BTreeMap<String, DiskEntry>,
        order: &mut VecDeque<String>,
    ) {
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("put") => {
                let (Some(key), Some(content), Some(len)) =
                    (fields.next(), fields.next(), fields.next())
                else {
                    return;
                };
                let (Ok(content), Ok(_)) = (Digest::parse(content), len.parse::<u64>()) else {
                    return;
                };
                let hex = |b: u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
                if key.len() != 64 || !key.bytes().all(hex) {
                    return;
                }
                if index.get(key).is_some_and(|e| e.content == content) {
                    return; // our own append, re-read by a catch-up
                }
                if index
                    .insert(key.to_string(), DiskEntry { content, len: None })
                    .is_none()
                {
                    order.push_back(key.to_string());
                }
            }
            Some("del") => {
                if let Some(key) = fields.next() {
                    if index.remove(key).is_some() {
                        order.retain(|k| k != key);
                    }
                }
            }
            _ => {}
        }
    }

    /// Apply journal `text` to an index, then size every entry it put from the
    /// blob file's metadata (one `stat` answers both "is it there" and "how big"),
    /// dropping entries whose file is gone (crash between journal append and file
    /// rename, or an external cleanup). Returns how many were dropped.
    fn replay(
        blobs: &Path,
        text: &[u8],
        index: &mut BTreeMap<String, DiskEntry>,
        order: &mut VecDeque<String>,
    ) -> u64 {
        for line in String::from_utf8_lossy(text).lines() {
            Self::apply_journal_line(line, index, order);
        }
        let mut missing = Vec::new();
        for (key, entry) in index.iter_mut().filter(|(_, e)| e.len.is_none()) {
            match fs::metadata(blobs.join(entry.content.hex())) {
                Ok(file) if file.is_file() => entry.len = Some(file.len()),
                _ => missing.push(key.clone()),
            }
        }
        for key in &missing {
            index.remove(key);
            order.retain(|k| k != key);
        }
        missing.len() as u64
    }

    fn total_bytes(index: &BTreeMap<String, DiskEntry>) -> u64 {
        index
            .values()
            .fold(0, |sum, entry| sum.saturating_add(entry.len()))
    }

    /// Catch up on journal lines appended since this instance last looked —
    /// including by *other processes* sharing the root. Replaying is idempotent:
    /// our own already-applied lines re-apply as no-ops (the put/del sequence in
    /// the journal is exactly the sequence our in-memory index followed).
    fn refresh_from_journal(&self, state: &mut DiskState) {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let path = self.config.root.join("index.log");
        let Ok(mut file) = fs::File::open(&path) else {
            return;
        };
        if file.seek(SeekFrom::Start(state.journal_offset)).is_err() {
            return;
        }
        let mut text = Vec::new();
        if file.read_to_end(&mut text).is_err() {
            return;
        }
        // Complete lines only: a tail still being written is left before the
        // offset so a later catch-up re-reads it once finished.
        let complete = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if complete == 0 {
            return;
        }
        let blobs = self.config.root.join("blobs");
        state.stats.stale_drops += Self::replay(
            &blobs,
            &text[..complete],
            &mut state.index,
            &mut state.order,
        );
        state.journal_offset += complete as u64;
        state.bytes = Self::total_bytes(&state.index);
    }

    fn blob_path(&self, content: &Digest) -> PathBuf {
        self.config.root.join("blobs").join(content.hex())
    }

    fn lock_path(&self, key: &Digest) -> PathBuf {
        self.config
            .root
            .join("locks")
            .join(format!("{}.lock", key.hex()))
    }

    /// Read the output for `key` — the content digest the journal recorded and the
    /// blob file's bytes, for the caller to verify against each other — dropping
    /// the entry (a stale drop) when the file is gone or unreadable. I/O failures
    /// degrade to a miss, never an error: the caller simply recomputes.
    ///
    /// A key absent from the in-memory index triggers a journal catch-up first, so
    /// an entry published by a concurrent builder process is found rather than
    /// recomputed.
    pub fn load(&self, key: &Digest) -> Option<(Digest, Vec<u8>)> {
        let entry = {
            let mut state = self.state.lock();
            if !state.index.contains_key(key.hex()) {
                self.refresh_from_journal(&mut state);
            }
            state.index.get(key.hex()).cloned()?
        };
        match fs::read(self.blob_path(&entry.content)) {
            Ok(bytes) => Some((entry.content, bytes)),
            Err(_) => {
                let mut state = self.state.lock();
                if state.forget(key.hex()).is_some() {
                    state.stats.stale_drops += 1;
                }
                None
            }
        }
    }

    /// Persist `bytes` (content digest `content`) as the output for `key`.
    ///
    /// The blob file is written to a temp name and renamed into place so a crash
    /// never leaves a half-written digest-named file; the journal records the index
    /// entry afterwards. A file already there under the name is replaced, not
    /// trusted: it may be the damaged blob this key was just recomputed for. I/O
    /// failures are swallowed — the tier degrades to a miss.
    pub fn store(&self, key: &Digest, content: &Digest, bytes: &[u8]) {
        let mut state = self.state.lock();
        if state
            .index
            .get(key.hex())
            .is_some_and(|e| e.content == *content)
        {
            return; // idempotent re-store
        }
        let path = self.blob_path(content);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if fs::write(&tmp, bytes)
            .and_then(|()| fs::rename(&tmp, &path))
            .is_err()
        {
            let _ = fs::remove_file(&tmp);
            return;
        }
        let hex = key.hex().to_string();
        let entry = DiskEntry {
            content: content.clone(),
            len: Some(bytes.len() as u64),
        };
        if let Some(previous) = state.index.insert(hex.clone(), entry) {
            // Same key, new content: keep the single order slot, adjust the byte count.
            state.bytes = state.bytes.saturating_sub(previous.len());
        } else {
            state.order.push_back(hex.clone());
        }
        state.bytes = state.bytes.saturating_add(bytes.len() as u64);
        state.journal(format_args!("put {hex} {content} {}", bytes.len()));
        self.enforce_capacity(&mut state);
    }

    /// Evict oldest-first until the byte budget holds, deleting blob files no other
    /// index entry references and journaling a tombstone per eviction.
    fn enforce_capacity(&self, state: &mut DiskState) {
        let Some(capacity) = self.config.capacity_bytes else {
            return;
        };
        while state.bytes > capacity && state.index.len() > 1 {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            let Some(entry) = state.index.remove(&oldest) else {
                continue;
            };
            state.bytes = state.bytes.saturating_sub(entry.len());
            state.stats.evictions += 1;
            state.journal(format_args!("del {oldest}"));
            let still_referenced = state.index.values().any(|e| e.content == entry.content);
            if !still_referenced {
                let _ = fs::remove_file(self.blob_path(&entry.content));
            }
        }
    }

    /// Try to claim the cross-process lock for `key` without waiting; `None` when
    /// another process holds it. A lock file older than `lock_timeout` is treated
    /// as abandoned by a crashed owner and broken.
    fn try_lock(&self, key: &Digest) -> Option<DiskLock> {
        let path = self.lock_path(key);
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let _ = writeln!(file, "{}", std::process::id());
                    return Some(DiskLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > self.config.lock_timeout);
                    if !stale {
                        return None;
                    }
                    self.state.lock().stats.locks_broken += 1;
                    let _ = fs::remove_file(&path);
                    // Retry the create_new once after breaking the stale lock.
                }
                Err(_) => return None,
            }
        }
        None
    }

    /// Whether `key` is indexed after catching up on the journal — i.e. the
    /// process whose lock we waited on published it. Counted as a lock wait.
    fn published(&self, key: &Digest) -> bool {
        let mut state = self.state.lock();
        self.refresh_from_journal(&mut state);
        let found = state.index.contains_key(key.hex());
        state.stats.lock_waits += u64::from(found);
        found
    }

    /// On a miss in every tier, claim the cross-process lock before the caller
    /// computes. If another *process* holds it, wait (bounded by the lock timeout)
    /// for it to publish the output to disk, so the caller serves that instead of
    /// recomputing; a lock that never resolves is broken and ownership taken.
    pub(super) fn claim_or_wait(&self, key: &Digest) -> Claim {
        if let Some(lock) = self.try_lock(key) {
            return Claim::Owner(Some(lock));
        }
        // Another process is computing this key. Poll for its result: the entry
        // landing in the journal or the lock dissolving, whichever first.
        let deadline = Instant::now() + self.config.lock_timeout;
        loop {
            std::thread::sleep(LOCK_POLL);
            if self.published(key) {
                return Claim::Published;
            }
            match self.try_lock(key) {
                // The other owner released (or its stale lock was broken): one
                // final probe under our claim, then own the compute.
                Some(_) if self.published(key) => return Claim::Published,
                Some(lock) => return Claim::Owner(Some(lock)),
                None if Instant::now() >= deadline => return Claim::Owner(None),
                None => {}
            }
        }
    }

    /// A snapshot of the tier's counters.
    pub fn stats(&self) -> DiskTierStats {
        let state = self.state.lock();
        DiskTierStats {
            entries: state.index.len(),
            bytes: state.bytes,
            ..state.stats
        }
    }
}

impl Tier for DiskTier {
    fn kind(&self) -> CacheTier {
        CacheTier::Disk
    }

    fn get(&self, key: &Digest) -> Option<(Digest, Vec<u8>)> {
        self.load(key)
    }

    fn put(&self, key: &Digest, content: &Digest, bytes: &[u8]) {
        self.store(key, content, bytes);
    }

    /// The bytes [`load`](DiskTier::load) returned did not hash to the recorded
    /// digest: journal the tombstone and move the blob file into `quarantine/`,
    /// out of the way of a rewrite and kept for inspection.
    fn discard(&self, key: &Digest) {
        let mut state = self.state.lock();
        let Some(entry) = state.forget(key.hex()) else {
            return;
        };
        state.stats.corrupt_drops += 1;
        let quarantine = self.config.root.join("quarantine");
        let _ = fs::create_dir_all(&quarantine).and_then(|()| {
            fs::rename(
                self.blob_path(&entry.content),
                quarantine.join(entry.content.hex()),
            )
        });
    }
}

/// Configuration of an [`ActionCache::with_tiers`](super::ActionCache::with_tiers)
/// stack. Every tier below the memory index is optional, so `TierConfig::new()`
/// alone is just a plain in-memory cache.
#[derive(Clone, Default)]
pub struct TierConfig {
    pub(super) l1_capacity: Option<usize>,
    pub(super) disk: Option<DiskTierConfig>,
    pub(super) below_disk: Vec<Arc<dyn Tier>>,
}

impl TierConfig {
    /// A memory-only stack: no disk root, no further tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the in-memory index to `entries` (FIFO eviction beyond it).
    pub fn l1_capacity(mut self, entries: usize) -> Self {
        self.l1_capacity = Some(entries);
        self
    }

    /// Attach a persistent disk tier rooted at `root` with default settings.
    pub fn disk_root(self, root: impl Into<PathBuf>) -> Self {
        self.disk(DiskTierConfig::new(root))
    }

    /// Attach a persistent disk tier with explicit settings.
    pub fn disk(mut self, disk: DiskTierConfig) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Attach `tier` below the disk tier (repeatable; walked in the order given).
    /// This is the seam for a shared remote cache — and for a test's in-memory
    /// double of one.
    pub fn tier(mut self, tier: Arc<dyn Tier>) -> Self {
        self.below_disk.push(tier);
        self
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::blob::Blob;
    use crate::cache::{ActionCache, BuildKey, CacheBackend, TryBegin};
    use crate::image::ImageStore;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn key(n: u32) -> BuildKey {
        BuildKey::new(
            format!("tu{n}"),
            "x86-avx2",
            "defs=;openmp=true;opt=O3",
            "xirc",
        )
    }

    /// A unique, self-cleaning temp root per test (no tempfile crate in-tree).
    pub(crate) struct TempRoot(PathBuf);

    impl TempRoot {
        pub(crate) fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("xaas-tier-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            Self(path)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// The remote cache as a test double: an in-memory [`Tier`] whose clones
    /// share one object map, the way builder machines share one remote.
    #[derive(Clone, Default)]
    struct MemTier(Arc<Mutex<Objects>>);

    /// Key digest (hex) → the recorded content digest and the bytes.
    type Objects = BTreeMap<String, (Digest, Vec<u8>)>;

    impl Tier for MemTier {
        fn kind(&self) -> CacheTier {
            CacheTier::Remote
        }

        fn get(&self, key: &Digest) -> Option<(Digest, Vec<u8>)> {
            self.0.lock().get(key.hex()).cloned()
        }

        fn put(&self, key: &Digest, content: &Digest, bytes: &[u8]) {
            let object = (content.clone(), bytes.to_vec());
            self.0.lock().entry(key.hex().to_string()).or_insert(object);
        }

        fn discard(&self, key: &Digest) {
            self.0.lock().remove(key.hex());
        }
    }

    /// Whether `tier` indexes `key` right now (no journal catch-up).
    fn indexed(tier: &DiskTier, key: &Digest) -> bool {
        tier.state.lock().index.contains_key(key.hex())
    }

    fn compute_once(
        cache: &ActionCache,
        key: &BuildKey,
        payload: &[u8],
    ) -> (Blob, Option<CacheTier>) {
        match cache.try_begin(key) {
            TryBegin::Hit(blob, tier) => (blob, Some(tier)),
            TryBegin::Owner(ticket) => (cache.complete(ticket, payload.to_vec()), None),
            TryBegin::InFlight(_) => panic!("no concurrent flights in this test"),
        }
    }

    #[test]
    fn disk_tier_survives_reopen_and_serves_warm_hits() {
        let root = TempRoot::new("reopen");
        let config = TierConfig::new().disk_root(root.path());
        {
            let cache = ActionCache::with_tiers(ImageStore::new(), config.clone()).unwrap();
            let (_, tier) = compute_once(&cache, &key(1), b"persisted");
            assert_eq!(tier, None, "cold build computes");
            assert_eq!(cache.stats().writebacks, 1, "written through to disk");
        }
        // "Process restart": fresh store, fresh L1, same disk root.
        let cache = ActionCache::with_tiers(ImageStore::new(), config).unwrap();
        let (blob, tier) = compute_once(&cache, &key(1), b"never-recomputed");
        assert_eq!(tier, Some(CacheTier::Disk));
        assert_eq!(blob, b"persisted", "byte-identical across the restart");
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.misses), (1, 0));
        assert_eq!(stats.promotions, 1, "disk hit promoted into memory");
        // Promoted: the next lookup is a pure memory hit.
        let (_, tier) = compute_once(&cache, &key(1), b"unused");
        assert_eq!(tier, Some(CacheTier::Memory));
    }

    #[test]
    fn remote_hit_promotes_through_disk_into_memory() {
        let root_a = TempRoot::new("remote-a");
        let root_b = TempRoot::new("remote-b");
        let remote = MemTier::default();
        let builder_a = ActionCache::with_tiers(
            ImageStore::new(),
            TierConfig::new()
                .disk_root(root_a.path())
                .tier(Arc::new(remote.clone())),
        )
        .unwrap();
        let builder_b = ActionCache::with_tiers(
            ImageStore::new(),
            TierConfig::new()
                .disk_root(root_b.path())
                .tier(Arc::new(remote.clone())),
        )
        .unwrap();
        // Machine A computes and publishes; machine B (distinct disk root) pulls
        // from the shared remote.
        compute_once(&builder_a, &key(7), b"fleet-artifact");
        let (blob, tier) = compute_once(&builder_b, &key(7), b"unused");
        assert_eq!(tier, Some(CacheTier::Remote));
        assert_eq!(blob, b"fleet-artifact");
        let stats = builder_b.stats();
        assert_eq!(stats.remote_hits, 1);
        assert_eq!(stats.promotions, 2, "remote → disk and remote → memory");
        // The pull warmed B's disk tier too.
        assert_eq!(builder_b.disk_stats().unwrap().entries, 1);
        assert_eq!(remote.0.lock().len(), 1, "one object published upward");
    }

    #[test]
    fn disk_capacity_evicts_oldest_and_deletes_blob_files() {
        let root = TempRoot::new("evict");
        let cache = ActionCache::with_tiers(
            ImageStore::new(),
            TierConfig::new().disk(DiskTierConfig::new(root.path()).capacity_bytes(64)),
        )
        .unwrap();
        for n in 0..4u32 {
            compute_once(&cache, &key(n), &[n as u8; 32]);
        }
        let disk = cache.disk_stats().unwrap();
        assert_eq!(disk.entries, 2, "64-byte budget holds two 32-byte outputs");
        assert_eq!(disk.bytes, 64);
        assert_eq!(disk.evictions, 2);
        // Evicted blob files are actually gone from the blobs directory.
        let blob_files = fs::read_dir(root.path().join("blobs")).unwrap().count();
        assert_eq!(blob_files, 2);
    }

    #[test]
    fn journal_replay_drops_entries_with_missing_blob_files() {
        let root = TempRoot::new("stale");
        let config = TierConfig::new().disk_root(root.path());
        {
            let cache = ActionCache::with_tiers(ImageStore::new(), config.clone()).unwrap();
            compute_once(&cache, &key(1), b"kept");
            compute_once(&cache, &key(2), b"will-vanish");
        }
        // Simulate a crash that lost one blob file but kept the journal.
        let doomed = Digest::of_bytes(b"will-vanish");
        fs::remove_file(root.path().join("blobs").join(doomed.hex())).unwrap();
        let cache = ActionCache::with_tiers(ImageStore::new(), config).unwrap();
        let disk = cache.disk_stats().unwrap();
        assert_eq!(disk.entries, 1, "missing-blob entry dropped on replay");
        assert_eq!(disk.stale_drops, 1);
        let (_, tier) = compute_once(&cache, &key(1), b"unused");
        assert_eq!(tier, Some(CacheTier::Disk));
        let (_, tier) = compute_once(&cache, &key(2), b"recomputed");
        assert_eq!(tier, None, "lost output recomputes");
    }

    #[test]
    fn two_stacks_on_one_root_single_flight_via_lock_files() {
        let root = TempRoot::new("lockfile");
        let config = TierConfig::new()
            .disk(DiskTierConfig::new(root.path()).lock_timeout(Duration::from_secs(5)));
        // Two independent stacks (separate L1s and stores) sharing one disk root
        // stand in for two builder processes.
        let a = ActionCache::with_tiers(ImageStore::new(), config.clone()).unwrap();
        let b = ActionCache::with_tiers(ImageStore::new(), config).unwrap();
        let computed = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let count_a = computed.clone();
            let slow_owner = scope.spawn(move || match a.try_begin(&key(3)) {
                TryBegin::Owner(ticket) => {
                    // Hold the flight (and the lock file) long enough for B to
                    // contend, then publish.
                    std::thread::sleep(Duration::from_millis(80));
                    count_a.fetch_add(1, Ordering::SeqCst);
                    a.complete(ticket, b"computed-once".to_vec())
                }
                other => panic!("expected Owner, got {other:?}"),
            });
            // Give A time to take the lock before B probes.
            std::thread::sleep(Duration::from_millis(20));
            let count_b = computed.clone();
            let waiter = scope.spawn(move || match b.try_begin(&key(3)) {
                TryBegin::Hit(blob, tier) => {
                    assert_eq!(tier, CacheTier::Disk, "served behind A's lock");
                    let stats = b.stats();
                    assert_eq!(stats.disk_hits, 1);
                    assert_eq!(b.disk_stats().unwrap().lock_waits, 1);
                    blob
                }
                TryBegin::Owner(ticket) => {
                    // Only acceptable if A somehow finished first — still must not
                    // double-compute.
                    count_b.fetch_add(1, Ordering::SeqCst);
                    b.complete(ticket, b"computed-once".to_vec())
                }
                other => panic!("expected Hit or Owner, got {other:?}"),
            });
            let from_a = slow_owner.join().unwrap();
            let from_b = waiter.join().unwrap();
            assert_eq!(from_a, from_b, "both processes observe identical bytes");
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one compute");
    }

    #[test]
    fn stale_lock_from_a_crashed_owner_is_broken() {
        let root = TempRoot::new("stale-lock");
        let config = TierConfig::new()
            .disk(DiskTierConfig::new(root.path()).lock_timeout(Duration::from_millis(0)));
        let cache = ActionCache::with_tiers(ImageStore::new(), config).unwrap();
        // Plant a lock file as if a previous owner crashed mid-compute. With a
        // zero lock timeout it is immediately stale.
        let lock_dir = root.path().join("locks");
        fs::write(
            lock_dir.join(format!("{}.lock", key(4).digest().hex())),
            "dead",
        )
        .unwrap();
        let (_, tier) = compute_once(&cache, &key(4), b"recovered");
        assert_eq!(tier, None, "the new owner computed after breaking the lock");
        assert!(cache.disk_stats().unwrap().locks_broken >= 1);
        assert!(
            !lock_dir
                .join(format!("{}.lock", key(4).digest().hex()))
                .exists(),
            "lock released after completion"
        );
    }

    #[test]
    fn gc_reclaims_orphans_but_pins_live_cache_outputs() {
        let root = TempRoot::new("gc");
        let cache =
            ActionCache::with_tiers(ImageStore::new(), TierConfig::new().disk_root(root.path()))
                .unwrap();
        compute_once(&cache, &key(1), b"live output");
        let orphan = cache.store().put_blob(b"orphaned intermediate".to_vec());
        let report = cache.collect_garbage();
        assert_eq!(report.blobs_removed, 1, "only the orphan goes");
        assert!(!cache.store().has_blob(&orphan));
        let disk = cache.disk_stats().unwrap();
        assert_eq!(disk.entries, 1, "disk tier untouched by store GC");
        // The pinned output still hits in memory.
        let (_, tier) = compute_once(&cache, &key(1), b"unused");
        assert_eq!(tier, Some(CacheTier::Memory));
    }

    #[test]
    fn l1_only_stack_behaves_like_a_plain_action_cache() {
        let cache = ActionCache::with_tiers(ImageStore::new(), TierConfig::new()).unwrap();
        let (_, tier) = compute_once(&cache, &key(1), b"plain");
        assert_eq!(tier, None);
        let (_, tier) = compute_once(&cache, &key(1), b"unused");
        assert_eq!(tier, Some(CacheTier::Memory));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!((stats.disk_hits, stats.remote_hits), (0, 0));
        assert_eq!(stats.writebacks, 0, "no lower tiers to write through to");
    }

    #[test]
    fn zero_l1_capacity_is_rejected_through_the_stack() {
        assert!(matches!(
            ActionCache::with_tiers(ImageStore::new(), TierConfig::new().l1_capacity(0)),
            Err(TierError::Config(CacheConfigError::ZeroCapacity))
        ));
    }

    /// Overwrite (`truncate_to: None`) or truncate the blob file holding `payload`.
    fn damage(root: &Path, payload: &[u8], truncate_to: Option<usize>) {
        let path = root.join("blobs").join(Digest::of_bytes(payload).hex());
        let damaged = match truncate_to {
            Some(len) => payload[..len].to_vec(),
            None => b"the FAKE artifact".to_vec(),
        };
        fs::write(path, damaged).unwrap();
    }

    #[test]
    fn a_damaged_blob_is_quarantined_and_recomputed_never_served() {
        for truncate_to in [None, Some(6)] {
            // Tier level: `load` hands back the recorded digest beside whatever the
            // file holds now; `discard` quarantines it.
            let root = TempRoot::new("damaged-tier");
            let payload = b"the real artifact";
            let (k, content) = (key(1).digest(), Digest::of_bytes(payload));
            DiskTier::open(DiskTierConfig::new(root.path()))
                .unwrap()
                .store(&k, &content, payload);
            damage(root.path(), payload, truncate_to);
            let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
            let (recorded, bytes) = tier.load(&k).expect("still indexed");
            assert_eq!(recorded, content);
            assert_ne!(Digest::of_bytes(&bytes), recorded, "the file was damaged");
            tier.discard(&k);
            assert!(tier.load(&k).is_none() && !indexed(&tier, &k));
            assert_eq!((tier.stats().corrupt_drops, tier.stats().entries), (1, 0));
            assert!(root.path().join("quarantine").join(content.hex()).is_file());
            assert!(!root.path().join("blobs").join(content.hex()).exists());

            // Stack level: the lookup is a miss (never the damaged bytes), the
            // recompute heals the root, and a restart serves the real output.
            let root = TempRoot::new("damaged-stack");
            let config = TierConfig::new().disk_root(root.path());
            let cache = ActionCache::with_tiers(ImageStore::new(), config.clone()).unwrap();
            compute_once(&cache, &key(1), payload);
            damage(root.path(), payload, truncate_to);
            let cache = ActionCache::with_tiers(ImageStore::new(), config.clone()).unwrap();
            let (blob, tier) = compute_once(&cache, &key(1), payload);
            assert_eq!((blob.as_slice(), tier), (&payload[..], None), "recomputed");
            let stats = cache.stats();
            assert_eq!((stats.misses, stats.disk_hits), (1, 0));
            assert_eq!(stats.stale_evictions, 1, "corrupt drops are folded in");
            assert_eq!(cache.disk_stats().unwrap().corrupt_drops, 1);
            let cache = ActionCache::with_tiers(ImageStore::new(), config).unwrap();
            let (blob, tier) = compute_once(&cache, &key(1), b"unused");
            assert_eq!(
                (blob.as_slice(), tier),
                (&payload[..], Some(CacheTier::Disk))
            );
        }
    }

    #[test]
    fn a_journal_torn_at_any_byte_loses_only_its_tail() {
        let root = TempRoot::new("torn");
        let journal_path = root.path().join("index.log");
        let keys: Vec<Digest> = (0..4).map(|n| key(n).digest()).collect();
        let content = Digest::of_bytes(b"payload");
        {
            let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
            for k in &keys[..3] {
                tier.store(k, &content, b"payload");
            }
        }
        let journal = fs::read(&journal_path).unwrap();
        assert_eq!(journal.iter().filter(|&&b| b == b'\n').count(), 3);
        for cut in 0..=journal.len() {
            fs::write(&journal_path, &journal[..cut]).unwrap();
            let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
            // What survived is a prefix of the original puts...
            let survivors = keys[..3].iter().take_while(|k| indexed(&tier, k)).count();
            assert_eq!(tier.stats().entries, survivors, "cut at byte {cut}");
            let whole_lines = journal[..cut].iter().filter(|&&b| b == b'\n').count();
            assert!(survivors >= whole_lines, "cut at byte {cut}");
            // ...and the torn fragment does not swallow the next record.
            tier.store(&keys[3], &content, b"payload");
            drop(tier);
            let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
            assert!(indexed(&tier, &keys[3]), "cut at byte {cut}");
            assert_eq!(tier.stats().entries, survivors + 1, "cut at byte {cut}");
        }
    }

    #[test]
    fn journal_records_are_outside_input() {
        let root = TempRoot::new("hostile");
        let content = Digest::of_bytes(b"payload");
        fs::create_dir_all(root.path().join("blobs")).unwrap();
        fs::write(root.path().join("blobs").join(content.hex()), b"payload").unwrap();
        let keys: Vec<Digest> = (0..3).map(|n| key(n).digest()).collect();
        let journal = format!(
            "put {} {content} 99999999999999999999999999\nput ../../etc {content} 7\nput {} {content} 7\n",
            keys[0].hex(),
            keys[1].hex(),
        );
        fs::write(root.path().join("index.log"), &journal).unwrap();
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        assert!(indexed(&tier, &keys[1]), "the well-formed record survives");
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.bytes), (1, 7), "and only that one");
        drop(tier);
        // A `len` that parses is still only a claim: sizes come from the files,
        // and the running total cannot overflow into the eviction budget.
        let claimed = format!("{journal}put {} {content} {}\n", keys[2].hex(), u64::MAX);
        fs::write(root.path().join("index.log"), claimed).unwrap();
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.bytes), (2, 14));
    }

    #[test]
    fn every_tier_honours_the_same_contract() {
        let root = TempRoot::new("contract");
        let disk = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        let tiers: [(&dyn Tier, CacheTier); 2] = [
            (&disk, CacheTier::Disk),
            (&MemTier::default(), CacheTier::Remote),
        ];
        for (tier, kind) in tiers {
            assert_eq!(tier.kind(), kind);
            let (k, content) = (key(1).digest(), Digest::of_bytes(b"output"));
            assert!(tier.get(&k).is_none(), "{kind}: absent key");
            tier.put(&k, &content, b"output");
            let held = Some((content.clone(), b"output".to_vec()));
            assert_eq!(tier.get(&k), held, "{kind}: get after put");
            tier.put(&k, &content, b"output");
            assert_eq!(tier.get(&k), held, "{kind}: re-put is idempotent");
            assert!(tier.get(&key(2).digest()).is_none(), "{kind}: other keys");
            tier.discard(&k);
            assert!(tier.get(&k).is_none(), "{kind}: discarded");
            tier.discard(&k); // discarding an absent key is a no-op
        }
    }

    #[test]
    fn counters_add_up_across_memory_disk_and_remote() {
        let (root_a, root_b) = (TempRoot::new("sum-a"), TempRoot::new("sum-b"));
        let remote = MemTier::default();
        let stack = |root: &TempRoot| {
            let config = TierConfig::new()
                .disk_root(root.path())
                .tier(Arc::new(remote.clone()));
            ActionCache::with_tiers(ImageStore::new(), config).unwrap()
        };
        // Builder A computes keys 0..4 (4 misses, each written to disk + remote).
        let a = stack(&root_a);
        for n in 0..4 {
            compute_once(&a, &key(n), &[n as u8; 8]);
        }
        let stats = a.stats();
        assert_eq!((stats.misses, stats.writebacks, stats.hits), (4, 8, 0));
        // A restarted A finds 0..2 on its disk; B, on another root, finds 0..4 in
        // the remote and computes 4..6; then both re-read everything from memory.
        let (a, b) = (stack(&root_a), stack(&root_b));
        for n in 0..2 {
            assert_eq!(
                compute_once(&a, &key(n), b"unused").1,
                Some(CacheTier::Disk)
            );
            assert_eq!(
                compute_once(&a, &key(n), b"unused").1,
                Some(CacheTier::Memory)
            );
        }
        for n in 0..6 {
            let expected = (n < 4).then_some(CacheTier::Remote);
            assert_eq!(compute_once(&b, &key(n), &[n as u8; 8]).1, expected);
            assert_eq!(
                compute_once(&b, &key(n), b"unused").1,
                Some(CacheTier::Memory)
            );
        }
        let (a, b) = (a.stats(), b.stats());
        assert_eq!((a.hits, a.disk_hits, a.remote_hits, a.misses), (4, 2, 0, 0));
        assert_eq!(a.promotions, 2, "disk → memory");
        assert_eq!(
            (b.hits, b.disk_hits, b.remote_hits, b.misses),
            (10, 0, 4, 2)
        );
        assert_eq!(b.promotions, 8, "remote → disk and remote → memory");
        assert_eq!(b.writebacks, 4);
        for stats in [a, b] {
            assert_eq!(
                stats.hits,
                stats.memory_hits() + stats.disk_hits + stats.remote_hits
            );
        }
        assert_eq!((a.memory_hits(), b.memory_hits()), (2, 6));
    }
}
