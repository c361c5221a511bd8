//! The tier below the memory index: the persistent on-disk CAS.
//!
//! The paper's economics rest on specialization work being *reusable*; a memory-only
//! [`ActionCache`](super::ActionCache) forfeits that reuse the moment the orchestrator
//! process exits. A cache built with
//! [`ActionCache::with_tiers`](super::ActionCache::with_tiers) and a disk root
//! therefore keeps a [`DiskTier`] under its flight table and memory index, and one
//! read-through serves every lookup:
//!
//! ```text
//!                try_begin(key)
//!                      │
//!        ┌─────────────▼──────────────┐
//!        │  memory index + flights    │── Hit ──────────────► Hit(_, Memory)
//!        └─────────────┬──────────────┘
//!                Owner │ (miss; the mutex is released)
//!        ┌─────────────▼──────────────┐
//!        │  DiskTier (blob CAS +      │── load ─┐ verify: hash == recorded digest,
//!        │            journal)        │         │ else discard: a miss
//!        └─────────────┬──────────────┘         ▼
//!                      │ (miss)          promote into store + index, retire
//!                      ▼                 the flight ─► Hit(_, Disk)
//!             Owner(ticket) — caller computes; complete() hashes once and
//!             stores the output on disk so it serves the next process
//! ```
//!
//! * **Verification on promotion:** [`DiskTier::load`] hands back the content
//!   digest the journal *recorded* beside the bytes it *read*; the one hash
//!   promotion pays anyway is compared with it, so a damaged blob is
//!   discarded and recomputed, never served.
//! * **Persistence:** the disk tier is a content-addressed blob directory plus an
//!   append-only index journal (in the style of OxidePM's derivation store and
//!   Bazel's disk cache). Reopening the same root after a process restart replays
//!   the journal, so a warm restart serves byte-identical outputs with zero
//!   recomputes. Everything read back — journal records, blob files — is treated
//!   as outside input.
//! * **A restart pays for what it reads:** replay parses journal lines and opens
//!   or stats no blob file. An entry is sized when this process reads or writes
//!   its blob, so a blob that vanished behind the journal is found — and dropped
//!   as stale — on its first read, and never served.
//! * **Linear, allocation-free replay over a binary index:** the index holds raw
//!   32-byte hashes, keys and contents alike. Replay is one pass over the
//!   journal's bytes that decodes each record's hex through a lookup table and
//!   allocates nothing per record beyond the index's own tree nodes; a tombstone
//!   is one logarithmic removal. Blob, quarantine and journal names are the
//!   lowercase hex of those hashes, so the journal text and every file name are
//!   what they always were, and a root opens the same in either direction across
//!   versions.
//! * **The journal's record language:** one record per `\n`-terminated line,
//!   fields separated by runs of ASCII whitespace (space, tab, CR, LF, VT, FF).
//!   Exactly two records are accepted, and fields after the ones shown are
//!   ignored:
//!   - `put <key> sha256:<content> <len>`: `<key>` is 64 lowercase hex digits,
//!     `<content>` 64 hex digits in either case, and `<len>` anything
//!     `str::parse::<u64>` accepts (`+7` too). The `len` is never used: an entry
//!     is sized from its blob file.
//!   - `del <key>`, with `<key>` as above.
//!
//!   Every other line — malformed, torn, of an unknown kind — is skipped. A
//!   checked field holding any other byte fails its check, so a line whose
//!   fields are separated by non-ASCII Unicode whitespace (which older replays
//!   split on) or that holds invalid UTF-8 in them is skipped too: a miss, never
//!   a wrong hit.
//! * **Cross-process single-flight:** a true miss takes a `locks/<key>.lock` file
//!   (atomic `create_new`) before ownership is handed to the caller; the guard
//!   rides in the [`FlightTicket`](super::FlightTicket) and is released when the
//!   ticket is completed, failed or dropped. A second builder process that misses
//!   on the same key waits (bounded) for the lock holder and then serves the
//!   freshly written disk blob instead of recomputing; stale locks left by crashed
//!   owners are broken after a timeout.
//! * **Eviction per tier:** the memory index keeps its FIFO bound; the disk tier
//!   evicts oldest-first beyond a byte budget (deleting unreferenced blob files and
//!   journaling tombstones). The budget is the only thing that needs every entry's
//!   size: its first check stats the entries this process has not sized yet.

use super::CacheConfigError;
use crate::digest::{decode_hex32, hex, Digest};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::fs;
use std::io::{Read, Write as _};
use std::path::{Path, PathBuf};
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
    /// Keys currently indexed on disk: every entry the journal replay accepted,
    /// whether or not this process has read its blob yet.
    pub entries: usize,
    /// Blob payload bytes of the entries this process has sized: those it read
    /// or wrote, and under a byte budget every entry (the budget's first check
    /// stats the rest). A reopened root without a budget reads 0 until its
    /// entries are loaded.
    pub bytes: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Index entries dropped because their blob file was missing or unreadable
    /// when first read or sized (a crash after the journal append, or files
    /// removed behind our back). Journal replay drops nothing.
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

/// A raw SHA-256 hash: how the index holds key and content digests.
type Hash = [u8; 32];

struct DiskEntry {
    content: Hash,
    /// Size of the blob file, once this process has read or written it (or
    /// stat'ed it for the byte budget); `None` for an entry replayed from the
    /// journal and not touched since.
    len: Option<u64>,
    /// The entry's place in the oldest-first eviction order, from
    /// [`DiskState::next_stamp`]: taken by the first put since the key was last
    /// removed, kept by a re-put.
    stamp: u64,
}

impl DiskEntry {
    fn len(&self) -> u64 {
        self.len.unwrap_or(0)
    }
}

struct DiskState {
    index: BTreeMap<Hash, DiskEntry>,
    /// The stamp the next newly indexed key takes; the entry with the lowest
    /// stamp is the oldest, and the byte budget evicts it first.
    next_stamp: u64,
    /// Sum of the sized entries' lengths.
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

    /// Index `content` under `key`, sized `len`. A new key takes the newest
    /// stamp, a live one keeps its own; the replaced entry is returned. The byte
    /// count is the caller's to adjust.
    fn insert(&mut self, key: Hash, content: Hash, len: Option<u64>) -> Option<DiskEntry> {
        match self.index.entry(key) {
            Entry::Occupied(mut slot) => {
                let stamp = slot.get().stamp;
                Some(slot.insert(DiskEntry {
                    content,
                    len,
                    stamp,
                }))
            }
            Entry::Vacant(slot) => {
                slot.insert(DiskEntry {
                    content,
                    len,
                    stamp: self.next_stamp,
                });
                self.next_stamp += 1;
                None
            }
        }
    }

    /// Drop `key` from the index and journal the tombstone; the caller counts why.
    fn forget(&mut self, key: &Hash) -> Option<DiskEntry> {
        let entry = self.index.remove(key)?;
        self.bytes = self.bytes.saturating_sub(entry.len());
        self.journal(format_args!("del {}", hex(key)));
        Some(entry)
    }

    /// Record `len`, taken from the blob file itself, as the size of `key`'s
    /// entry — unless the entry was dropped or replaced meanwhile.
    fn size(&mut self, key: &Hash, content: &Hash, len: u64) {
        let Some(entry) = self.index.get_mut(key).filter(|e| e.content == *content) else {
            return;
        };
        let previous = entry.len.replace(len).unwrap_or(0);
        self.bytes = self.bytes.saturating_sub(previous).saturating_add(len);
    }

    /// Apply journal `text` to the index, one `\n`-terminated line at a time.
    /// Only lines are read: the entries it puts stay unsized until this process
    /// reads or writes their blobs, or the byte budget stats them
    /// ([`DiskTier::enforce_capacity`]).
    fn replay(&mut self, text: &[u8]) {
        for line in text.split(|&byte| byte == b'\n') {
            self.apply_journal_line(line);
        }
    }

    /// Replay the journal text `reader` yields through a buffer of `capacity`
    /// bytes, whole lines at a time: a line the buffer's end cuts is carried
    /// forward to the front, and a line longer than the whole buffer grows it, so
    /// every line is judged exactly as a whole-text [`replay`](Self::replay)
    /// judges it. Returns how many bytes were read and the fragment after the last
    /// newline, unreplayed — empty when the text ends in one — for the caller to
    /// judge or leave. A read error ends the text where it happened.
    fn replay_lines(&mut self, mut reader: impl Read, capacity: usize) -> (u64, Vec<u8>) {
        let mut buffer = vec![0u8; capacity.max(1)];
        let (mut filled, mut read) = (0usize, 0u64);
        loop {
            if filled == buffer.len() {
                buffer.resize(buffer.len() * 2, 0);
            }
            let Some(free) = buffer.get_mut(filled..) else {
                break;
            };
            let fresh = match reader.read(free) {
                Ok(0) => break,
                Ok(fresh) => fresh,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            read += fresh as u64;
            let scanned = filled;
            filled += fresh;
            let Some(text) = buffer.get(..filled) else {
                break;
            };
            // Only the fresh bytes can hold the first newline of the carried line.
            let Some(end) = text
                .iter()
                .skip(scanned)
                .rposition(|&byte| byte == b'\n')
                .map(|at| scanned + at)
            else {
                continue;
            };
            let (lines, _) = text.split_at(end);
            self.replay(lines);
            buffer.copy_within(end + 1..filled, 0);
            filled -= end + 1;
        }
        buffer.truncate(filled);
        (read, buffer)
    }

    /// Apply one journal line, in the record language of the module docs; any
    /// other line is skipped. A `put` of the content a key already holds is a
    /// no-op (a catch-up re-reading our own append); a `put` of new content
    /// replaces the entry and keeps its stamp. A `del` drops the key; an unknown
    /// key is a no-op.
    fn apply_journal_line(&mut self, line: &[u8]) {
        // The ASCII bytes `char::is_whitespace` accepts: `is_ascii_whitespace`'s
        // five and VT.
        let mut fields = line
            .split(|&byte| byte.is_ascii_whitespace() || byte == 0x0b)
            .filter(|field| !field.is_empty());
        match fields.next() {
            Some(b"put") => {
                let (Some(key), Some(content), Some(len)) =
                    (fields.next(), fields.next(), fields.next())
                else {
                    return;
                };
                let key = decode_hex32(key, false);
                let content = content
                    .strip_prefix(b"sha256:")
                    .and_then(|hex| decode_hex32(hex, true));
                let len = std::str::from_utf8(len).map(str::parse::<u64>);
                let (Some(key), Some(content), Ok(Ok(_))) = (key, content, len) else {
                    return;
                };
                if self.index.get(&key).is_some_and(|e| e.content == content) {
                    return; // our own append, re-read by a catch-up
                }
                self.insert(key, content, None);
            }
            Some(b"del") => {
                if let Some(key) = fields.next().and_then(|key| decode_hex32(key, false)) {
                    self.index.remove(&key);
                }
            }
            _ => {}
        }
    }
}

/// The bytes of journal text [`DiskTier::open`] and a journal catch-up read at a
/// time: about fifty records, so opening a root holds this much of its journal in
/// memory, not all of it.
const REPLAY_BUFFER: usize = 8 * 1024;

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
    /// Replay reads `index.log` and nothing else: no blob file is opened or
    /// stat'ed, so opening costs the journal, not the blobs. It is one linear pass
    /// over the journal's bytes that allocates nothing per record beyond the
    /// index's own tree nodes: each record's digests are decoded into raw 32-byte
    /// hashes (the [module docs](self) give the record language, whose fields
    /// are separated by ASCII whitespace only), and a tombstone costs a
    /// logarithmic removal, never a scan of the live keys. The journal text and
    /// every file name under the root are the hex of those hashes, unchanged, so
    /// roots stay readable in both directions across versions.
    ///
    /// An entry whose blob file is gone stays indexed until its first
    /// [`load`](Self::load) finds the file missing and drops it — counted in
    /// [`DiskTierStats::stale_drops`] — so a lost blob is recomputed, never served.
    pub fn open(config: DiskTierConfig) -> Result<Self, TierError> {
        let blobs = config.root.join("blobs");
        let locks = config.root.join("locks");
        fs::create_dir_all(&blobs).map_err(|e| io_err(&blobs, e))?;
        fs::create_dir_all(&locks).map_err(|e| io_err(&locks, e))?;
        let journal_path = config.root.join("index.log");
        let replayed = fs::File::open(&journal_path);
        let journal = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| io_err(&journal_path, e))?;
        let mut state = DiskState {
            index: BTreeMap::new(),
            next_stamp: 0,
            // Every replayed entry is unsized.
            bytes: 0,
            journal,
            journal_offset: 0,
            stats: DiskTierStats::default(),
        };
        let (read, fragment) = match replayed {
            Ok(file) => state.replay_lines(file, REPLAY_BUFFER),
            Err(_) => (0, Vec::new()),
        };
        state.apply_journal_line(&fragment);
        // A crash mid-append leaves a fragment with no newline. Terminate it, or
        // our first append lands on the same line and is lost with it; terminated,
        // the fragment is one more (usually malformed) line that replay judged.
        let torn = !fragment.is_empty();
        if torn {
            state
                .journal
                .write_all(b"\n")
                .map_err(|e| io_err(&journal_path, e))?;
        }
        state.journal_offset = read + u64::from(torn);
        Ok(Self {
            config,
            state: Mutex::new(state),
        })
    }

    fn total_bytes(index: &BTreeMap<Hash, DiskEntry>) -> u64 {
        index
            .values()
            .fold(0, |sum, entry| sum.saturating_add(entry.len()))
    }

    /// Catch up on journal lines appended since this instance last looked —
    /// including by *other processes* sharing the root. Replaying is idempotent:
    /// our own already-applied lines re-apply as no-ops (the put/del sequence in
    /// the journal is exactly the sequence our in-memory index followed).
    fn refresh_from_journal(&self, state: &mut DiskState) {
        use std::io::{Seek as _, SeekFrom};
        let path = self.config.root.join("index.log");
        let Ok(mut file) = fs::File::open(&path) else {
            return;
        };
        if file.seek(SeekFrom::Start(state.journal_offset)).is_err() {
            return;
        }
        // Complete lines only: a tail still being written is left after the
        // offset so a later catch-up re-reads it once finished.
        let (read, fragment) = state.replay_lines(file, REPLAY_BUFFER);
        let complete = read - fragment.len() as u64;
        if complete == 0 {
            return;
        }
        state.journal_offset += complete;
        state.bytes = Self::total_bytes(&state.index);
    }

    fn blob_path(&self, content: &Hash) -> PathBuf {
        self.config.root.join("blobs").join(hex(content))
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
    /// recomputed. A read sizes the entry from the bytes it read. A key that is
    /// not a `sha256:` digest in lowercase hex is never indexed.
    pub fn load(&self, key: &Digest) -> Option<(Digest, Vec<u8>)> {
        let key = key.sha256_bytes()?;
        let content = {
            let mut state = self.state.lock();
            if !state.index.contains_key(&key) {
                self.refresh_from_journal(&mut state);
            }
            state.index.get(&key)?.content
        };
        match fs::read(self.blob_path(&content)) {
            Ok(bytes) => {
                self.state.lock().size(&key, &content, bytes.len() as u64);
                Some((Digest::from_sha256(content), bytes))
            }
            Err(_) => {
                let mut state = self.state.lock();
                if state.forget(&key).is_some() {
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
    /// failures are swallowed — the tier degrades to a miss, as it does for a key
    /// or content that is not a `sha256:` digest in lowercase hex.
    pub fn store(&self, key: &Digest, content: &Digest, bytes: &[u8]) {
        let (Some(key_hash), Some(content_hash)) = (key.sha256_bytes(), content.sha256_bytes())
        else {
            return;
        };
        let mut state = self.state.lock();
        if state
            .index
            .get(&key_hash)
            .is_some_and(|e| e.content == content_hash)
        {
            return; // idempotent re-store
        }
        let path = self.blob_path(&content_hash);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if fs::write(&tmp, bytes)
            .and_then(|()| fs::rename(&tmp, &path))
            .is_err()
        {
            let _ = fs::remove_file(&tmp);
            return;
        }
        let len = bytes.len() as u64;
        if let Some(previous) = state.insert(key_hash, content_hash, Some(len)) {
            // Same key, new content: the slot is kept, the byte count adjusted.
            state.bytes = state.bytes.saturating_sub(previous.len());
        }
        state.bytes = state.bytes.saturating_add(len);
        // Both digests decoded, so their text is the hex of the indexed hashes.
        state.journal(format_args!("put {} {content} {len}", key.hex()));
        self.enforce_capacity(&mut state);
    }

    /// Evict oldest-first (lowest stamp) until the byte budget holds, deleting blob
    /// files no other index entry references and journaling a tombstone per
    /// eviction. Each eviction scans the index for its oldest entry, as it scans
    /// for another reference to the blob; a tier without a budget keeps no order
    /// beyond the stamps, so replay and tombstones never pay for one.
    ///
    /// The total needs every entry's size, so entries still unsized — replayed
    /// and not yet read, at the first check after an open or a journal catch-up —
    /// are stat'ed first; one whose blob file is gone is a stale drop. A tier
    /// without a budget never stats.
    fn enforce_capacity(&self, state: &mut DiskState) {
        let Some(capacity) = self.config.capacity_bytes else {
            return;
        };
        let to_size: Vec<(Hash, Hash)> = state
            .index
            .iter()
            .filter(|(_, entry)| entry.len.is_none())
            .map(|(key, entry)| (*key, entry.content))
            .collect();
        for (key, content) in to_size {
            match fs::metadata(self.blob_path(&content)) {
                Ok(file) if file.is_file() => state.size(&key, &content, file.len()),
                _ => {
                    state.forget(&key);
                    state.stats.stale_drops += 1;
                }
            }
        }
        while state.bytes > capacity && state.index.len() > 1 {
            let Some((&oldest, _)) = state.index.iter().min_by_key(|(_, entry)| entry.stamp) else {
                break;
            };
            let Some(entry) = state.index.remove(&oldest) else {
                break;
            };
            state.bytes = state.bytes.saturating_sub(entry.len());
            state.stats.evictions += 1;
            state.journal(format_args!("del {}", hex(&oldest)));
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
        let key = key.sha256_bytes();
        let mut state = self.state.lock();
        self.refresh_from_journal(&mut state);
        let found = key.is_some_and(|key| state.index.contains_key(&key));
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

    /// Drop `key` because the bytes [`load`](Self::load) returned did not hash to
    /// the recorded digest: journal the tombstone, count a corrupt drop, and move
    /// the blob file into `quarantine/`, out of the way of a rewrite and kept for
    /// inspection. A no-op for a key the tier does not hold.
    pub(crate) fn discard(&self, key: &Digest) {
        let Some(key) = key.sha256_bytes() else {
            return;
        };
        let mut state = self.state.lock();
        let Some(entry) = state.forget(&key) else {
            return;
        };
        state.stats.corrupt_drops += 1;
        let quarantine = self.config.root.join("quarantine");
        let _ = fs::create_dir_all(&quarantine).and_then(|()| {
            fs::rename(
                self.blob_path(&entry.content),
                quarantine.join(hex(&entry.content)),
            )
        });
    }
}

/// Configuration of an [`ActionCache::with_tiers`](super::ActionCache::with_tiers)
/// stack. The disk tier is optional, so `TierConfig::new()` alone is just a plain
/// in-memory cache.
#[derive(Clone, Default)]
pub struct TierConfig {
    pub(super) l1_capacity: Option<usize>,
    pub(super) disk: Option<DiskTierConfig>,
}

impl TierConfig {
    /// A memory-only stack: no disk root.
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
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
pub(super) mod tests {
    use super::*;
    use crate::blob::Blob;
    use crate::cache::{ActionCache, BuildKey, CacheBackend, CacheTier, TryBegin};
    use crate::image::ImageStore;
    use proptest::prelude::prop_assert_eq;
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

    /// Whether `tier` indexes `key` right now (no journal catch-up).
    fn indexed(tier: &DiskTier, key: &Digest) -> bool {
        let key = key.sha256_bytes().unwrap();
        tier.state.lock().index.contains_key(&key)
    }

    fn compute_once(
        cache: &ActionCache,
        key: &BuildKey,
        payload: &[u8],
    ) -> (Blob, Option<CacheTier>) {
        match cache.try_begin(key) {
            TryBegin::Hit(blob, tier, _) => (blob, Some(tier)),
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
            assert_eq!(cache.disk_stats().unwrap().entries, 1, "written through");
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
    fn a_missing_blob_is_a_stale_drop_on_first_read() {
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
        assert_eq!(
            (disk.entries, disk.stale_drops),
            (2, 0),
            "open reads no blob"
        );
        let (_, tier) = compute_once(&cache, &key(1), b"unused");
        assert_eq!(tier, Some(CacheTier::Disk));
        let (blob, tier) = compute_once(&cache, &key(2), b"recomputed");
        assert_eq!(
            (blob.as_slice(), tier),
            (&b"recomputed"[..], None),
            "lost output recomputes, never served"
        );
        let disk = cache.disk_stats().unwrap();
        assert_eq!(
            (disk.entries, disk.stale_drops),
            (2, 1),
            "dropped on its first read, then rewritten by the recompute"
        );
    }

    #[test]
    fn opening_a_root_reads_the_journal_and_no_blob_file() {
        let root = TempRoot::new("no-blobs");
        let keys: Vec<Digest> = (0..3).map(|n| key(n).digest().clone()).collect();
        {
            let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
            for (n, k) in (0u8..).zip(&keys) {
                let payload = [n; 5];
                tier.store(k, &Digest::of_bytes(&payload), &payload);
            }
        }
        fs::remove_dir_all(root.path().join("blobs")).unwrap();
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.stale_drops, stats.bytes), (3, 0, 0));
        assert!(
            tier.load(&keys[0]).is_none(),
            "the first read finds it gone"
        );
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.stale_drops), (2, 1));
    }

    #[test]
    fn a_reopened_budget_evicts_by_the_files_sizes_not_the_journals() {
        let root = TempRoot::new("budget-reopen");
        let config = || DiskTierConfig::new(root.path()).capacity_bytes(64);
        let keys: Vec<Digest> = (0..3).map(|n| key(n).digest().clone()).collect();
        let payloads: Vec<[u8; 32]> = (0..3u8).map(|n| [n; 32]).collect();
        let store = |tier: &DiskTier, n: usize| {
            tier.store(&keys[n], &Digest::of_bytes(&payloads[n]), &payloads[n]);
        };
        {
            let tier = DiskTier::open(config()).unwrap();
            store(&tier, 0);
            store(&tier, 1);
        }
        // Every record now claims a 1-byte blob.
        let journal_path = root.path().join("index.log");
        let lying: String = fs::read_to_string(&journal_path)
            .unwrap()
            .lines()
            .map(|line| format!("{} 1\n", line.rsplit_once(' ').unwrap().0))
            .collect();
        fs::write(&journal_path, lying).unwrap();
        let tier = DiskTier::open(config()).unwrap();
        assert_eq!(tier.stats().bytes, 0, "nothing is sized at open");
        store(&tier, 2);
        // 96 real bytes against a 64-byte budget: the oldest entry goes.
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (2, 64, 1));
        assert!(!indexed(&tier, &keys[0]) && indexed(&tier, &keys[1]));
        let evicted = Digest::of_bytes(&payloads[0]);
        assert!(!root.path().join("blobs").join(evicted.hex()).exists());
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
                TryBegin::Hit(blob, tier, _) => {
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
        assert_eq!((stats.disk_hits, stats.promotions), (0, 0));
        assert!(
            cache.disk_stats().is_none(),
            "no disk tier to write through to"
        );
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
            let (k, content) = (key(1).digest().clone(), Digest::of_bytes(payload));
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
    fn stale_evictions_sum_memory_stale_disk_stale_and_corrupt_drops() {
        let root = TempRoot::new("stale-sum");
        let config = TierConfig::new().disk_root(root.path());
        let cache = ActionCache::with_tiers(ImageStore::new(), config.clone()).unwrap();
        let payloads: [&[u8]; 3] = [b"corrupted", b"deleted", b"swept"];
        for (n, payload) in (1..).zip(payloads) {
            compute_once(&cache, &key(n), payload);
        }
        damage(root.path(), b"corrupted", None);
        let deleted = Digest::of_bytes(b"deleted");
        fs::remove_file(root.path().join("blobs").join(deleted.hex())).unwrap();
        // After the restart key 1's read-through fails verification (corrupt)
        // and key 2's finds its blob gone (stale): both recompute. Key 3 is
        // promoted into memory.
        let cache = ActionCache::with_tiers(ImageStore::new(), config).unwrap();
        assert_eq!(compute_once(&cache, &key(1), b"corrupted").1, None);
        assert_eq!(compute_once(&cache, &key(2), b"deleted").1, None);
        assert_eq!(
            compute_once(&cache, &key(3), b"unused").1,
            Some(CacheTier::Disk)
        );
        // A store sweep reclaims key 3's blob behind the memory index (stale).
        cache.store().collect_garbage(&[]);
        assert!(cache.peek(&key(3)).is_none());
        let disk = cache.disk_stats().unwrap();
        assert_eq!((disk.stale_drops, disk.corrupt_drops), (1, 1));
        assert_eq!(cache.stats().stale_evictions, 1 + 1 + 1);
    }

    #[test]
    fn a_journal_torn_at_any_byte_loses_only_its_tail() {
        let root = TempRoot::new("torn");
        let journal_path = root.path().join("index.log");
        let keys: Vec<Digest> = (0..4).map(|n| key(n).digest().clone()).collect();
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
        let keys: Vec<Digest> = (0..3).map(|n| key(n).digest().clone()).collect();
        let journal = format!(
            "put {} {content} 99999999999999999999999999\nput ../../etc {content} 7\nput {} {content} 7\n",
            keys[0].hex(),
            keys[1].hex(),
        );
        fs::write(root.path().join("index.log"), &journal).unwrap();
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        assert!(indexed(&tier, &keys[1]), "the well-formed record survives");
        assert!(tier.load(&keys[1]).is_some());
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.bytes), (1, 7), "and only that one");
        drop(tier);
        // A `len` that parses is still only a claim: sizes come from the files,
        // and the running total cannot overflow into the eviction budget.
        let claimed = format!("{journal}put {} {content} {}\n", keys[2].hex(), u64::MAX);
        fs::write(root.path().join("index.log"), claimed).unwrap();
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        for k in &keys[1..] {
            assert!(tier.load(k).is_some());
        }
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.bytes), (2, 14));
    }

    /// A tier opened on a root whose journal is `journal` and whose one blob file
    /// holds `b"payload"`.
    fn opened_on(journal: &[u8]) -> (TempRoot, DiskTier) {
        let root = TempRoot::new("records");
        let blobs = root.path().join("blobs");
        fs::create_dir_all(&blobs).unwrap();
        fs::write(blobs.join(Digest::of_bytes(b"payload").hex()), b"payload").unwrap();
        fs::write(root.path().join("index.log"), journal).unwrap();
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        (root, tier)
    }

    /// The index as `(key, content, stamp)` triples, and the replay offset.
    fn replayed(tier: &DiskTier) -> (Vec<(Hash, Hash, u64)>, u64) {
        let state = tier.state.lock();
        let index = state.index.iter();
        let index = index.map(|(key, e)| (*key, e.content, e.stamp)).collect();
        (index, state.journal_offset)
    }

    /// Opening replays the journal through a fixed buffer, carrying a line the
    /// buffer's end cuts forward: over a journal several buffers long, with a
    /// record split across a buffer boundary, tombstones and a torn last line, it
    /// reaches the index and offset a whole-text replay reaches — and so it does
    /// through buffers smaller than one record, which grow.
    #[test]
    fn replay_through_a_fixed_buffer_equals_a_whole_text_replay() {
        let content = Digest::of_bytes(b"payload");
        let mut text = String::new();
        for n in 0..3 * REPLAY_BUFFER / 100 {
            let key = key(n as u32 % 97);
            text += &format!("put {} {content} {n}\n", key.digest().hex());
            if n % 13 == 0 {
                text += &format!("del {}\n", key.digest().hex());
            }
        }
        let line_start = |at: usize| text[..at].rfind('\n').map_or(0, |i| i + 1);
        assert_ne!(
            line_start(REPLAY_BUFFER),
            REPLAY_BUFFER,
            "a record straddles the first buffer boundary"
        );
        let torn = format!("{text}put {} {content}", key(500).digest().hex());

        for journal in [&text, &torn] {
            let (root, tier) = opened_on(journal.as_bytes());
            // The reference: the whole text replayed at once into a fresh index.
            let (_empty, whole) = opened_on(b"");
            let ends_torn = !journal.ends_with('\n');
            {
                let mut state = whole.state.lock();
                state.replay(journal.as_bytes());
                state.journal_offset = journal.len() as u64 + u64::from(ends_torn);
            }
            assert_eq!(replayed(&tier), replayed(&whole));
            let written = fs::read(root.path().join("index.log")).unwrap();
            assert_eq!(written.len() as u64, replayed(&tier).1);

            for capacity in [1, 100, 149, 4096] {
                let (_small, small) = opened_on(b"");
                let mut state = small.state.lock();
                let (read, fragment) = state.replay_lines(journal.as_bytes(), capacity);
                state.apply_journal_line(&fragment);
                assert_eq!(read, journal.len() as u64);
                assert_eq!(fragment.is_empty(), !ends_torn, "capacity {capacity}");
                state.journal_offset = read + u64::from(ends_torn);
                drop(state);
                assert_eq!(replayed(&small), replayed(&whole), "capacity {capacity}");
            }
        }
    }

    #[test]
    fn the_journal_record_language_is_pinned() {
        let keys: Vec<Digest> = (1..=3).map(|n| key(n).digest().clone()).collect();
        let (k, other, third) = (keys[0].hex(), keys[1].hex(), keys[2].hex());
        let content = Digest::of_bytes(b"payload");
        let holds_k = |journal: String| indexed(&opened_on(journal.as_bytes()).1, &keys[0]);

        let upper = format!("put {k} sha256:{} 7\n", content.hex().to_ascii_uppercase());
        assert_eq!(
            opened_on(upper.as_bytes()).1.load(&keys[0]),
            Some((content.clone(), b"payload".to_vec())),
            "uppercase content hex is indexed and served under the lowercase name"
        );
        assert!(holds_k(format!("put {k} {content} +7\n")), "`+7` as len");
        assert!(
            holds_k(format!("put\t{k}  {content}\t\t7\n")),
            "tabs and doubled spaces"
        );
        assert!(
            holds_k(format!("put {k} {content} 7\r\n")),
            "a CRLF line end"
        );

        let upper_key = k.to_ascii_uppercase();
        for (line, case) in [
            (format!("put {upper_key} {content} 7"), "an uppercase key"),
            (format!("put {} {content} 7", &k[1..]), "a 63-digit key"),
            (format!("put {k}0 {content} 7"), "a 65-digit key"),
            (
                format!("put {k} sha512:{} 7", content.hex()),
                "a sha512 content",
            ),
            (format!("put {k} {content}"), "a missing len"),
            (format!("put {k} {content} seven"), "a non-numeric len"),
            (
                format!("put\u{a0}{k} {content} 7"),
                "non-ASCII whitespace, which separates no fields",
            ),
        ] {
            assert!(!holds_k(format!("{line}\n")), "skipped: {case}");
        }

        let mut journal = format!("put {other} {content} 7\nput ").into_bytes();
        journal.extend_from_slice(&k.as_bytes()[..60]);
        journal.extend_from_slice(b"\xff\xfe\xc3\x28");
        journal.extend_from_slice(format!(" {content} 7\nput {third} {content} 7\n").as_bytes());
        let (_root, tier) = opened_on(&journal);
        assert_eq!(
            keys.iter()
                .map(|key| indexed(&tier, key))
                .collect::<Vec<_>>(),
            [false, true, true],
            "a line with invalid UTF-8 is skipped, and only that line"
        );

        let put = format!("put {k} {content} 7\n");
        assert!(
            holds_k(format!("{put}del {other}\n")),
            "a del of an unknown key"
        );
        assert!(
            holds_k(format!("{put}del {upper_key}\n")),
            "a del of a malformed key"
        );
    }

    #[test]
    fn the_journal_text_and_file_names_are_pinned() {
        // Disk roots outlive the binary that wrote them: these bytes are what a
        // root written by any version holds, and what every version must read.
        let root = TempRoot::new("pinned");
        let tier = DiskTier::open(DiskTierConfig::new(root.path()).capacity_bytes(8)).unwrap();
        let keys: Vec<Digest> = (1..=3)
            .map(|n| Digest::of_str(&format!("journal-key-{n}")))
            .collect();
        for (k, payload) in keys.iter().zip([b"aaaa", b"bbbb", b"cccc"]) {
            tier.store(k, &Digest::of_bytes(payload), payload);
        }
        // The third store evicted the first key; now the second is discarded.
        tier.discard(&keys[1]);
        let journal = fs::read_to_string(root.path().join("index.log")).unwrap();
        assert_eq!(
            journal,
            "put 6b36cf9859067cde8601830ca2e207c0c6818961f57f9a80332f18229fc74fc1 \
             sha256:61be55a8e2f6b4e172338bddf184d6dbee29c98853e0a0485ecee7f27b9af0b4 4\n\
             put da6dcb77365503c671f135afa0a4867ca85bdb36ce2afc2eef0aee5b1848e596 \
             sha256:81cc5b17018674b401b42f35ba07bb79e211239c23bffe658da1577e3e646877 4\n\
             put 3468c204dd931a57ac839783bc73c870f1d46e3feb54c0135165c7949fe5eab7 \
             sha256:b6fbd675f98e2abd22d4ed29fdc83150fedc48597e92dd1a7a24381d44a27451 4\n\
             del 6b36cf9859067cde8601830ca2e207c0c6818961f57f9a80332f18229fc74fc1\n\
             del da6dcb77365503c671f135afa0a4867ca85bdb36ce2afc2eef0aee5b1848e596\n"
        );
        let names = |dir: &str| -> Vec<String> {
            let mut names: Vec<String> = fs::read_dir(root.path().join(dir))
                .unwrap()
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(
            names("blobs"),
            ["b6fbd675f98e2abd22d4ed29fdc83150fedc48597e92dd1a7a24381d44a27451"]
        );
        assert_eq!(
            names("quarantine"),
            ["81cc5b17018674b401b42f35ba07bb79e211239c23bffe658da1577e3e646877"]
        );
    }

    /// The index in eviction order, oldest first: `(key, content)` pairs.
    fn fifo(tier: &DiskTier) -> Vec<(Hash, Hash)> {
        let state = tier.state.lock();
        let mut entries: Vec<(u64, Hash, Hash)> = state
            .index
            .iter()
            .map(|(key, entry)| (entry.stamp, *key, entry.content))
            .collect();
        entries.sort_unstable();
        entries.into_iter().map(|(_, k, c)| (k, c)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Replay, through `open` and through a journal catch-up, and the budget's
        /// eviction order follow the FIFO rule of a reference model: the first put
        /// since a key's last removal takes the newest slot, a re-put (same or new
        /// content) keeps it, and a `del` frees it.
        #[test]
        fn replay_and_budgeted_eviction_follow_the_fifo_model(
            ops in proptest::collection::vec(0u32..36, 0..48)
        ) {
            // Four keys, three contents of four bytes each.
            let key_of = |n: u32| Digest::of_str(&format!("fifo-key-{n}"));
            let payload_of = |n: u32| [b'a' + n as u8; 4];
            let content_of = |n: u32| Digest::of_bytes(&payload_of(n));
            let mut model: Vec<(u32, u32)> = Vec::new();
            let mut journal = String::new();
            for op in ops {
                let (k, c) = ((op / 3) % 4, op / 12);
                if op % 3 == 2 {
                    model.retain(|&(held, _)| held != k);
                    journal += &format!("del {}\n", key_of(k).hex());
                } else {
                    match model.iter_mut().find(|(held, _)| *held == k) {
                        Some(slot) => slot.1 = c,
                        None => model.push((k, c)),
                    }
                    journal += &format!("put {} {} 4\n", key_of(k).hex(), content_of(c));
                }
            }
            let expected: Vec<(Hash, Hash)> = model
                .iter()
                .map(|&(k, c)| {
                    let hash = |d: Digest| d.sha256_bytes().unwrap();
                    (hash(key_of(k)), hash(content_of(c)))
                })
                .collect();
            // A budget of what the model holds: each fresh store evicts one entry.
            let config = |root: &TempRoot| {
                DiskTierConfig::new(root.path()).capacity_bytes(4 * model.len() as u64)
            };
            let with_blobs = || {
                let root = TempRoot::new("fifo");
                fs::create_dir_all(root.path().join("blobs")).unwrap();
                for c in 0..3 {
                    let path = root.path().join("blobs").join(content_of(c).hex());
                    fs::write(path, payload_of(c)).unwrap();
                }
                root
            };
            let evicts_in_model_order = |root: &TempRoot, tier: &DiskTier| {
                for n in 0..model.len() {
                    let payload = format!("new{n}");
                    tier.store(
                        &Digest::of_str(&payload),
                        &Digest::of_str(&payload),
                        payload.as_bytes(),
                    );
                }
                let written = fs::read_to_string(root.path().join("index.log")).unwrap();
                let evicted: Vec<&str> = written[journal.len()..]
                    .lines()
                    .filter_map(|line| line.strip_prefix("del "))
                    .collect();
                let model_keys: Vec<Digest> = model.iter().map(|&(k, _)| key_of(k)).collect();
                let model_keys: Vec<&str> = model_keys.iter().map(Digest::hex).collect();
                prop_assert_eq!(evicted, model_keys);
                prop_assert_eq!(tier.stats().stale_drops, 0);
            };

            let root = with_blobs();
            fs::write(root.path().join("index.log"), &journal).unwrap();
            let tier = DiskTier::open(config(&root)).unwrap();
            prop_assert_eq!(fifo(&tier), expected.clone(), "through open");
            evicts_in_model_order(&root, &tier);

            let root = with_blobs();
            let tier = DiskTier::open(config(&root)).unwrap();
            fs::write(root.path().join("index.log"), &journal).unwrap();
            tier.refresh_from_journal(&mut tier.state.lock());
            prop_assert_eq!(fifo(&tier), expected, "through a journal catch-up");
            evicts_in_model_order(&root, &tier);
        }
    }

    #[test]
    fn the_disk_tier_honours_its_load_store_discard_contract() {
        let root = TempRoot::new("contract");
        let disk = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        let (k, content) = (key(1).digest().clone(), Digest::of_bytes(b"output"));
        assert!(disk.load(&k).is_none(), "absent key");
        disk.store(&k, &content, b"output");
        let held = Some((content.clone(), b"output".to_vec()));
        assert_eq!(disk.load(&k), held, "load after store");
        disk.store(&k, &content, b"output");
        assert_eq!(disk.load(&k), held, "re-store is idempotent");
        let journal = fs::read_to_string(root.path().join("index.log")).unwrap();
        assert_eq!(journal.lines().count(), 1, "a re-store journals nothing");
        assert!(disk.load(key(2).digest()).is_none(), "other keys");
        disk.discard(&k);
        assert!(disk.load(&k).is_none(), "discarded");
        disk.discard(&k); // discarding an absent key is a no-op
        assert_eq!((disk.stats().corrupt_drops, disk.stats().entries), (1, 0));
    }

    #[test]
    fn counters_add_up_across_memory_and_disk() {
        let root = TempRoot::new("sum");
        let stack = || {
            let config = TierConfig::new().disk_root(root.path());
            ActionCache::with_tiers(ImageStore::new(), config).unwrap()
        };
        // A cold stack computes keys 0..4: four misses, each written to disk.
        let cold = stack();
        for n in 0..4 {
            compute_once(&cold, &key(n), &[n as u8; 8]);
        }
        let stats = cold.stats();
        assert_eq!((stats.misses, stats.hits, stats.disk_hits), (4, 0, 0));
        assert_eq!(cold.disk_stats().unwrap().entries, 4);
        // A restarted stack finds 0..4 on disk and computes 4..6; then it re-reads
        // everything from memory.
        let warm = stack();
        for n in 0..6 {
            let expected = (n < 4).then_some(CacheTier::Disk);
            assert_eq!(compute_once(&warm, &key(n), &[n as u8; 8]).1, expected);
            assert_eq!(
                compute_once(&warm, &key(n), b"unused").1,
                Some(CacheTier::Memory)
            );
        }
        let stats = warm.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (10, 4, 2));
        assert_eq!(
            stats.promotions, stats.disk_hits,
            "one promotion per disk hit"
        );
        assert_eq!(stats.hits, stats.memory_hits() + stats.disk_hits);
        assert_eq!(stats.memory_hits(), 6);
        assert_eq!(warm.disk_stats().unwrap().entries, 6);
    }
}
