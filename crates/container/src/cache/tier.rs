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
//!        │  DiskTier (segments +      │── load ─┐ verify: hash == recorded digest,
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
//!   promotion pays anyway is compared with it, so a damaged range is
//!   discarded and recomputed, never served.
//! * **Layout — a log plus a key directory, as in Bitcask:** `index.log` is the
//!   append-only journal every open replays into the in-memory key directory;
//!   `<n>.seg` holds blob bytes appended back to back by the one tier that created
//!   it on its first store (`create_new`, numbered above every segment the journal
//!   names), so an open that only reads creates nothing; `claims.log` holds the
//!   cross-process claims. A store appends the bytes, then the record naming them;
//!   a load is one positioned read from a handle opened once per segment.
//!   Everything read back is outside input.
//! * **A restart pays for what it reads:** replay is one pass over the journal's
//!   bytes that decodes each record's hex into raw 32-byte hashes and allocates
//!   nothing per record beyond the index's tree nodes. It then reads each named
//!   segment's length and drops (as stale) a record whose range runs past it:
//!   bytes that never landed. A range cut later is a stale drop at its first
//!   read, checked before anything is allocated.
//! * **The journal's record language:** one record per `\n`-terminated line,
//!   fields separated by runs of ASCII whitespace (space, tab, CR, LF, VT, FF).
//!   Exactly two records are accepted, and fields after the ones shown are
//!   ignored:
//!   - `put <key> sha256:<content> <len> <segment> <offset>`: `<key>` is 64
//!     lowercase hex digits, `<content>` 64 hex digits in either case, and the
//!     numbers anything `str::parse` accepts (`+7` too) for a `u32` len, a `u32`
//!     segment below `u32::MAX` and a `u64` offset: bytes
//!     `offset..offset + len` of `<segment>.seg`. A `put` that stops after
//!     `<len>` names no range: it is indexed, and its first load is a stale drop.
//!     It is what a file-per-blob root's journal holds, so such a root's
//!     entries are indexed and then counted as that layout's drops (below).
//!   - `del <key>`, with `<key>` as above.
//!
//!   Every other line — malformed, torn, of an unknown kind — is skipped, so a
//!   line split by non-ASCII Unicode whitespace or holding invalid UTF-8 in a
//!   checked field is a miss, never a wrong hit.
//! * **Old roots:** a root with a `blobs/` directory is in the file-per-blob
//!   layout segments replaced. It reopens empty: its entries are dropped unread
//!   ([`DiskTierStats::legacy_drops`]), its journal emptied and `blobs/`,
//!   `locks/` and `quarantine/` removed.
//! * **Cross-process single-flight:** a miss appends `claim <key> <owner>
//!   <unix-ms>` to `claims.log`; the claim rides in the
//!   [`FlightTicket`](super::FlightTicket), and redeeming or dropping the ticket
//!   appends `release <key> <owner>`. The first unreleased claim on a key in
//!   `O_APPEND` order holds it; a later claimer waits (bounded) for it to publish
//!   and serves that. A claim older than the lock timeout is a crashed owner's
//!   and is broken. Only a miss reads the file.
//! * **Eviction and compaction:** the disk tier evicts oldest-first beyond a byte
//!   budget, journaling tombstones. A segment less than half live is compacted:
//!   its live entries are appended to the tier's own segment (a fresh one when it
//!   is its own), journaled at their new ranges, and the file unlinked. A writer
//!   holds its segment's file lock, so nobody compacts a segment being written.

use super::CacheConfigError;
use crate::digest::{decode_hex32, hex, Digest};
use parking_lot::Mutex;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::io::{Read, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

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

/// How often a lookup waiting on another tier's claim looks again.
const CLAIM_POLL: Duration = Duration::from_millis(2);

impl DiskTierConfig {
    /// A disk tier rooted at `root` (created if absent), unbounded, with a 2 s
    /// cross-process claim timeout.
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

    /// How old another tier's claim on a key may grow before a missing-everywhere
    /// lookup breaks it (crash recovery) and computes itself, and how long such a
    /// lookup waits on a claim at most.
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }
}

/// Counters for the disk tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskTierStats {
    /// Keys currently indexed on disk: every entry the journal replay accepted,
    /// whether or not this process has read its range yet.
    pub entries: usize,
    /// Blob payload bytes of the indexed entries, as their records' ranges give
    /// them.
    pub bytes: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Index entries dropped because their range was not in its segment: past
    /// the segment's end at open or at the first read, or the segment gone (a
    /// crash between the two appends, or files damaged behind our back).
    pub stale_drops: u64,
    /// Entries dropped because the bytes read back did not hash to the content
    /// digest the journal recorded (an overwritten range).
    pub corrupt_drops: u64,
    /// Misses that were answered by waiting on another tier's claim and then
    /// reading what it published instead of recomputing.
    pub lock_waits: u64,
    /// Stale claims broken after `lock_timeout` (crashed owner recovery).
    pub locks_broken: u64,
    /// Entries of a root in the file-per-blob layout, dropped unread when it
    /// was opened.
    pub legacy_drops: u64,
}

/// A raw SHA-256 hash: how the index holds key and content digests.
type Hash = [u8; 32];

/// The segment of an entry whose `put` named no range: no file holds it.
const NOWHERE: u32 = u32::MAX;

/// One indexed output: its content digest and the segment range holding it.
#[derive(Clone, Copy)]
struct DiskEntry {
    content: Hash,
    /// The entry's place in the oldest-first eviction order, from
    /// [`Index::next_stamp`]: taken by the first put since the key was last
    /// removed, kept by a re-put.
    stamp: u64,
    offset: u64,
    len: u32,
    segment: u32,
}

/// The key directory: what the journal says the root holds. Nothing does file
/// I/O while holding its lock.
#[derive(Default)]
struct Index {
    entries: BTreeMap<Hash, DiskEntry>,
    /// The stamp the next newly indexed key takes; the entry with the lowest
    /// stamp is the oldest, and the byte budget evicts it first.
    next_stamp: u64,
    /// Sum of the entries' lengths.
    bytes: u64,
    /// One above the highest segment a record names: where the search for a new
    /// segment's number starts, so no number the journal names is reused.
    next_segment: u32,
    /// The event counters; `entries` and `bytes` are filled in by [`DiskTier::stats`].
    stats: DiskTierStats,
}

impl Index {
    /// Index `entry` under `key`. A new key takes the newest stamp, a live one
    /// keeps its own; the replaced entry is returned.
    fn insert(&mut self, key: Hash, mut entry: DiskEntry) -> Option<DiskEntry> {
        self.bytes += u64::from(entry.len);
        if entry.segment != NOWHERE {
            self.next_segment = self.next_segment.max(entry.segment + 1);
        }
        match self.entries.entry(key) {
            Entry::Occupied(mut slot) => {
                entry.stamp = slot.get().stamp;
                let replaced = slot.insert(entry);
                self.bytes -= u64::from(replaced.len);
                Some(replaced)
            }
            Entry::Vacant(slot) => {
                entry.stamp = self.next_stamp;
                slot.insert(entry);
                self.next_stamp += 1;
                None
            }
        }
    }

    fn remove(&mut self, key: &Hash) -> Option<DiskEntry> {
        let entry = self.entries.remove(key)?;
        self.bytes -= u64::from(entry.len);
        Some(entry)
    }

    /// The entries segment `id` holds.
    fn held_by(&self, id: u32) -> Vec<(Hash, DiskEntry)> {
        let held = self.entries.iter().filter(|(_, entry)| entry.segment == id);
        held.map(|(key, entry)| (*key, *entry)).collect()
    }

    /// Evict oldest-first (lowest stamp, found by a scan) until the budget holds,
    /// never the last entry, and return what went.
    fn evict(&mut self, capacity: u64) -> Vec<(Hash, DiskEntry)> {
        let mut evicted = Vec::new();
        while self.bytes > capacity && self.entries.len() > 1 {
            let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, entry)| entry.stamp)
            else {
                break;
            };
            if let Some(entry) = self.remove(&oldest) {
                self.stats.evictions += 1;
                evicted.push((oldest, entry));
            }
        }
        evicted
    }

    /// Apply journal `text` to the index, one `\n`-terminated line at a time.
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
    /// other line is skipped. A `put` indexes its range under the key (a re-read
    /// of a record the index already follows changes nothing, and a new range
    /// keeps the key's stamp); a `del` drops the key, and of an unknown key is a
    /// no-op.
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
                let range = match (fields.next(), fields.next()) {
                    (None, _) => Some((NOWHERE, 0)),
                    (Some(segment), Some(offset)) => number(segment)
                        .filter(|&segment| segment != NOWHERE)
                        .zip(number(offset)),
                    (Some(_), None) => None,
                };
                let (Some(key), Some(content), Some(len), Some((segment, offset))) =
                    (key, content, number(len), range)
                else {
                    return;
                };
                let entry = DiskEntry {
                    content,
                    stamp: 0,
                    offset,
                    len,
                    segment,
                };
                self.insert(key, entry);
            }
            Some(b"del") => {
                if let Some(key) = fields.next().and_then(|key| decode_hex32(key, false)) {
                    self.remove(&key);
                }
            }
            _ => {}
        }
    }
}

/// A decimal record field, read as `str::parse` reads it.
fn number<T: std::str::FromStr>(field: &[u8]) -> Option<T> {
    std::str::from_utf8(field).ok()?.parse().ok()
}

/// Format the `put` record naming `entry`'s range under `key` into `records`.
fn put_record(records: &mut String, key: &Hash, e: &DiskEntry) {
    let (key, content) = (hex(key), Digest::from_sha256(e.content));
    let _ = writeln!(
        records,
        "put {key} {content} {} {} {}",
        e.len, e.segment, e.offset
    );
}

/// Open the append-only file at `path` to read and append, creating it — as a
/// new file only, when `new`.
fn open_log(path: &Path, new: bool) -> std::io::Result<fs::File> {
    let mut options = fs::OpenOptions::new();
    options
        .read(true)
        .append(true)
        .create(!new)
        .create_new(new)
        .open(path)
}

/// The complete lines `file` holds past `offset`; a tail still being written is
/// left for a later look. Positioned reads, so an append through the same handle
/// moves nothing.
fn complete_lines_after(file: &fs::File, offset: u64) -> Vec<u8> {
    let mut text = Vec::new();
    let mut chunk = [0u8; 4096];
    while let Ok(read @ 1..) = file.read_at(&mut chunk, offset + text.len() as u64) {
        text.extend_from_slice(chunk.get(..read).unwrap_or_default());
    }
    let complete = text
        .iter()
        .rposition(|&byte| byte == b'\n')
        .map_or(0, |at| at + 1);
    text.truncate(complete);
    text
}

/// The bytes of journal text [`DiskTier::open`] reads at a time: about fifty
/// records, so opening a root holds this much of its journal in memory, not all
/// of it.
const REPLAY_BUFFER: usize = 8 * 1024;

/// One segment file: blob bytes appended back to back by the tier that created it.
struct Segment {
    id: u32,
    file: fs::File,
    /// The file's length as this process last saw it: the writer's appends grow
    /// it (it is where the next one lands), and a read of a range past it looks
    /// at the file again. It never shrinks.
    len: AtomicU64,
}

impl Segment {
    /// The `len` bytes at `offset`, or `None` when the range runs past the file's
    /// end (checked before anything is allocated) or the read fails.
    fn read(&self, offset: u64, len: u32) -> Option<Vec<u8>> {
        let end = offset.checked_add(u64::from(len))?;
        if end > self.len.load(Relaxed) {
            let now = self.file.metadata().ok()?.len();
            if end > self.len.fetch_max(now, Relaxed).max(now) {
                return None;
            }
        }
        let mut bytes = vec![0; usize::try_from(len).ok()?];
        self.file.read_exact_at(&mut bytes, offset).ok()?;
        Some(bytes)
    }
}

/// The write side. Its lock orders every append — to the journal and to this
/// tier's segment — and every journal catch-up, so the index changes in the
/// order the journal records.
struct Writer {
    /// `index.log`, opened to read and append.
    journal: fs::File,
    /// How far into the journal this tier has replayed. Another process appending
    /// to the shared journal moves the file past this offset; catching up from
    /// here ([`DiskTier::catch_up`]) is how one process observes entries another
    /// published.
    offset: u64,
    /// The segment this tier appends to, created by its first store.
    own: Option<Arc<Segment>>,
    /// Records formatted for the next journal append.
    records: String,
}

impl Writer {
    /// Append the formatted records with a single `write`: under `O_APPEND` that
    /// is one atomic append, so another process sharing the root never observes,
    /// or interleaves with, part of a line — only a crash leaves a torn tail.
    fn flush(&mut self) {
        let _ = self.journal.write_all(self.records.as_bytes());
        self.records.clear();
    }
}

/// The claims side: `claims.log` (opened by the first claim), how far this tier
/// has read it, and the unreleased claims read so far as `(key, owner, unix ms)`,
/// in file order.
#[derive(Default)]
struct Claims {
    log: Option<Arc<fs::File>>,
    offset: u64,
    open: Vec<(Hash, u64, u64)>,
}

impl Claims {
    /// Apply `claim <key> <owner> <unix-ms>` and `release <key> <owner>` lines;
    /// any other line is skipped.
    fn apply(&mut self, text: &[u8]) {
        for line in text.split(|&byte| byte == b'\n') {
            let mut fields = line.split(|&byte| byte == b' ');
            let (kind, key) = (fields.next(), fields.next().map(|k| decode_hex32(k, false)));
            let mut numbers = fields.map(number::<u64>);
            match (
                kind,
                key.flatten(),
                numbers.next().flatten(),
                numbers.next().flatten(),
            ) {
                (Some(b"claim"), Some(key), Some(owner), Some(at)) => {
                    self.open.push((key, owner, at));
                }
                (Some(b"release"), Some(key), Some(owner), _) => {
                    let held = self
                        .open
                        .iter()
                        .position(|&(k, o, _)| (k, o) == (key, owner));
                    if let Some(at) = held {
                        self.open.remove(at);
                    }
                }
                _ => {}
            }
        }
    }
}

fn unix_ms() -> u64 {
    let since = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    u64::try_from(since.as_millis()).unwrap_or(u64::MAX)
}

/// The persistent on-disk CAS tier: blob bytes in append-only segments plus an
/// append-only index journal, surviving process restarts. See the module docs
/// for the layout.
pub struct DiskTier {
    config: DiskTierConfig,
    /// This tier's name in `claims.log`: the process id above a count of the
    /// tiers the process opened.
    owner: u64,
    writer: Mutex<Writer>,
    index: Mutex<Index>,
    /// Every segment handle this tier opened, by number: one per segment.
    segments: Mutex<BTreeMap<u32, Arc<Segment>>>,
    claims: Mutex<Claims>,
}

/// This tier's claim on one key: a `claim` record in `claims.log`. Dropping the
/// guard appends the `release`.
pub(super) struct DiskClaim {
    log: Arc<fs::File>,
    key: Hash,
    owner: u64,
}

impl Drop for DiskClaim {
    fn drop(&mut self) {
        let record = format!("release {} {}\n", hex(&self.key), self.owner);
        let _ = (&*self.log).write_all(record.as_bytes());
    }
}

/// How [`DiskTier::claim_or_wait`] ended.
pub(super) enum Claim {
    /// The caller computes the key, holding the claim — `None` when
    /// `claims.log` could not be written: compute unclaimed rather than stall.
    Owner(Option<DiskClaim>),
    /// Another tier published the key to the disk tier while we waited.
    Published,
}

impl DiskTier {
    /// Open (or create) the tier under `config.root`: replay `index.log` in one
    /// linear pass that allocates nothing per record beyond the index's tree nodes
    /// (a tombstone is a logarithmic removal), then open each segment the index
    /// names, once, dropping the records past its end
    /// ([`DiskTierStats::stale_drops`]). No blob byte is read, and nothing is
    /// created under a root that exists. A file-per-blob root reopens empty.
    pub fn open(config: DiskTierConfig) -> Result<Self, TierError> {
        static OPENED: AtomicU32 = AtomicU32::new(0);
        let root = &config.root;
        fs::create_dir_all(root).map_err(|e| io_err(root, e))?;
        let journal_path = root.join("index.log");
        let journal = open_log(&journal_path, false).map_err(|e| io_err(&journal_path, e))?;
        let mut index = Index::default();
        let (mut read, mut fragment) = index.replay_lines(&journal, REPLAY_BUFFER);
        index.apply_journal_line(&fragment);
        if root.join("blobs").is_dir() {
            let legacy_drops = index.entries.len() as u64;
            index = Index::default();
            index.stats.legacy_drops = legacy_drops;
            journal.set_len(0).map_err(|e| io_err(&journal_path, e))?;
            (read, fragment) = (0, Vec::new());
            for old in ["blobs", "locks", "quarantine"] {
                let _ = fs::remove_dir_all(root.join(old));
            }
        }
        // A crash mid-append leaves a fragment with no newline. Terminate it, or
        // our first append lands on the same line and is lost with it; terminated,
        // the fragment is one more (usually malformed) line that replay judged.
        let torn = !fragment.is_empty();
        if torn {
            (&journal)
                .write_all(b"\n")
                .map_err(|e| io_err(&journal_path, e))?;
        }
        let writer = Writer {
            journal,
            offset: read + u64::from(torn),
            own: None,
            records: String::new(),
        };
        let tier = Self {
            owner: u64::from(std::process::id()) << 32 | u64::from(OPENED.fetch_add(1, Relaxed)),
            writer: Mutex::new(writer),
            index: Mutex::new(index),
            segments: Mutex::default(),
            claims: Mutex::default(),
            config,
        };
        tier.drop_past_end();
        Ok(tier)
    }

    /// Drop, as stale, every entry whose range runs past its segment's end (a
    /// missing segment has none): bytes that never landed.
    fn drop_past_end(&self) {
        // Inserted one by one: collecting would buffer a number per entry.
        let mut named = BTreeSet::new();
        self.index.lock().entries.values().for_each(|e| {
            named.insert(e.segment);
        });
        let end = |id| self.segment(id).map_or(0, |s| s.len.load(Relaxed));
        let ends: BTreeMap<u32, u64> = named.into_iter().map(|id| (id, end(id))).collect();
        let mut index = self.index.lock();
        let end = |e: &DiskEntry| e.offset.saturating_add(u64::from(e.len));
        let past = |e: &DiskEntry| ends.get(&e.segment).is_some_and(|&at| end(e) > at);
        let entries = index
            .entries
            .iter()
            .filter(|(_, e)| e.segment != NOWHERE && past(e));
        let doomed: Vec<Hash> = entries.map(|(key, _)| *key).collect();
        for key in doomed {
            index.remove(&key);
            index.stats.stale_drops += 1;
        }
    }

    fn segment_path(&self, id: u32) -> PathBuf {
        self.config.root.join(format!("{id}.seg"))
    }

    /// Segment `id`'s handle, opened on first use and kept; `None` when there is
    /// no such file.
    fn segment(&self, id: u32) -> Option<Arc<Segment>> {
        if let Some(segment) = self.segments.lock().get(&id) {
            return Some(segment.clone());
        }
        let file = fs::File::open(self.segment_path(id)).ok()?;
        let len = AtomicU64::new(file.metadata().ok()?.len());
        let opened = Arc::new(Segment { id, file, len });
        Some(self.segments.lock().entry(id).or_insert(opened).clone())
    }

    /// Catch up on journal records appended since this tier last looked —
    /// including by *other processes* sharing the root — reading them through its
    /// own handle. Replaying is idempotent: its own records, re-read, re-apply
    /// what the index already follows.
    fn catch_up(&self, writer: &mut Writer) {
        let text = complete_lines_after(&writer.journal, writer.offset);
        if !text.is_empty() {
            writer.offset += text.len() as u64;
            self.index.lock().replay(&text);
        }
    }

    /// Read the output for `key` — the content digest the journal recorded and
    /// the bytes of its range, for the caller to verify against each other —
    /// dropping the entry (a stale drop) when its range is not in its segment.
    /// I/O failures degrade to a miss: the caller recomputes. A key absent from
    /// the index, and a range that will not read, first catch up on the journal,
    /// so an entry another process published or moved is found. A key that is
    /// not a `sha256:` digest in lowercase hex is never indexed.
    pub fn load(&self, key: &Digest) -> Option<(Digest, Vec<u8>)> {
        let key = key.sha256_bytes()?;
        let mut entry = self.entry(&key).or_else(|| {
            self.catch_up(&mut self.writer.lock());
            self.entry(&key)
        })?;
        loop {
            let segment = self.segment(entry.segment);
            if let Some(bytes) = segment.and_then(|s| s.read(entry.offset, entry.len)) {
                return Some((Digest::from_sha256(entry.content), bytes));
            }
            let mut writer = self.writer.lock();
            self.catch_up(&mut writer);
            match self.entry(&key) {
                Some(moved) if (moved.segment, moved.offset) != (entry.segment, entry.offset) => {
                    entry = moved;
                }
                Some(_) => {
                    self.forget(&mut writer, &key, |stats| stats.stale_drops += 1);
                    return None;
                }
                None => return None,
            }
        }
    }

    fn entry(&self, key: &Hash) -> Option<DiskEntry> {
        self.index.lock().entries.get(key).copied()
    }

    /// Persist `bytes` (content digest `content`) as the output for `key`: append
    /// them to this tier's segment, then journal the record naming their range.
    /// An entry already there for the key is replaced, not trusted: it may be the
    /// damaged range this key was just recomputed for. I/O failures degrade to a
    /// miss, as a key or content that is not a lowercase `sha256:` digest does.
    pub fn store(&self, key: &Digest, content: &Digest, bytes: &[u8]) {
        let (Some(key), Some(content)) = (key.sha256_bytes(), content.sha256_bytes()) else {
            return;
        };
        if self.entry(&key).is_some_and(|e| e.content == content) {
            return; // idempotent re-store
        }
        let mut writer = self.writer.lock();
        let Some(entry) = self.append(&mut writer, content, bytes) else {
            return;
        };
        let mut index = self.index.lock();
        let replaced = index.insert(key, entry);
        let evicted = self
            .config
            .capacity_bytes
            .map_or_else(Vec::new, |c| index.evict(c));
        drop(index);
        put_record(&mut writer.records, &key, &entry);
        for (key, _) in &evicted {
            let _ = writeln!(writer.records, "del {}", hex(key));
        }
        writer.flush();
        let dropped = evicted.iter().map(|(_, entry)| entry).chain(&replaced);
        for segment in dropped.map(|entry| entry.segment) {
            self.compact(&mut writer, segment);
        }
    }

    /// Append `bytes` to this tier's segment, creating it on first use, and
    /// return the (unstamped) entry naming them.
    fn append(&self, writer: &mut Writer, content: Hash, bytes: &[u8]) -> Option<DiskEntry> {
        let len = u32::try_from(bytes.len()).ok()?;
        let segment = match &writer.own {
            Some(own) => own.clone(),
            None => self.create_segment(writer)?,
        };
        let offset = segment.len.load(Relaxed);
        if (&segment.file).write_all(bytes).is_err() {
            // A short write leaves bytes nothing names: append elsewhere from now.
            writer.own = None;
            return None;
        }
        segment.len.fetch_max(offset + u64::from(len), Relaxed);
        Some(DiskEntry {
            content,
            stamp: 0,
            offset,
            len,
            segment: segment.id,
        })
    }

    /// Create this tier's segment under the first free number from the one above
    /// every segment the journal names, and take its file lock for as long as the
    /// tier writes it.
    fn create_segment(&self, writer: &mut Writer) -> Option<Arc<Segment>> {
        let next = self.index.lock().next_segment;
        let (id, file) =
            (next..NOWHERE).find_map(|id| match open_log(&self.segment_path(id), true) {
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => None,
                opened => Some((id, opened)),
            })?;
        let file = file.ok()?;
        let _ = file.try_lock();
        let len = AtomicU64::new(0);
        let segment = Arc::new(Segment { id, file, len });
        self.segments.lock().insert(id, segment.clone());
        writer.own = Some(segment.clone());
        Some(segment)
    }

    /// Compact segment `id` when less than half of it is live: append its live
    /// entries to this tier's segment, journal their new ranges and unlink the
    /// file. A segment whose file lock another tier holds is still being written
    /// and is left alone; this tier's own is retired first, so its entries move
    /// to a fresh one.
    fn compact(&self, writer: &mut Writer, id: u32) {
        let Some(segment) = self.segment(id) else {
            return;
        };
        let moving = self.index.lock().held_by(id);
        let live: u64 = moving.iter().map(|(_, entry)| u64::from(entry.len)).sum();
        if live.saturating_mul(2) >= segment.len.load(Relaxed) {
            return;
        }
        if writer.own.as_ref().is_some_and(|own| own.id == id) {
            writer.own = None;
        } else if segment.file.try_lock().is_err() {
            return;
        }
        for (key, entry) in moving {
            // A range that does not read is dead already; one that does not
            // append keeps the segment.
            let Some(bytes) = segment.read(entry.offset, entry.len) else {
                continue;
            };
            let Some(moved) = self.append(writer, entry.content, &bytes) else {
                return writer.flush();
            };
            self.index.lock().insert(key, moved);
            put_record(&mut writer.records, &key, &moved);
        }
        writer.flush();
        self.segments.lock().remove(&id);
        let _ = fs::remove_file(self.segment_path(id));
    }

    /// Drop `key`'s entry, count why, journal the tombstone and compact the
    /// segment it leaves sparse. A no-op for a key the tier does not hold.
    fn forget(&self, writer: &mut Writer, key: &Hash, count: fn(&mut DiskTierStats)) {
        let mut index = self.index.lock();
        let Some(dropped) = index.remove(key) else {
            return;
        };
        count(&mut index.stats);
        drop(index);
        let _ = writeln!(writer.records, "del {}", hex(key));
        writer.flush();
        self.compact(writer, dropped.segment);
    }

    /// Append this tier's claim on `key` to `claims.log`, creating the file on
    /// first use.
    fn claim(&self, key: Hash) -> Option<DiskClaim> {
        let log = {
            let mut claims = self.claims.lock();
            if claims.log.is_none() {
                let log = open_log(&self.config.root.join("claims.log"), false);
                claims.log = log.ok().map(Arc::new);
            }
            claims.log.clone()?
        };
        let record = format!("claim {} {} {}\n", hex(&key), self.owner, unix_ms());
        (&*log).write_all(record.as_bytes()).ok()?;
        Some(DiskClaim {
            log,
            key,
            owner: self.owner,
        })
    }

    /// Whether `claim` holds its key: read the claims appended since this tier
    /// last looked, break the stale ones on the key, and see whether it is first.
    fn holds(&self, claim: &DiskClaim) -> bool {
        let mut claims = self.claims.lock();
        let text = complete_lines_after(&claim.log, claims.offset);
        claims.offset += text.len() as u64;
        claims.apply(&text);
        let (now, timeout) = (unix_ms(), self.config.lock_timeout.as_millis());
        let before = claims.open.len();
        claims.open.retain(|&(key, owner, at)| {
            key != claim.key || owner == self.owner || u128::from(now - at.min(now)) <= timeout
        });
        let broken = (before - claims.open.len()) as u64;
        let first = claims.open.iter().find(|(key, ..)| *key == claim.key);
        let holds = first.is_none_or(|&(_, owner, _)| owner == self.owner);
        drop(claims);
        self.index.lock().stats.locks_broken += broken;
        holds
    }

    /// Whether `key` is indexed after catching up on the journal — i.e. the tier
    /// whose claim we waited on published it. Counted as a lock wait.
    fn published(&self, key: &Digest) -> bool {
        let Some(key) = key.sha256_bytes() else {
            return false;
        };
        self.catch_up(&mut self.writer.lock());
        let mut index = self.index.lock();
        let found = index.entries.contains_key(&key);
        index.stats.lock_waits += u64::from(found);
        found
    }

    /// On a miss in every tier, claim the key before the caller computes. If
    /// another tier's claim comes first, wait for it to publish the output to
    /// disk, so the caller serves that instead of recomputing; a claim that
    /// outlives the lock timeout is broken and ownership taken.
    pub(super) fn claim_or_wait(&self, key: &Digest) -> Claim {
        let Some(claim) = key.sha256_bytes().and_then(|hash| self.claim(hash)) else {
            return Claim::Owner(None);
        };
        // The claims' recorded ages come from other clocks: ours bounds the wait.
        let deadline = Instant::now() + self.config.lock_timeout;
        let mut waited = false;
        while !self.holds(&claim) && Instant::now() < deadline {
            waited = true;
            std::thread::sleep(CLAIM_POLL);
            if self.published(key) {
                return Claim::Published;
            }
        }
        // The claim ahead of ours was released or outwaited: one last probe.
        if waited && self.published(key) {
            return Claim::Published;
        }
        Claim::Owner(Some(claim))
    }

    /// A snapshot of the tier's counters.
    pub fn stats(&self) -> DiskTierStats {
        let index = self.index.lock();
        DiskTierStats {
            entries: index.entries.len(),
            bytes: index.bytes,
            ..index.stats
        }
    }

    /// Drop `key` because the bytes [`load`](Self::load) returned did not hash to
    /// the recorded digest: journal the tombstone and count a corrupt drop. A
    /// no-op for a key the tier does not hold.
    pub(crate) fn discard(&self, key: &Digest) {
        if let Some(key) = key.sha256_bytes() {
            let mut writer = self.writer.lock();
            self.forget(&mut writer, &key, |stats| stats.corrupt_drops += 1);
        }
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
    use std::io::Write;
    use std::os::unix::fs::FileExt;
    use std::sync::atomic::Ordering;

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
        tier.index.lock().entries.contains_key(&key)
    }

    /// The sorted names of the files and directories directly under `root`.
    fn listing(root: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(root)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// The `(segment, offset, len)` range the journal at `root` last recorded for
    /// `content`.
    fn range_of(root: &Path, content: &Digest) -> (u32, u64, usize) {
        let journal = fs::read_to_string(root.join("index.log")).unwrap();
        let record = journal
            .lines()
            .rfind(|line| line.split(' ').nth(2) == Some(content.as_str()))
            .expect("a put names the content");
        let fields: Vec<&str> = record.split(' ').collect();
        (
            fields[4].parse().unwrap(),
            fields[5].parse().unwrap(),
            fields[3].parse().unwrap(),
        )
    }

    fn segment_file(root: &Path, segment: u32) -> PathBuf {
        root.join(format!("{segment}.seg"))
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
        // Half of the segment is still live: it is kept whole.
        assert_eq!(
            fs::metadata(segment_file(root.path(), 0)).unwrap().len(),
            128
        );
        // The fifth output leaves the segment 64 of 160 bytes live: compacted.
        compute_once(&cache, &key(4), &[4; 32]);
        assert_eq!(
            listing(root.path()),
            ["1.seg", "claims.log", "index.log"],
            "the sparse segment is gone"
        );
        assert_eq!(
            fs::metadata(segment_file(root.path(), 1)).unwrap().len(),
            64
        );
        drop(cache);
        let cache = ActionCache::with_tiers(
            ImageStore::new(),
            TierConfig::new().disk(DiskTierConfig::new(root.path()).capacity_bytes(64)),
        )
        .unwrap();
        for n in [3u32, 4] {
            let (blob, tier) = compute_once(&cache, &key(n), b"unused");
            assert_eq!(
                (blob.as_slice(), tier),
                (&[n as u8; 32][..], Some(CacheTier::Disk))
            );
        }
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
        let cache = ActionCache::with_tiers(ImageStore::new(), config).unwrap();
        let disk = cache.disk_stats().unwrap();
        assert_eq!(
            (disk.entries, disk.stale_drops),
            (2, 0),
            "both ranges landed"
        );
        // Behind the open tier's back, the segment loses its second range.
        let segment = fs::OpenOptions::new()
            .write(true)
            .open(segment_file(root.path(), 0))
            .unwrap();
        segment.set_len(4).unwrap();
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

    /// Opening a root reads its journal and each segment's length, not a blob
    /// byte; reopening a populated root and loading every key creates no file or
    /// directory under it, and reads through one handle per segment.
    #[test]
    fn opening_a_root_reads_the_journal_and_no_blob_file() {
        let root = TempRoot::new("no-blobs");
        let keys: Vec<Digest> = (0..8).map(|n| key(n).digest().clone()).collect();
        {
            let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
            for (n, k) in (0u8..).zip(&keys) {
                let payload = [n; 5];
                tier.store(k, &Digest::of_bytes(&payload), &payload);
            }
        }
        let before = listing(root.path());
        assert_eq!(before, ["0.seg", "index.log"]);
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.stale_drops, stats.bytes), (8, 0, 40));
        for (n, k) in (0u8..).zip(&keys) {
            let (content, bytes) = tier.load(k).unwrap();
            assert_eq!((content, bytes), (Digest::of_bytes(&[n; 5]), vec![n; 5]));
        }
        assert_eq!(tier.segments.lock().len(), 1, "one handle for eight blobs");
        drop(tier);
        assert_eq!(listing(root.path()), before, "nothing created");
    }

    #[test]
    fn a_put_past_its_segment_end_is_a_stale_drop_never_served() {
        let root = TempRoot::new("past-end");
        let keys: Vec<Digest> = (0..6).map(|n| key(n).digest().clone()).collect();
        let content = Digest::of_bytes(b"payload");
        DiskTier::open(DiskTierConfig::new(root.path()))
            .unwrap()
            .store(&keys[0], &content, b"payload");
        // Records whose bytes never landed: a crash between the two appends, a
        // length the segment cannot hold, and a segment that does not exist.
        let mut journal = fs::OpenOptions::new()
            .append(true)
            .open(root.path().join("index.log"))
            .unwrap();
        for (k, range) in keys[1..4].iter().zip(["7 0 7", "4000000000 0 0", "7 9 0"]) {
            writeln!(journal, "put {} {content} {range}", k.hex()).unwrap();
        }
        writeln!(journal, "put {} {content} 7 0 {}", keys[4].hex(), u64::MAX).unwrap();
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.stale_drops, stats.bytes), (1, 4, 7));
        for k in &keys[1..5] {
            assert!(tier.load(k).is_none(), "never served");
        }
        // A range appended after the open, whose segment is then cut short,
        // is dropped at its first read: it is checked against the file's length
        // before anything is allocated.
        writeln!(journal, "put {} {content} 4000000000 0 0", keys[5].hex()).unwrap();
        assert!(tier.load(&keys[5]).is_none());
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.stale_drops), (1, 5));
        assert_eq!(tier.load(&keys[0]), Some((content, b"payload".to_vec())));
    }

    #[test]
    fn a_root_in_the_file_per_blob_layout_reopens_empty() {
        let root = TempRoot::new("legacy");
        let content = Digest::of_bytes(b"payload");
        for dir in ["blobs", "locks", "quarantine"] {
            fs::create_dir_all(root.path().join(dir)).unwrap();
        }
        fs::write(root.path().join("blobs").join(content.hex()), b"payload").unwrap();
        let keys: Vec<Digest> = (0..3).map(|n| key(n).digest().clone()).collect();
        let journal: String = keys
            .iter()
            .map(|k| format!("put {} {content} 7\n", k.hex()))
            .collect();
        fs::write(root.path().join("index.log"), journal).unwrap();
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        let stats = tier.stats();
        assert_eq!(
            (stats.entries, stats.legacy_drops, stats.stale_drops),
            (0, 3, 0)
        );
        assert!(keys.iter().all(|k| tier.load(k).is_none()), "never misread");
        assert_eq!(listing(root.path()), ["index.log"]);
        assert!(fs::read(root.path().join("index.log")).unwrap().is_empty());
        // Reopened empty, it now works as a fresh root, and stays so.
        tier.store(&keys[0], &content, b"payload");
        drop(tier);
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        assert_eq!((tier.stats().entries, tier.stats().legacy_drops), (1, 0));
        assert_eq!(tier.load(&keys[0]), Some((content, b"payload".to_vec())));
    }

    #[test]
    fn two_stacks_on_one_root_single_flight_via_claims() {
        let root = TempRoot::new("claims");
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
                    // Hold the flight (and the claim) long enough for B to
                    // contend, then publish.
                    std::thread::sleep(Duration::from_millis(80));
                    count_a.fetch_add(1, Ordering::SeqCst);
                    a.complete(ticket, b"computed-once".to_vec())
                }
                other => panic!("expected Owner, got {other:?}"),
            });
            // Give A time to claim the key before B probes.
            std::thread::sleep(Duration::from_millis(20));
            let count_b = computed.clone();
            let waiter = scope.spawn(move || match b.try_begin(&key(3)) {
                TryBegin::Hit(blob, tier, _) => {
                    assert_eq!(tier, CacheTier::Disk, "served behind A's claim");
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
        // Each claim was released: the log ends with no key held.
        let mut claims = Claims::default();
        claims.apply(&fs::read(root.path().join("claims.log")).unwrap());
        assert!(claims.open.is_empty());
    }

    #[test]
    fn stale_lock_from_a_crashed_owner_is_broken() {
        let root = TempRoot::new("stale-claim");
        let config = TierConfig::new().disk_root(root.path());
        let cache = ActionCache::with_tiers(ImageStore::new(), config).unwrap();
        // Plant the claim of an owner that crashed mid-compute long ago (unix
        // millisecond 0), and a release of another owner's claim that changes
        // nothing.
        let planted = format!("claim {k} 7 0\nrelease {k} 8\n", k = key(4).digest().hex());
        fs::create_dir_all(root.path()).unwrap();
        fs::write(root.path().join("claims.log"), planted).unwrap();
        let (_, tier) = compute_once(&cache, &key(4), b"recovered");
        assert_eq!(
            tier, None,
            "the new owner computed after breaking the claim"
        );
        assert_eq!(cache.disk_stats().unwrap().locks_broken, 1);
        assert_eq!(
            cache.disk_stats().unwrap().lock_waits,
            0,
            "nobody was waited on"
        );
        let log = fs::read_to_string(root.path().join("claims.log")).unwrap();
        let released = format!("release {} {}\n", key(4).digest().hex(), owner_of(&cache));
        assert!(log.ends_with(&released), "released after completion: {log}");
    }

    /// A claim whose recorded time is ahead of this clock never ages past the
    /// timeout; the wait on it is bounded by the waiter's own clock instead.
    #[test]
    fn a_claim_dated_in_the_future_is_waited_on_for_the_timeout_only() {
        let root = TempRoot::new("future-claim");
        let config = DiskTierConfig::new(root.path()).lock_timeout(Duration::from_millis(20));
        let cache = ActionCache::with_tiers(ImageStore::new(), TierConfig::new().disk(config));
        let cache = cache.unwrap();
        let planted = format!("claim {} 7 {}\n", key(5).digest().hex(), u64::MAX);
        fs::write(root.path().join("claims.log"), planted).unwrap();
        let started = std::time::Instant::now();
        let (blob, tier) = compute_once(&cache, &key(5), b"computed");
        assert_eq!((blob.as_slice(), tier), (&b"computed"[..], None));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{:?}",
            started.elapsed()
        );
        assert_eq!(
            cache.disk_stats().unwrap().locks_broken,
            0,
            "not stale by its age"
        );
    }

    /// The owner name `cache`'s disk tier writes into `claims.log`.
    fn owner_of(cache: &ActionCache) -> u64 {
        cache.disk.as_ref().unwrap().owner
    }

    #[test]
    fn a_sparse_segment_is_compacted_only_once_its_writer_is_gone() {
        let root = TempRoot::new("compact");
        let config = || DiskTierConfig::new(root.path());
        let keys: Vec<Digest> = (0..5).map(|n| key(n).digest().clone()).collect();
        let payloads: Vec<[u8; 8]> = (0..5u8).map(|n| [n; 8]).collect();
        let content = |n: usize| Digest::of_bytes(&payloads[n]);
        let writer = DiskTier::open(config()).unwrap();
        for n in 0..5 {
            writer.store(&keys[n], &content(n), &payloads[n]);
        }
        // Another tier drops three of the five: segment 0 is two fifths live,
        // but its writer still holds it.
        let other = DiskTier::open(config()).unwrap();
        for k in &keys[..3] {
            other.discard(k);
        }
        assert!(segment_file(root.path(), 0).exists());
        drop(writer);
        // Its writer gone, the next drop compacts it: the live entry moves into
        // the compacting tier's own segment, and the file goes.
        other.discard(&keys[3]);
        assert!(!segment_file(root.path(), 0).exists());
        assert_eq!(range_of(root.path(), &content(4)), (1, 0, 8));
        let reopened = DiskTier::open(config()).unwrap();
        assert_eq!(reopened.stats().entries, 1);
        assert_eq!(
            reopened.load(&keys[4]),
            Some((content(4), payloads[4].to_vec()))
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

    /// Overwrite (`keep: None`) the segment range holding `payload`, or zero it
    /// after its first `keep` bytes, in place: the range keeps its length.
    fn damage(root: &Path, payload: &[u8], keep: Option<usize>) {
        let (segment, offset, len) = range_of(root, &Digest::of_bytes(payload));
        let damaged = match keep {
            Some(keep) => [&payload[..keep], &vec![0; len - keep][..]].concat(),
            None => b"the FAKE artifact!"[..len].to_vec(),
        };
        let file = fs::OpenOptions::new()
            .write(true)
            .open(segment_file(root, segment))
            .unwrap();
        file.write_all_at(&damaged, offset).unwrap();
    }

    #[test]
    fn a_damaged_range_is_discarded_and_recomputed_never_served() {
        for keep in [None, Some(6)] {
            // Tier level: `load` hands back the recorded digest beside whatever the
            // range holds now; `discard` drops the entry.
            let root = TempRoot::new("damaged-tier");
            let payload = b"the real artifact";
            let (k, content) = (key(1).digest().clone(), Digest::of_bytes(payload));
            DiskTier::open(DiskTierConfig::new(root.path()))
                .unwrap()
                .store(&k, &content, payload);
            damage(root.path(), payload, keep);
            let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
            let (recorded, bytes) = tier.load(&k).expect("still indexed");
            assert_eq!(recorded, content);
            assert_ne!(Digest::of_bytes(&bytes), recorded, "the range was damaged");
            tier.discard(&k);
            assert!(tier.load(&k).is_none() && !indexed(&tier, &k));
            assert_eq!((tier.stats().corrupt_drops, tier.stats().entries), (1, 0));
            assert!(
                !segment_file(root.path(), 0).exists(),
                "nothing live: unlinked"
            );

            // Stack level: the lookup is a miss (never the damaged bytes), the
            // recompute heals the root, and a restart serves the real output.
            let root = TempRoot::new("damaged-stack");
            let config = TierConfig::new().disk_root(root.path());
            let cache = ActionCache::with_tiers(ImageStore::new(), config.clone()).unwrap();
            compute_once(&cache, &key(1), payload);
            damage(root.path(), payload, keep);
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
        // Stored last, the range that goes missing is the segment's tail.
        for (n, payload) in [(1, &b"corrupted"[..]), (3, b"swept"), (2, b"deleted")] {
            compute_once(&cache, &key(n), payload);
        }
        damage(root.path(), b"corrupted", None);
        let (segment, offset, _) = range_of(root.path(), &Digest::of_bytes(b"deleted"));
        let file = fs::OpenOptions::new()
            .write(true)
            .open(segment_file(root.path(), segment))
            .unwrap();
        file.set_len(offset).unwrap();
        drop(cache);
        // After the restart key 1's read-through fails verification (corrupt)
        // and key 2's range is past its segment's end (stale): both recompute.
        // Key 3 is promoted into memory.
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
            assert!(tier.load(&keys[3]).is_some(), "cut at byte {cut}");
            drop(tier);
            for name in listing(root.path()).iter().filter(|name| *name != "0.seg") {
                if name.ends_with(".seg") {
                    fs::remove_file(root.path().join(name)).unwrap();
                }
            }
        }
    }

    #[test]
    fn journal_records_are_outside_input() {
        let root = TempRoot::new("hostile");
        let content = Digest::of_bytes(b"payload");
        fs::create_dir_all(root.path()).unwrap();
        fs::write(segment_file(root.path(), 0), b"payload").unwrap();
        let keys: Vec<Digest> = (0..3).map(|n| key(n).digest().clone()).collect();
        let journal = format!(
            "put {} {content} 99999999999999999999999999 0 0\nput ../../etc {content} 7 0 0\n\
             put {} {content} 7 0 0\n",
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
        // A range that parses is still only a claim: one the segment cannot hold
        // is dropped before it is read, so the byte count cannot overflow into the
        // eviction budget.
        let claimed = format!(
            "{journal}put {} {content} {} 0 0\n",
            keys[2].hex(),
            u32::MAX
        );
        fs::write(root.path().join("index.log"), claimed).unwrap();
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        assert!(tier.load(&keys[1]).is_some() && tier.load(&keys[2]).is_none());
        let stats = tier.stats();
        assert_eq!((stats.entries, stats.bytes, stats.stale_drops), (1, 7, 1));
    }

    /// A tier opened on a root whose journal is `journal` and whose segment 0
    /// holds `b"payload"`.
    fn opened_on(journal: &[u8]) -> (TempRoot, DiskTier) {
        let root = TempRoot::new("records");
        fs::create_dir_all(root.path()).unwrap();
        fs::write(segment_file(root.path(), 0), b"payload").unwrap();
        fs::write(root.path().join("index.log"), journal).unwrap();
        let tier = DiskTier::open(DiskTierConfig::new(root.path())).unwrap();
        (root, tier)
    }

    /// The index as `(key, content, stamp, segment, offset, len)`, and the
    /// replay offset.
    #[allow(clippy::type_complexity)]
    fn replayed(tier: &DiskTier) -> (Vec<(Hash, Hash, u64, u32, u64, u32)>, u64) {
        let offset = tier.writer.lock().offset;
        let index = tier.index.lock();
        let entries = index.entries.iter();
        let entries =
            entries.map(|(key, e)| (*key, e.content, e.stamp, e.segment, e.offset, e.len));
        (entries.collect(), offset)
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
            text += &format!(
                "put {} {content} {} 0 {}\n",
                key.digest().hex(),
                n % 4,
                n % 3
            );
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
        let torn = format!("{text}put {} {content} 7 0", key(500).digest().hex());

        for journal in [&text, &torn] {
            let (root, tier) = opened_on(journal.as_bytes());
            // The reference: the whole text replayed at once into a fresh index.
            let (_empty, whole) = opened_on(b"");
            let ends_torn = !journal.ends_with('\n');
            whole.index.lock().replay(journal.as_bytes());
            whole.writer.lock().offset = journal.len() as u64 + u64::from(ends_torn);
            assert_eq!(replayed(&tier), replayed(&whole));
            let written = fs::read(root.path().join("index.log")).unwrap();
            assert_eq!(written.len() as u64, replayed(&tier).1);

            for capacity in [1, 100, 149, 4096] {
                let (_small, small) = opened_on(b"");
                let mut index = small.index.lock();
                let (read, fragment) = index.replay_lines(journal.as_bytes(), capacity);
                index.apply_journal_line(&fragment);
                drop(index);
                assert_eq!(read, journal.len() as u64);
                assert_eq!(fragment.is_empty(), !ends_torn, "capacity {capacity}");
                small.writer.lock().offset = read + u64::from(ends_torn);
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

        let upper = format!(
            "put {k} sha256:{} 7 0 0\n",
            content.hex().to_ascii_uppercase()
        );
        assert_eq!(
            opened_on(upper.as_bytes()).1.load(&keys[0]),
            Some((content.clone(), b"payload".to_vec())),
            "uppercase content hex is indexed and served under the lowercase name"
        );
        let (_root, tier) =
            opened_on(format!("put {k} sha256:{} 3 0 +2\n", content.hex()).as_bytes());
        assert_eq!(
            tier.load(&keys[0]).map(|(_, bytes)| bytes),
            Some(b"ylo".to_vec()),
            "the range is `offset..offset + len`, `+2` as offset"
        );
        assert!(
            holds_k(format!("put {k} {content} +7 0 0\n")),
            "`+7` as len"
        );
        assert!(
            holds_k(format!("put\t{k}  {content}\t\t7 0\t0\n")),
            "tabs and doubled spaces"
        );
        assert!(
            holds_k(format!("put {k} {content} 7 0 0\r\n")),
            "a CRLF line end"
        );
        assert!(
            holds_k(format!("put {k} {content} 7 0 0 trailing fields\n")),
            "fields after the offset"
        );
        let (_root, rangeless) = opened_on(format!("put {k} {content} 7\n").as_bytes());
        assert!(
            indexed(&rangeless, &keys[0]),
            "a put without a range is indexed"
        );
        assert!(rangeless.load(&keys[0]).is_none(), "but never read");
        assert_eq!(rangeless.stats().stale_drops, 1);

        let upper_key = k.to_ascii_uppercase();
        for (line, case) in [
            (
                format!("put {upper_key} {content} 7 0 0"),
                "an uppercase key",
            ),
            (format!("put {} {content} 7 0 0", &k[1..]), "a 63-digit key"),
            (format!("put {k}0 {content} 7 0 0"), "a 65-digit key"),
            (
                format!("put {k} sha512:{} 7 0 0", content.hex()),
                "a sha512 content",
            ),
            (format!("put {k} {content}"), "a missing len"),
            (format!("put {k} {content} seven 0 0"), "a non-numeric len"),
            (
                format!("put {k} {content} 4294967296 0 0"),
                "a len past u32",
            ),
            (
                format!("put {k} {content} 7 0"),
                "a segment without an offset",
            ),
            (
                format!("put {k} {content} 7 4294967295 0"),
                "the no-range segment",
            ),
            (format!("put {k} {content} 7 -1 0"), "a negative segment"),
            (
                format!("put\u{a0}{k} {content} 7 0 0"),
                "non-ASCII whitespace, which separates no fields",
            ),
        ] {
            assert!(!holds_k(format!("{line}\n")), "skipped: {case}");
        }

        let mut journal = format!("put {other} {content} 7 0 0\nput ").into_bytes();
        journal.extend_from_slice(&k.as_bytes()[..60]);
        journal.extend_from_slice(b"\xff\xfe\xc3\x28");
        journal.extend_from_slice(
            format!(" {content} 7 0 0\nput {third} {content} 7 0 0\n").as_bytes(),
        );
        let (_root, tier) = opened_on(&journal);
        assert_eq!(
            keys.iter()
                .map(|key| indexed(&tier, key))
                .collect::<Vec<_>>(),
            [false, true, true],
            "a line with invalid UTF-8 is skipped, and only that line"
        );

        let put = format!("put {k} {content} 7 0 0\n");
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
        // root written by this version holds, and what every later one must read.
        let root = TempRoot::new("pinned");
        let tier = DiskTier::open(DiskTierConfig::new(root.path()).capacity_bytes(8)).unwrap();
        let keys: Vec<Digest> = (1..=3)
            .map(|n| Digest::of_str(&format!("journal-key-{n}")))
            .collect();
        for (k, payload) in keys.iter().zip([b"aaaa", b"bbbb", b"cccc"]) {
            tier.store(k, &Digest::of_bytes(payload), payload);
        }
        // The third store evicted the first key; now the second is discarded,
        // which leaves segment 0 a third live: its last entry moves to segment 1.
        tier.discard(&keys[1]);
        let journal = fs::read_to_string(root.path().join("index.log")).unwrap();
        assert_eq!(
            journal,
            "put 6b36cf9859067cde8601830ca2e207c0c6818961f57f9a80332f18229fc74fc1 \
             sha256:61be55a8e2f6b4e172338bddf184d6dbee29c98853e0a0485ecee7f27b9af0b4 4 0 0\n\
             put da6dcb77365503c671f135afa0a4867ca85bdb36ce2afc2eef0aee5b1848e596 \
             sha256:81cc5b17018674b401b42f35ba07bb79e211239c23bffe658da1577e3e646877 4 0 4\n\
             put 3468c204dd931a57ac839783bc73c870f1d46e3feb54c0135165c7949fe5eab7 \
             sha256:b6fbd675f98e2abd22d4ed29fdc83150fedc48597e92dd1a7a24381d44a27451 4 0 8\n\
             del 6b36cf9859067cde8601830ca2e207c0c6818961f57f9a80332f18229fc74fc1\n\
             del da6dcb77365503c671f135afa0a4867ca85bdb36ce2afc2eef0aee5b1848e596\n\
             put 3468c204dd931a57ac839783bc73c870f1d46e3feb54c0135165c7949fe5eab7 \
             sha256:b6fbd675f98e2abd22d4ed29fdc83150fedc48597e92dd1a7a24381d44a27451 4 1 0\n"
        );
        assert_eq!(listing(root.path()), ["1.seg", "index.log"]);
        assert_eq!(fs::read(segment_file(root.path(), 1)).unwrap(), b"cccc");
        // A claim and its release, as a miss writes them.
        let claim = tier.claim([7; 32]).unwrap();
        drop(claim);
        let claims = fs::read_to_string(root.path().join("claims.log")).unwrap();
        let (owner, hex) = (tier.owner, "07".repeat(32));
        let at: u64 = claims
            .lines()
            .next()
            .unwrap()
            .split(' ')
            .nth(3)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(
            claims,
            format!("claim {hex} {owner} {at}\nrelease {hex} {owner}\n")
        );
    }

    /// The index in eviction order, oldest first: `(key, content)` pairs.
    fn fifo(tier: &DiskTier) -> Vec<(Hash, Hash)> {
        let index = tier.index.lock();
        let mut entries: Vec<(u64, Hash, Hash)> = index
            .entries
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
            // Four keys, three contents of four bytes each, back to back in
            // segment 0.
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
                    let range = format!("4 0 {}", 4 * c);
                    journal += &format!("put {} {} {range}\n", key_of(k).hex(), content_of(c));
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
            let with_segment = || {
                let root = TempRoot::new("fifo");
                fs::create_dir_all(root.path()).unwrap();
                let bytes: Vec<u8> = (0..3).flat_map(payload_of).collect();
                fs::write(segment_file(root.path(), 0), bytes).unwrap();
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

            let root = with_segment();
            fs::write(root.path().join("index.log"), &journal).unwrap();
            let tier = DiskTier::open(config(&root)).unwrap();
            prop_assert_eq!(fifo(&tier), expected.clone(), "through open");
            evicts_in_model_order(&root, &tier);

            let root = with_segment();
            let tier = DiskTier::open(config(&root)).unwrap();
            fs::write(root.path().join("index.log"), &journal).unwrap();
            tier.catch_up(&mut tier.writer.lock());
            prop_assert_eq!(fifo(&tier), expected, "through a journal catch-up");
            evicts_in_model_order(&root, &tier);
        }
    }

    /// Replay allocates one tree node per entry, so an entry's size is what an
    /// open pays per record (`tests/disk_open_budget.rs`): the range fits in the
    /// 16 bytes an unsized `Option<u64>` length took.
    #[test]
    fn an_index_entry_holds_its_range_in_56_bytes() {
        assert_eq!(std::mem::size_of::<DiskEntry>(), 56);
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
