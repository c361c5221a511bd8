//! Allocation budget for reopening a disk tier.
//!
//! A restart replays the tier's journal before it serves anything, so what
//! replay costs per record is paid by every restarted process. Replay streams
//! the journal through a fixed buffer and decodes each record's digests into raw
//! keys in one pass; the only allocations that grow with the journal are the
//! index's own tree nodes. This test keeps it so: the allocation calls and the
//! bytes an open allocates per extra `put` record stay under budgets.
//!
//! The file holds a single test on purpose: the counting allocator is process-wide,
//! and a second test running beside it would be counted too.

use std::fs;
use std::path::PathBuf;
use xaas_container::{Digest, DiskTier, DiskTierConfig};

mod common;

#[global_allocator]
static GLOBAL: common::CountingAllocator = common::CountingAllocator;

/// The two journal sizes whose difference is measured.
const SMALL: usize = 200;
const LARGE: usize = 2_000;
/// When replay parsed each line through `String`s, an open made 5.14 allocation
/// calls per `put` record; decoding into raw keys left the index's tree nodes.
const CALLS_PER_RECORD_BUDGET: f64 = 0.25;
/// While open read the whole journal into memory, an open allocated 283 bytes
/// per record (its ~147 bytes of text plus the tree nodes); streamed through a
/// fixed buffer, the index's tree nodes (~138 B).
const BYTES_PER_RECORD_BUDGET: f64 = 160.0;

/// A disk root holding `records` journal records, removed on drop.
struct Root {
    path: PathBuf,
    records: usize,
}

impl Drop for Root {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// A root whose journal holds `records` `put` lines, in the text
/// `DiskTier::store` writes: each names its range of segment `0.seg`, whose
/// length covers every range. The segment is sparse: opening reads no blob byte.
fn root_with_puts(records: usize) -> Root {
    let root = Root {
        path: std::env::temp_dir()
            .join(format!("xaas-open-budget-{records}-{}", std::process::id())),
        records,
    };
    let _ = fs::remove_dir_all(&root.path);
    fs::create_dir_all(&root.path).expect("the scratch root is creatable");
    let mut offset = 0u64;
    let journal: String = (0..records)
        .map(|n| {
            let key = Digest::of_str(&format!("key-{n}"));
            let content = Digest::of_str(&format!("content-{n}"));
            let len = 100 + n as u64;
            let record = format!("put {} {content} {len} 0 {offset}\n", key.hex());
            offset += len;
            record
        })
        .collect();
    fs::write(root.path.join("index.log"), journal).expect("the journal is writable");
    fs::File::create(root.path.join("0.seg"))
        .and_then(|segment| segment.set_len(offset))
        .expect("the segment is writable");
    root
}

/// Allocation calls and bytes the second of two opens of `root` makes: the first
/// also pays for anything initialised once per process. The tiers are dropped
/// uncounted.
fn open_cost(root: &Root) -> (u64, u64) {
    let mut cost = (0, 0);
    for _ in 0..2 {
        let (tier, calls, bytes) = common::counted(|| {
            DiskTier::open(DiskTierConfig::new(&root.path)).expect("the root opens")
        });
        cost = (calls, bytes);
        assert_eq!(tier.stats().entries, root.records, "every record replayed");
    }
    cost
}

#[test]
fn opening_a_disk_root_allocates_under_a_quarter_call_per_record() {
    let (small_calls, small_bytes) = open_cost(&root_with_puts(SMALL));
    let (large_calls, large_bytes) = open_cost(&root_with_puts(LARGE));
    let per_extra =
        |small: u64, large: u64| large.saturating_sub(small) as f64 / (LARGE - SMALL) as f64;
    let per_record = per_extra(small_calls, large_calls);
    let bytes_per_record = per_extra(small_bytes, large_bytes);
    assert!(
        per_record < CALLS_PER_RECORD_BUDGET,
        "opening a disk root made {per_record:.3} allocation calls per extra journal record \
         ({small_calls} for {SMALL} records, {large_calls} for {LARGE}; budget \
         {CALLS_PER_RECORD_BUDGET}): replay is allocating per record again"
    );
    assert!(
        bytes_per_record <= BYTES_PER_RECORD_BUDGET,
        "opening a disk root allocated {bytes_per_record:.1} bytes per extra journal record \
         ({small_bytes} for {SMALL} records, {large_bytes} for {LARGE}; budget \
         {BYTES_PER_RECORD_BUDGET}): replay is holding the journal in memory again"
    );
    println!(
        "disk tier open: {per_record:.3} allocation calls and {bytes_per_record:.1} bytes \
         per record ({small_calls} calls and {small_bytes} B for {SMALL} records, \
         {large_calls} and {large_bytes} B for {LARGE})"
    );
}
