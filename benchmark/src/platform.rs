//! Platform helpers: what the harness reads from the process and the small
//! order statistics every metric is built from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with two relaxed counters in front of it. The counters
/// publish no other data, so `Relaxed` is enough; they only ever grow, and a
/// phase's cost is the difference of two [`AllocSnapshot`]s.
pub struct CountingAllocator;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only growth is new memory asked of the system.
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block; the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested and allocator calls made by the whole process so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Bytes requested (allocations plus the growth of reallocations).
    pub bytes: u64,
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
}

impl AllocSnapshot {
    /// The counters now.
    pub fn now() -> Self {
        Self {
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            calls: ALLOC_CALLS.load(Ordering::Relaxed),
        }
    }

    /// What was allocated between `earlier` and `self`.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            bytes: self.bytes - earlier.bytes,
            calls: self.calls - earlier.calls,
        }
    }
}

/// Kernel clock ticks per second. Linux has reported `USER_HZ = 100` through
/// `/proc` on every architecture since 2.6, whatever the kernel's own `HZ`.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in milliseconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_cpu_ms(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1e3 / USER_HZ)
}

/// CPU time (user + system, all threads) this process has used, in ms.
pub fn process_cpu_ms() -> Option<f64> {
    parse_cpu_ms(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// The value of a `kB` line (`VmHWM`, `VmRSS`, …) of `/proc/<pid>/status`, in MB.
pub fn parse_status_mb(status: &str, field: &str) -> Option<f64> {
    let line = status
        .lines()
        .find(|line| line.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_status_mb(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// The filesystem type `path` lives on: the longest mount point of
/// `/proc/mounts` text that is a prefix of `path`.
pub fn filesystem_of(mounts: &str, path: &std::path::Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_device, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype.to_string())
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `q` of the samples at or below it. `q` in `(0, 1]`; `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The undisturbed value of replays of the same work: the mean of the fastest 2 %
/// of them (at least one). Interference only ever adds time, so the fastest
/// replays are the ones the neighbours disturbed least; averaging a few of them
/// instead of taking the single minimum repeats better from run to run.
pub fn fastest(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let keep = (sorted.len() / 50).max(1).min(sorted.len());
    (keep > 0).then(|| sorted[..keep].iter().sum::<f64>() / keep as f64)
}

/// The three quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method) — the driver's spread is `(q3 - q1) / median` of
/// these. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len() + 1;
    Some([1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, sorted.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_allocator_sees_bytes_and_calls() {
        let before = AllocSnapshot::now();
        let buffer: Vec<u8> = Vec::with_capacity(4096);
        let delta = AllocSnapshot::now().since(&before);
        drop(buffer);
        // Other test threads allocate too, so the counters are a lower bound here.
        assert!(delta.bytes >= 4096, "{delta:?}");
        assert!(delta.calls >= 1, "{delta:?}");
    }

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        let stat = "42 (a b) c) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_ms(stat), Some(3000.0));
        assert_eq!(parse_cpu_ms("garbage"), None);
        assert!(process_cpu_ms().is_some());
    }

    #[test]
    fn vm_hwm_is_read_in_mb_and_not_confused_with_a_prefix() {
        let status = "Name:\tx\nVmHWMX:\t1 kB\nVmHWM:\t  2048 kB\nVmRSS:\t1024 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(2.0));
        assert_eq!(parse_status_mb(status, "VmSwap"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn filesystem_is_the_longest_matching_mount() {
        let mounts = "overlay / overlay rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n";
        let fs = |p: &str| filesystem_of(mounts, std::path::Path::new(p));
        assert_eq!(fs("/dev/shm/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/repo").as_deref(), Some("overlay"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(5.0));
        assert_eq!(percentile(&samples, 0.9), Some(9.0));
        assert_eq!(percentile(&samples, 0.91), Some(10.0));
        assert_eq!(percentile(&samples, 1.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn fastest_is_the_mean_of_the_least_fiftieth() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(fastest(&samples), Some(2.5), "the mean of 1, 2, 3, 4");
        assert_eq!(fastest(&[9.0, 3.0, 5.0]), Some(3.0), "at least one");
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_ignores_one_slow_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[1.0, 1.0, 9.0, 1.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }
}
