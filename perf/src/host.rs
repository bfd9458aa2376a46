//! What the numbers were measured on: the host header every result
//! carries, the counting allocator behind the `allocs_per_*` metrics, peak
//! resident memory, and a STREAM-triad bandwidth probe that the `gbps`
//! kernel rows are read against.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Bumped whenever a workload's inputs or a metric's definition change;
/// `perf compare` refuses to compare records of different versions.
pub const BENCH_VERSION: u32 = 1;

/// Counts allocations and bytes requested, then defers to the system
/// allocator. Relaxed counters: they are statistics, nothing synchronises
/// on them.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters do not
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since process start, all threads.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set size of this process (`VmHWM`), MiB. 0 where
/// `/proc` is not available.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of cpu0's last-level cache in bytes, from sysfs; `None` when the
/// host does not expose it.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

fn parse_size(text: &str) -> Option<u64> {
    let (digits, mult) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// Assumed when sysfs does not state a last-level cache size.
const FALLBACK_LLC_BYTES: u64 = 32 << 20;
/// The triad arrays are not grown past this, whatever the cache size:
/// touching them is most of the probe's time. A host whose last-level
/// cache is larger (the reference host reports its whole socket's) gets a
/// figure that is partly cache bandwidth; both sizes are reported.
const STREAM_MAX_ARRAY_BYTES: u64 = 64 << 20;

/// Result of the STREAM-triad probe.
#[derive(Debug, Clone, Copy)]
pub struct StreamProbe {
    pub gbps: f64,
    pub array_bytes: u64,
    pub llc_bytes: u64,
}

/// One-thread STREAM triad `a[i] = b[i] + s·c[i]` over arrays of four
/// last-level caches each (capped), best of `passes`. Bytes are computed: 12
/// per element (two loads, one store; write-allocate traffic not counted).
pub fn stream_triad(passes: usize) -> StreamProbe {
    let llc = llc_bytes().unwrap_or(FALLBACK_LLC_BYTES);
    let array_bytes = (4 * llc).min(STREAM_MAX_ARRAY_BYTES);
    let n = (array_bytes / 4) as usize;
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    let mut best = f64::INFINITY;
    for pass in 0..passes.max(1) {
        let s = 0.5 + pass as f32;
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    StreamProbe {
        gbps: 12.0 * n as f64 / best / 1e9,
        array_bytes,
        llc_bytes: llc,
    }
}

/// Identifies the conditions a result was measured under. `perf compare`
/// refuses two records that disagree on version, `nproc`, SIMD tier, pool
/// size or scale.
#[derive(Debug, Clone)]
pub struct HostHeader {
    pub bench_version: u32,
    pub nproc: usize,
    pub simd_tier: &'static str,
    pub pool_threads: usize,
    pub llc_bytes: u64,
    pub seed: u64,
    pub commit: String,
    pub smoke: bool,
}

impl HostHeader {
    pub fn capture(pool_threads: usize, seed: u64, commit: &str, smoke: bool) -> Self {
        HostHeader {
            bench_version: BENCH_VERSION,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd_tier: matgnn::tensor::simd::active_tier().name(),
            pool_threads,
            llc_bytes: llc_bytes().unwrap_or(0),
            seed,
            commit: commit.to_string(),
            smoke,
        }
    }

    pub fn to_json(&self) -> String {
        let mut commit = String::new();
        matgnn::telemetry::json::escape_str_into(&mut commit, &self.commit);
        format!(
            "{{\"bench_version\":{},\"nproc\":{},\"simd_tier\":\"{}\",\"pool_threads\":{},\
             \"llc_bytes\":{},\"seed\":{},\"commit\":{},\"smoke\":{}}}",
            self.bench_version,
            self.nproc,
            self.simd_tier,
            self.pool_threads,
            self.llc_bytes,
            self.seed,
            commit,
            self.smoke
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_suffixes() {
        assert_eq!(parse_size("32K"), Some(32 << 10));
        assert_eq!(parse_size("36608K"), Some(36608 << 10));
        assert_eq!(parse_size("8M"), Some(8 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("xK"), None);
    }

    #[test]
    fn header_is_json() {
        let h = HostHeader::capture(2, 7, "abc\"def", true);
        let doc = matgnn::telemetry::json::parse(&h.to_json()).expect("header parses");
        assert_eq!(doc.get("seed").and_then(|j| j.as_num()), Some(7.0));
        assert_eq!(doc.get("commit").and_then(|j| j.as_str()), Some("abc\"def"));
    }
}
