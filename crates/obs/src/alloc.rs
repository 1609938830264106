//! Allocation accounting: a counting global allocator (behind the
//! `alloc-profile` cargo feature) plus portable peak-RSS sampling.
//!
//! The counting allocator wraps [`std::alloc::System`] and tallies
//! every allocation into process-global relaxed atomics: call count,
//! bytes requested, live bytes, and a high-water mark of live bytes.
//! Binaries opt in by installing it:
//!
//! ```ignore
//! #[cfg(feature = "alloc-profile")]
//! #[global_allocator]
//! static ALLOC: qnet_obs::CountingAllocator = qnet_obs::CountingAllocator;
//! ```
//!
//! [`AllocScope`] brackets a region and yields the delta as an
//! [`AllocSummary`] — `None` when the feature is compiled out, so call
//! sites need no `cfg`. With the feature off this module is entirely
//! atomic-free dead weight (`begin` captures three zeros) and the crate
//! keeps its `forbid(unsafe_code)`; the one `unsafe` block below only
//! exists under the feature.

use crate::profile::AllocSummary;

#[cfg(feature = "alloc-profile")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static BYTES: AtomicU64 = AtomicU64::new(0);
    pub static LIVE: AtomicU64 = AtomicU64::new(0);
    pub static PEAK: AtomicU64 = AtomicU64::new(0);

    fn on_alloc(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(size: usize) {
        LIVE.fetch_sub(size as u64, Ordering::Relaxed);
    }

    /// A [`System`]-backed global allocator that counts every call.
    /// Overhead is a handful of relaxed atomic RMWs per allocation —
    /// fine for profiling builds, which is the only place the
    /// `alloc-profile` feature should be enabled.
    pub struct CountingAllocator;

    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            on_dealloc(layout.size());
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                on_alloc(new_size);
                on_dealloc(layout.size());
            }
            p
        }
    }
}

#[cfg(feature = "alloc-profile")]
pub use counting::CountingAllocator;

/// `true` when this build carries the counting allocator hooks (the
/// `alloc-profile` feature). Note the *binary* must also install
/// `CountingAllocator` for the tallies to move.
pub const fn alloc_profiling_compiled() -> bool {
    cfg!(feature = "alloc-profile")
}

/// Brackets a region for allocation accounting; see [`AllocScope::end`].
#[derive(Clone, Copy, Debug)]
// The captured tallies are only read back under `alloc-profile`.
#[cfg_attr(not(feature = "alloc-profile"), allow(dead_code))]
pub struct AllocScope {
    allocs: u64,
    bytes: u64,
    live: u64,
}

impl AllocScope {
    /// Starts a scope at the current tallies. Resets the live-bytes
    /// high-water mark to the current live volume, so the scope's
    /// `peak_bytes` measures *this* region — scopes therefore should
    /// not overlap.
    pub fn begin() -> AllocScope {
        #[cfg(feature = "alloc-profile")]
        {
            use std::sync::atomic::Ordering;
            let live = counting::LIVE.load(Ordering::Relaxed);
            counting::PEAK.store(live, Ordering::Relaxed);
            AllocScope {
                allocs: counting::ALLOCS.load(Ordering::Relaxed),
                bytes: counting::BYTES.load(Ordering::Relaxed),
                live,
            }
        }
        #[cfg(not(feature = "alloc-profile"))]
        {
            AllocScope {
                allocs: 0,
                bytes: 0,
                live: 0,
            }
        }
    }

    /// Ends the scope, returning allocation count / bytes since
    /// [`AllocScope::begin`] and the peak live bytes above the scope's
    /// starting live volume. `None` when `alloc-profile` is compiled
    /// out.
    pub fn end(self) -> Option<AllocSummary> {
        #[cfg(feature = "alloc-profile")]
        {
            use std::sync::atomic::Ordering;
            let peak = counting::PEAK.load(Ordering::Relaxed);
            Some(AllocSummary {
                allocs: counting::ALLOCS.load(Ordering::Relaxed) - self.allocs,
                bytes: counting::BYTES.load(Ordering::Relaxed) - self.bytes,
                peak_bytes: peak.saturating_sub(self.live),
            })
        }
        #[cfg(not(feature = "alloc-profile"))]
        {
            let _ = self;
            None
        }
    }
}

/// The process peak resident set size in bytes, from `VmHWM` in
/// `/proc/self/status`. `None` off Linux or when the file is absent
/// (the profile report then just omits the figure).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_is_none_without_the_feature_and_counts_with_it() {
        let scope = AllocScope::begin();
        // Allocate something unambiguous inside the scope.
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let summary = scope.end();
        drop(v);
        if alloc_profiling_compiled() {
            // The counting *type* is compiled in, but the test binary
            // only tallies if the harness installed it; either way the
            // summary must exist and be internally consistent.
            let s = summary.expect("feature on: summary present");
            assert!(s.bytes >= s.peak_bytes || s.peak_bytes == 0 || s.bytes == 0);
        } else {
            assert!(summary.is_none(), "feature off: no accounting");
        }
    }

    #[test]
    fn peak_rss_parses_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("/proc/self/status has VmHWM");
            assert!(rss > 0);
        }
    }
}
