//! The benchmark's counting global allocator.
//!
//! Wraps [`System`] and keeps four process-wide statistics: allocator
//! calls, bytes requested, live bytes, and the peak of live bytes since
//! the last [`reset_peak`]. `heap_peak_mb` is read from here rather
//! than from RSS because it does not move with OS paging or allocator
//! caching, so two runs of the same code agree.
//!
//! Counting must not distort what it counts: one atomic update per
//! allocator call made a plan-frontier build (millions of small
//! allocations) 70 % slower. Each thread therefore accumulates its own
//! deltas in plain thread-local cells and folds them into the shared
//! counters only once they reach [`FLUSH_BYTES`] or [`FLUSH_CALLS`] —
//! immediately for any large buffer. The shared `live` figure, and so
//! the peak, is exact to within `FLUSH_BYTES` per running thread
//! (a few KiB against peaks of MiB). [`exact`] switches to per-call
//! folding for the probes that count individual allocations.
//!
//! Apart from one foreign call in `host`, this is the harness's only
//! `unsafe` code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering::Relaxed};

/// A thread folds its deltas into the shared counters once its
/// unfolded live-byte delta reaches this size.
const FLUSH_BYTES: isize = 4096;
/// … or once it has this many unfolded calls.
const FLUSH_CALLS: usize = 256;

// Statistics only: no other memory is published through these
// counters, so `Relaxed` is sufficient.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
// Signed: a thread that frees another's allocation may fold its
// negative delta before the allocating thread folds the positive one.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static EXACT: AtomicBool = AtomicBool::new(false);

struct Local {
    live: Cell<isize>,
    calls: Cell<usize>,
    bytes: Cell<usize>,
}

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it at any point of a thread's life, including while other
    // thread-locals are being torn down.
    static LOCAL: Local = const {
        Local {
            live: Cell::new(0),
            calls: Cell::new(0),
            bytes: Cell::new(0),
        }
    };
}

fn fold(local: &Local) {
    let delta = local.live.replace(0);
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live, Relaxed);
    CALLS.fetch_add(local.calls.replace(0), Relaxed);
    BYTES.fetch_add(local.bytes.replace(0), Relaxed);
}

fn note(live_delta: isize, calls: usize, bytes: usize) {
    LOCAL.with(|local| {
        local.live.set(local.live.get() + live_delta);
        local.calls.set(local.calls.get() + calls);
        local.bytes.set(local.bytes.get() + bytes);
        if local.live.get().abs() >= FLUSH_BYTES
            || local.calls.get() >= FLUSH_CALLS
            || EXACT.load(Relaxed)
        {
            fold(local);
        }
    });
}

/// The counting allocator; installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize, 1, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize, 1, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`,
        // and this allocator hands out `System`'s pointers unchanged.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize), 0, 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` passes through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize, 1, new_size);
        }
        p
    }
}

/// A reading of the allocator statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls since process start.
    pub calls: usize,
    /// Bytes requested by those calls since process start.
    pub bytes: usize,
    /// Bytes currently allocated.
    pub live: usize,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: usize,
}

/// Reads the counters, after folding in the calling thread's deltas.
/// Other threads' unfolded deltas (under `FLUSH_BYTES` and
/// `FLUSH_CALLS` each) are not included unless [`exact`] is on.
pub fn snapshot() -> Snapshot {
    LOCAL.with(fold);
    Snapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed).max(0) as usize,
        peak: PEAK.load(Relaxed).max(0) as usize,
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    LOCAL.with(fold);
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Turns per-call folding on or off. While on, every thread folds on
/// every allocator call, so call and byte counts are exact across
/// threads — at the cost the batching exists to avoid. A thread's
/// backlog from before the switch is folded by its next call: run one
/// unmeasured repetition after switching on.
pub fn exact(on: bool) {
    EXACT.store(on, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls_bytes_live_and_resettable_peak() {
        // Other tests allocate concurrently, so assert only what this
        // thread's own 8 MiB block guarantees.
        const BIG: usize = 8 << 20;
        let before = snapshot();
        let block = vec![1u8; BIG];
        let during = snapshot();
        assert!(during.calls > before.calls);
        assert!(during.bytes >= before.bytes + BIG);
        assert!(during.live >= BIG);
        assert!(during.peak >= BIG);
        drop(std::hint::black_box(block));
        reset_peak();
        let after = snapshot();
        assert!(after.peak < during.peak, "peak must restart from live");
    }

    #[test]
    fn small_allocations_are_folded_by_snapshot_and_by_exact_mode() {
        // 100 × 16 B stays under both thresholds: only the snapshot's
        // own fold (or exact mode) makes the calls visible.
        let before = snapshot().calls;
        let small: Vec<Box<[u8; 16]>> = (0..100).map(|_| Box::new([0u8; 16])).collect();
        assert!(snapshot().calls >= before + 100);
        drop(small);

        exact(true);
        let seen = CALLS.load(Relaxed);
        let one = std::hint::black_box(Box::new(7u64));
        assert!(CALLS.load(Relaxed) > seen, "exact mode folds every call");
        drop(one);
        exact(false);
    }
}
