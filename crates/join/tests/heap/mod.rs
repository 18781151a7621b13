//! A counting global allocator for the heap-peak test binaries. A binary
//! that declares `mod heap;` allocates through it; each such binary runs one
//! `#[test]`, so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAlloc;

impl PeakAlloc {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }
}

// SAFETY: delegates entirely to the system allocator; the counters are
// side-effect-free atomics.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PeakAlloc::grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    // A growing block counts at both sizes until it has moved.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PeakAlloc::grew(new_size);
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// `f`'s result, and the heap high-water mark while it ran above what was
/// live when it started (its result included).
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - before)
}
