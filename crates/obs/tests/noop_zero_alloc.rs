//! The disabled recorder must be free: no allocation, no recorded state.
//! This lives in its own integration-test binary so the counting global
//! allocator only ever observes this one test.

use asj_obs::{Attrs, Lane, Recorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates entirely to the system allocator; the counter is a
// side-effect-free atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn noop_recorder_allocates_nothing_and_records_nothing() {
    let recorder = Recorder::noop();
    let clone = recorder.clone();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..1000 {
        let d = Duration::from_micros(5);
        recorder.task_span_sim("stage", 0, Some(i), d, d, Attrs::new());
        recorder.event("ev", Lane::Node(0), None, Attrs::new().bytes(64));
        recorder.counter_add("stage", "records", 1);
        recorder.gauge_set("stage", "imbalance", 1.0);
        recorder.histogram_record("stage", "bytes", 42.0);
        let out = clone.phase("phase", || i);
        assert_eq!(out, i);
        recorder.driver_span("plan", d, Attrs::new().cells(4));
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "noop recorder must not allocate on any call path"
    );

    // ...and nothing was recorded anywhere.
    assert!(!recorder.is_enabled());
    assert_eq!(recorder.counter_value("stage", "records"), None);
    assert_eq!(recorder.node_sim_total(0), Duration::ZERO);
    let trace = recorder.snapshot();
    assert!(trace.spans.is_empty());
    assert!(trace.events.is_empty());
    assert!(trace.metrics.is_empty());
}
