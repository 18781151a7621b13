//! Payload bytes live once: replicating a fat tuple must not touch the
//! allocator, and generating `n` of them allocates per arena block, not per
//! record. This lives in its own integration-test binary so the counting
//! global allocator only ever observes this one test; it counts the
//! measuring thread's own calls, so the harness's threads cannot land
//! inside a measured window.

use asj_geom::Point;
use asj_join::{to_records, NoPayload, Record};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's (allocations, frees). A `const` initialiser and a
    /// type without drop glue: reading it never allocates.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(allocs: u64, frees: u64) {
        // `try_with`: a thread being torn down still allocates.
        let _ = COUNTS.try_with(|c| {
            let (a, f) = c.get();
            c.set((a + allocs, f + frees));
        });
    }
}

// SAFETY: delegates entirely to the system allocator; the counters are
// side-effect-free thread-local cells.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::count(1, 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CountingAlloc::count(1, 0);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc::count(0, 1);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The calling thread's (allocations, frees) so far.
fn counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

#[test]
fn replicas_share_payload_bytes_and_generation_allocates_per_block() {
    assert!(std::mem::size_of::<Record>() <= 40);
    assert!(std::mem::size_of::<(u64, Record)>() <= 48);
    // A payload-free record (a CSV row) is its id and point, nothing more.
    assert_eq!(std::mem::size_of::<Record<NoPayload>>(), 24);
    assert_eq!(std::mem::size_of::<(u64, Record<NoPayload>)>(), 32);

    const N: usize = 10_000;
    let points: Vec<Point> = (0..N).map(|i| Point::new(i as f64, 0.5)).collect();

    let (allocs, _) = counts();
    let records = to_records(&points, 64);
    let generated = counts().0 - allocs;
    // One byte buffer and one refcount header per 1024-record block, plus
    // the record vector itself.
    let blocks = N.div_ceil(1024) as u64;
    assert!(
        generated <= 2 * blocks + 1,
        "to_records({N}, 64) allocated {generated} times for {blocks} blocks"
    );

    // What a shuffle's expansion does per replica, and the driver per shuffled
    // partition: clone into a keyed row, drop it later.
    let mut replicas: Vec<(u64, Record)> = Vec::with_capacity(N);
    let before = counts();
    replicas.extend(records.iter().map(|r| (r.id % 7, r.clone())));
    assert!(replicas.iter().zip(&records).all(|((_, a), b)| a == b));
    replicas.clear();
    let after = counts();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "cloning and dropping {N} payload-carrying records must not allocate or free"
    );

    // The originals still read their bytes; dropping the last window of a
    // block is what frees its arena.
    assert!(records.iter().all(|r| r.payload.len() == 64));
    let before = counts();
    drop(records);
    assert_eq!(counts().1 - before.1, 2 * blocks + 1);
}
