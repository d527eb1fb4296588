//! Heap-allocation accounting for the zero-allocation hot-path checks.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation (`alloc`, `alloc_zeroed`, `realloc`). The module is
//! always compiled; the allocator only becomes active in a binary that
//! installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: gcwc_bench::allocs::CountingAlloc = gcwc_bench::allocs::CountingAlloc;
//! ```
//!
//! The allocation gates (`alloc_regression`, `fork_join_alloc`,
//! `serve_alloc`, `serve_miss_alloc`, `wire_alloc`, `ingest_alloc`) and
//! the `exp_runner` binary install it, so `scaling` and `tenant-bench` report allocation counts in
//! every build.
//!
//! Two views of the same events: the process-wide total
//! ([`alloc_count`]) includes every thread, which is what a bench
//! reading a server's worker and reactor threads wants;
//! [`count_allocs`] reads a per-thread counter, so a gate measuring
//! work on its own thread is not inflated by sibling test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A system allocator that counts every allocation.
pub struct CountingAlloc;

fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while the thread's locals are torn down;
    // those last allocations stay in the process-wide totals only.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counters are only bookkeeping, and the
// thread local is const-initialised, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller's `layout` contract passes through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Total allocations performed so far by every thread (0 when
/// [`CountingAlloc`] is not the process's global allocator).
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result together with the number of heap
/// allocations the calling thread performed meanwhile. Allocations on
/// other threads — workers `f` hands work to, or unrelated threads
/// running at the same time — are not counted.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (out, THREAD_ALLOCS.with(Cell::get) - before)
}
