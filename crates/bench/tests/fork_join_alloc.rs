//! Pins the two-thread training step at zero allocations.
//!
//! At two kernel threads each six-sample batch of the shared training
//! fixture runs as one two-part `fork_join`, whose second part an idle
//! pool thread takes. Once the pool's helper exists a `fork_join`
//! allocates nothing, so eighteen more epochs must add no allocation.
//!
//! A pool thread allocates on its own thread, so this test counts
//! every thread's allocations (`alloc_count`) and must stay the only
//! test in its binary. It sets its thread count with `with_threads`,
//! never with the process-global `set_global_threads`.

mod train_fixture;

use gcwc_bench::allocs::{alloc_count, CountingAlloc};
use gcwc_linalg::parallel::{fork_join, with_threads};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of every thread while `f` runs.
fn all_threads(f: &mut dyn FnMut()) -> u64 {
    let before = alloc_count();
    f();
    alloc_count() - before
}

#[test]
fn two_thread_training_allocates_only_its_fork_joins() {
    with_threads(2, || {
        let mut two_empty_parts = || fork_join([(), ()], |()| {});
        // The first two-part call spawns the pool's helper.
        two_empty_parts();
        let short = train_fixture::training_allocs(2, all_threads);
        assert!(short > 0, "a 2-epoch training allocated nothing — counter not active?");
        let per_fork_join = all_threads(&mut two_empty_parts);
        assert_eq!(per_fork_join, 0, "a warm two-part fork_join allocated {per_fork_join} times");
        let long = train_fixture::training_allocs(20, all_threads);
        assert_eq!(long, short, "20 epochs allocated {long} times, 2 epochs {short}");
    });
}
