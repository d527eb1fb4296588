//! Pins the two-thread training step's allocations to the fork-join's
//! own.
//!
//! At two kernel threads each six-sample batch of the shared training
//! fixture runs as one two-part `fork_join`, whose second part runs on
//! a scoped thread spawned for it. Eighteen more epochs must then add
//! exactly eighteen times the allocations of one warmed `fork_join`
//! over two empty parts: nothing but the spawn.
//!
//! The spawned part allocates on its own thread, so this test counts
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
        two_empty_parts();
        let per_fork_join = all_threads(&mut two_empty_parts);
        assert!(per_fork_join > 0, "a spawn allocated nothing — counter not active?");

        let short = train_fixture::training_allocs(2, all_threads);
        let long = train_fixture::training_allocs(20, all_threads);
        assert_eq!(
            long - short,
            18 * per_fork_join,
            "20 epochs allocated {long} times, 2 epochs {short}; one fork-join allocates \
             {per_fork_join}"
        );
    });
}
