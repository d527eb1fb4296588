//! Pins the zero-allocation steady state of the training hot path.
//!
//! Installs the counting global allocator and drives `run_training`
//! itself through the shared training fixture. Once the first epochs
//! have warmed every workspace, further epochs must perform **zero**
//! heap allocations at one thread. The dense and CSR kernels are pinned
//! on their own.

mod train_fixture;

use gcwc_bench::allocs::{alloc_count, count_allocs, CountingAlloc};
use gcwc_linalg::rng::seeded;
use rand::Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn longer_trainings_do_not_allocate_more_per_epoch() {
    // End-to-end pin through `run_training` itself: once the first
    // epochs have warmed every workspace, additional epochs must add
    // nothing at all (`epoch_losses` is reserved for the whole run).
    gcwc_linalg::parallel::set_global_threads(1);
    let run = |epochs| train_fixture::training_allocs(epochs, |train| count_allocs(train).1);
    let short = run(2);
    let long = run(20);
    assert!(short > 0, "a 2-epoch training allocated nothing — counter not active?");
    assert_eq!(long, short, "20 epochs allocated {long} times, 2 epochs {short}");
}

#[test]
fn dense_and_csr_kernels_are_allocation_free_on_both_sides_of_the_threshold() {
    // Every `_into` fast path must stay heap-free whichever loop its
    // size picks — the tiled loops block entirely in registers and the
    // caller's buffers. The dense products run once below
    // `TILED_MIN_WORK` (naive) and once above it (tiled).
    use gcwc_linalg::tile::TILED_MIN_WORK;
    use gcwc_linalg::{CsrMatrix, Matrix};
    gcwc_linalg::parallel::set_global_threads(1);
    let mut rng = seeded(5);
    for n in [20, 301] {
        let a = Matrix::from_fn(n, n, |_, _| rng.random::<f64>() - 0.5);
        let b = Matrix::from_fn(n, n, |_, _| rng.random::<f64>() - 0.5);
        let mut out = Matrix::zeros(n, n);
        assert_eq!(n * n * n >= TILED_MIN_WORK, n == 301);
        let (_, allocs) = count_allocs(|| {
            a.matmul_into(&b, &mut out);
            a.matmul_nt_into(&b, &mut out);
            a.matmul_tn_into(&b, &mut out);
        });
        assert_eq!(allocs, 0, "dense kernel allocations at n = {n}");
    }
    let n = 301;
    let x = Matrix::from_fn(n, 8, |_, _| rng.random::<f64>() - 0.5);
    let prev = Matrix::from_fn(n, 8, |_, _| 0.25);
    let lap = CsrMatrix::from_triplets(
        n,
        n,
        (0..n).flat_map(|i| [(i, (i + 1) % n, 1.0), (i, (i + 5) % n, 0.5), (i, i, -1.5)]),
    );
    let mut out_x = Matrix::zeros(n, 8);
    let mut acc = Matrix::zeros(n, 8);
    let (_, allocs) = count_allocs(|| {
        lap.matmul_dense_into(&x, &mut out_x);
        lap.cheb_step_into(&x, &prev, &mut out_x);
        lap.axpby(2.0, &x, -1.0, &mut acc);
        lap.clenshaw_step(&prev, &x, 0.5, &mut acc);
    });
    assert_eq!(allocs, 0, "CSR kernel allocations");
}

#[test]
fn count_allocs_sees_only_the_calling_threads_allocations() {
    // A sibling thread allocates 1000 boxes while the caller, inside
    // the measured window, allocates exactly 11 (one `Vec` and ten
    // boxes). The process-wide total sees both; the gate's count sees
    // only the caller's own.
    use std::hint::black_box;
    use std::sync::{Arc, Barrier};
    const SIBLING: u64 = 1000;
    let barrier = Arc::new(Barrier::new(2));
    let sibling = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..SIBLING {
                drop(black_box(Box::new(i)));
            }
            barrier.wait();
        })
    };
    let before = alloc_count();
    let (_, own) = count_allocs(|| {
        barrier.wait();
        let mut kept = Vec::with_capacity(10);
        for i in 0..10u64 {
            kept.push(black_box(Box::new(i)));
        }
        barrier.wait();
        drop(kept);
    });
    let total = alloc_count() - before;
    sibling.join().unwrap();
    assert_eq!(own, 11, "the caller's own allocations");
    assert!(total >= SIBLING + own, "the sibling's allocations fell outside the window: {total}");
}
