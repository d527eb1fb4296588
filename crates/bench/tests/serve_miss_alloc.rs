//! Pins the zero-allocation steady state of sharded misses on every
//! thread.
//!
//! A `workers: 0` engine serving the CI city at K = 2 drains each batch
//! on the calling thread at two kernel threads, so the batch's two
//! shard forwards split over that thread and an idle pool thread
//! (`fork_join`). The pool thread allocates on its own thread, so this
//! test counts every thread's allocations (`alloc_count`) and must stay
//! the only test in its binary.

mod common;

use gcwc_bench::allocs::{alloc_count, CountingAlloc};
use gcwc_linalg::parallel::with_threads;
use gcwc_serve::EngineConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warm_ci_city_misses_allocate_nothing_on_any_thread() {
    let engine = common::ci_city_engine(EngineConfig {
        workers: 0,
        cache_capacity: 0,
        ..Default::default()
    });
    let mut client = engine.client();
    let requests = common::ci_requests(6);
    with_threads(2, || {
        for (step, (input, tod, dow)) in requests.iter().enumerate() {
            let before = alloc_count();
            let mut buf = client.input_buffer();
            buf.copy_from(input);
            client.send(buf, *tod, *dow).expect("send");
            engine.process_queued();
            let completion = client.recv().expect("recv");
            assert!(!completion.cache_hit, "cache disabled: every request misses");
            client.recycle(completion);
            let allocs = alloc_count() - before;
            // Two warm-up requests spawn the pool's helper and fill both
            // shards' workspaces and the client's spare buffers.
            if step >= 2 {
                assert_eq!(allocs, 0, "warm miss {step} performed {allocs} heap allocations");
            }
        }
    });
    engine.shutdown();
}
