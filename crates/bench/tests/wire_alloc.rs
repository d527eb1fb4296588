//! Pins the zero-allocation steady state of the wire path: warm
//! tenant-form round trips through `Server::start` allocate nothing on
//! the server's threads (the reactor and the engine worker), on a
//! cache hit and on a miss.
//!
//! The server's allocations are the process-wide count's delta minus
//! the client thread's own, so this binary holds a single test: no
//! sibling test thread may allocate while a round trip is measured.

mod common;

use gcwc_bench::allocs::{alloc_count, count_allocs, CountingAlloc};
use gcwc_linalg::Matrix;
use gcwc_serve::{BinClient, EngineConfig, Server, TenantId};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Round trips of each kind measured after warm-up.
const ROUNDS: usize = 8;
/// Warm-up misses: more than the cache holds, so measured misses evict.
const WARM_MISSES: usize = 6;

/// One round trip; returns the allocations made meanwhile on every
/// thread but the client's.
fn server_allocs(client: &mut BinClient, req: &(Matrix, usize, usize), want_hit: bool) -> u64 {
    let (input, tod, dow) = req;
    let before = alloc_count();
    let (answer, own) =
        count_allocs(|| client.tcomplete(TenantId::DEFAULT.0, input, *tod, *dow).expect("answer"));
    let total = alloc_count() - before;
    assert_eq!(answer.body.cache_hit, want_hit, "the round trip must be a {want_hit} hit");
    total - own
}

#[test]
fn warm_wire_round_trips_allocate_nothing_on_the_server() {
    // Two kernel threads for every thread without an override, the
    // engine worker included, so a miss whose forward did not pin
    // itself to one thread would split (and allocate) on the worker.
    gcwc_linalg::parallel::set_global_threads(2);
    let engine = common::ci_city_engine(EngineConfig { cache_capacity: 4, ..Default::default() });
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("start");
    let mut client = BinClient::connect(server.addr()).expect("connect");
    let reqs = common::ci_requests(1 + WARM_MISSES + ROUNDS);
    let (hot, fresh) = reqs.split_first().expect("requests");

    // Warm-up: the connection's buffers, the tenant's matrix pools, the
    // completion queues, the worker's workspace, and a full cache.
    server_allocs(&mut client, hot, false);
    for req in &fresh[..WARM_MISSES] {
        server_allocs(&mut client, hot, true);
        server_allocs(&mut client, req, false);
    }

    let (mut hits, mut misses) = (0, 0);
    for req in &fresh[WARM_MISSES..] {
        hits += server_allocs(&mut client, hot, true);
        misses += server_allocs(&mut client, req, false);
    }
    assert_eq!(hits, 0, "{ROUNDS} warm hits allocated {hits} times on the server");
    assert_eq!(misses, 0, "{ROUNDS} warm misses allocated {misses} times on the server");

    client.quit().expect("quit");
    server.stop();
    engine.shutdown();
}
