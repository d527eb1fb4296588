//! Serving load generator (`exp_runner serve-bench`).
//!
//! Trains a tiny A-GCWC, saves it through the versioned checkpoint
//! format, loads it into a `gcwc-serve` engine, and drives the full
//! serving stack: in-process (the zero-allocation path), over TCP with
//! the binary wire protocol (sequential and pipelined), and a
//! connection-scaling sweep that measures throughput while thousands of
//! idle connections are parked on the reactor. Reports requests/s and
//! p50/p99 latency per phase plus cache statistics and
//! allocations/request, and asserts the invariants the CI step depends
//! on: non-zero cache hits, responses bit-identical to the in-process
//! path, and a (generous) p99 latency bound.
//!
//! `allocs_per_request` is live only when the binary installs
//! [`crate::allocs::CountingAlloc`] (the `count-allocs` feature);
//! otherwise it reads 0.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use gcwc::{build_samples, AGcwcModel, CompletionModel, ModelConfig, TaskKind, TrainSample};
use gcwc_serve::{AnyModel, BinClient, Engine, EngineConfig, Server, TenantId};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};

use crate::allocs;

/// Latency summary of one load phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStats {
    /// Requests issued.
    pub requests: u64,
    /// Requests per second (wall clock).
    pub requests_per_sec: f64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// Heap allocations per request (0 unless the counting allocator
    /// is installed).
    pub allocs_per_request: u64,
}

/// One point of the connection-scaling sweep: throughput on a single
/// active connection while `idle_conns` others sit parked on the
/// reactor.
#[derive(Clone, Copy, Debug)]
pub struct ConnScalePoint {
    /// Idle connections held open during the measurement.
    pub idle_conns: usize,
    /// In-flight requests kept pipelined on the active connection.
    pub pipeline_depth: usize,
    /// Requests issued.
    pub requests: u64,
    /// Requests per second (wall clock).
    pub requests_per_sec: f64,
    /// 99th-percentile per-response latency in nanoseconds (batch
    /// completion time for pipelined depths).
    pub p99_ns: u64,
    /// OS threads in the process during the measurement — the point
    /// of the sweep: it must not grow with connections.
    pub threads: u64,
}

/// Full serve-bench result.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    /// In-process client phase (steady state, cache disabled by
    /// distinct inputs).
    pub in_process: PhaseStats,
    /// Repeat-context phase (every request a cache hit).
    pub cached: PhaseStats,
    /// TCP phase, binary protocol, one request in flight.
    pub tcp_binary: PhaseStats,
    /// TCP phase, binary protocol, 16 requests pipelined.
    pub tcp_pipelined: PhaseStats,
    /// Throughput vs. parked idle connections.
    pub conn_scaling: Vec<ConnScalePoint>,
    /// Engine cache hits observed.
    pub cache_hits: u64,
    /// Engine cache misses observed.
    pub cache_misses: u64,
    /// Forward passes executed.
    pub batches: u64,
    /// Number of shards K in the served shard set.
    pub shards: u64,
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

fn phase_from(ns: &mut [u64], total_ns: u64, allocs_per_request: u64) -> PhaseStats {
    let requests = ns.len() as u64;
    ns.sort_unstable();
    PhaseStats {
        requests,
        requests_per_sec: if total_ns == 0 {
            0.0
        } else {
            requests as f64 * 1.0e9 / total_ns as f64
        },
        p50_ns: percentile(ns, 0.50),
        p99_ns: percentile(ns, 0.99),
        allocs_per_request,
    }
}

/// Like [`phase_from`] for pipelined phases, where `ns` holds one
/// per-request sample per *window* but throughput must count every
/// request moved — not every window.
fn pipelined_phase(ns: &mut [u64], total_ns: u64, requests: u64) -> PhaseStats {
    let mut p = phase_from(ns, total_ns, 0);
    p.requests = requests;
    p.requests_per_sec =
        if total_ns == 0 { 0.0 } else { requests as f64 * 1.0e9 / total_ns as f64 };
    p
}

/// OS threads in this process (`/proc/self/status`), 0 off-Linux.
fn os_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn tiny_trained_model() -> (gcwc_traffic::NetworkInstance, Vec<TrainSample>, AGcwcModel) {
    let hw = generators::highway_tollgate(1);
    let sim = SimConfig {
        days: 2,
        intervals_per_day: 16,
        records_per_interval: 10.0,
        ..Default::default()
    };
    let data = simulate(&hw, HistogramSpec::hist8(), &sim);
    let ds = data.to_dataset(0.5, 5, 11);
    let idx: Vec<usize> = (0..ds.len()).collect();
    let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
    let mut model = AGcwcModel::new(&hw.graph, 8, 16, ModelConfig::hw_hist().with_epochs(2), 42);
    model.fit(&samples[..8]);
    (hw, samples, model)
}

/// The tenant [`Server::start`] serves its engine as.
const TENANT: u64 = TenantId::DEFAULT.0;

/// Drives `reqs` pipelined completions at the given depth over one
/// binary connection; returns per-window latencies and total time.
fn pipelined_run(
    client: &mut BinClient,
    pool: &[TrainSample],
    depth: usize,
    reqs: usize,
) -> (Vec<u64>, u64) {
    let mut ns = Vec::with_capacity(reqs / depth + 1);
    let t0 = Instant::now();
    let mut issued = 0usize;
    while issued < reqs {
        let window = depth.min(reqs - issued);
        let t = Instant::now();
        for k in 0..window {
            let s = &pool[(issued + k) % pool.len()];
            client
                .send_tcomplete(TENANT, &s.input, s.context.time_of_day, s.context.day_of_week)
                .expect("pipelined send");
        }
        for _ in 0..window {
            let (_, result) = client.recv_response().expect("pipelined recv");
            result.expect("pipelined completion");
        }
        // One latency sample per window keeps p99 comparable across
        // depths (it is the time to move `window` responses).
        ns.push(t.elapsed().as_nanos() as u64 / window as u64);
        issued += window;
    }
    (ns, t0.elapsed().as_nanos() as u64)
}

/// Runs the serving benchmark end to end. Panics when a serving
/// invariant is violated (the CI step relies on this).
pub fn run() -> ServeBenchReport {
    // Train, checkpoint (v1 header), and load into a warm registry.
    let (hw, samples, model) = tiny_trained_model();
    let dir = std::env::temp_dir().join("gcwc_serve_bench");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let ckpt = dir.join("agcwc.ckpt");
    model.save(&ckpt).expect("save checkpoint");

    let hw = Arc::new(hw);
    let factory_hw = Arc::clone(&hw);
    let registry = Arc::new(gcwc_serve::ModelRegistry::new(Box::new(move || {
        AnyModel::AGcwc(AGcwcModel::new(
            &factory_hw.graph,
            8,
            16,
            ModelConfig::hw_hist().with_epochs(2),
            0,
        ))
    })));
    registry.load(&ckpt).expect("load checkpoint");

    let engine = Arc::new(Engine::new(registry, EngineConfig::default()));
    let mut client = engine.client();
    let pool = &samples[..8.min(samples.len())];

    // Warm-up: fill the worker pool and the client's spare buffers.
    for (k, s) in pool.iter().cycle().take(32).enumerate() {
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        let completion = client
            .complete(input, s.context.time_of_day, (s.context.day_of_week + k) % 7)
            .expect("warm-up request");
        client.recycle(completion);
    }

    // Phase 1: in-process steady state over distinct contexts (mostly
    // cache misses — each (input, time, day) combination repeats only
    // after the warm-up already inserted it, so expired entries rotate).
    let iters = 200usize;
    let mut ns = Vec::with_capacity(iters);
    let a0 = allocs::alloc_count();
    let t0 = Instant::now();
    for k in 0..iters {
        let s = &pool[k % pool.len()];
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        let t = Instant::now();
        let completion = client
            .complete(input, s.context.time_of_day, s.context.day_of_week)
            .expect("bench request");
        ns.push(t.elapsed().as_nanos() as u64);
        client.recycle(completion);
    }
    let total = t0.elapsed().as_nanos() as u64;
    let allocs_per_request = (allocs::alloc_count() - a0) / iters as u64;
    let in_process = phase_from(&mut ns, total, allocs_per_request);

    // Phase 2: repeat one request — every response must be a cache hit
    // with identical bits.
    let s = &pool[0];
    let mut reference: Option<Vec<u64>> = None;
    let mut ns = Vec::with_capacity(64);
    let a0 = allocs::alloc_count();
    let t0 = Instant::now();
    for _ in 0..64 {
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        let t = Instant::now();
        let completion = client
            .complete(input, s.context.time_of_day, s.context.day_of_week)
            .expect("cached request");
        ns.push(t.elapsed().as_nanos() as u64);
        match &reference {
            None => {
                reference =
                    Some(completion.output.as_slice().iter().map(|v| v.to_bits()).collect());
            }
            Some(r) => {
                let same = completion
                    .output
                    .as_slice()
                    .iter()
                    .zip(r.iter())
                    .all(|(v, &b)| v.to_bits() == b);
                assert!(same, "cached response must be bit-identical");
            }
        }
        client.recycle(completion);
    }
    let total = t0.elapsed().as_nanos() as u64;
    let cached_allocs = (allocs::alloc_count() - a0) / 64;
    let cached = phase_from(&mut ns, total, cached_allocs);

    let stats = engine.stats();
    assert!(stats.cache_hits > 0, "serving must produce cache hits: {stats:?}");

    // One server carries every TCP phase.
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind server");

    // Phase 3: the binary protocol, one request in flight — and the
    // responses must carry the exact bits the in-process path served.
    let mut bin = BinClient::connect(server.addr()).expect("connect binary");
    assert!(bin.ping().expect("ping"), "server must answer binary ping");
    let mut ns = Vec::with_capacity(100);
    let t0 = Instant::now();
    for k in 0..100usize {
        let s = &pool[k % pool.len()];
        let t = Instant::now();
        let resp = bin
            .tcomplete(TENANT, &s.input, s.context.time_of_day, s.context.day_of_week)
            .expect("binary request");
        ns.push(t.elapsed().as_nanos() as u64);
        if k % pool.len() == 0 {
            let same = resp
                .body
                .output
                .as_slice()
                .iter()
                .zip(reference.as_ref().expect("phase 2 set it").iter())
                .all(|(v, &b)| v.to_bits() == b);
            assert!(same, "binary response must be bit-identical to in-process");
        }
    }
    let total = t0.elapsed().as_nanos() as u64;
    let tcp_binary = phase_from(&mut ns, total, 0);

    // Phase 4: the binary protocol with 16 requests pipelined on one
    // connection.
    let (mut ns, total) = pipelined_run(&mut bin, pool, 16, 512);
    let tcp_pipelined = pipelined_phase(&mut ns, total, 512);

    // Phase 5: connection scaling — park idle binary connections on
    // the reactor, then measure one active connection at pipeline
    // depths 1 and 16. Throughput must not collapse and the process
    // thread count must not grow with connections.
    let fd_budget = gcwc_serve::sys::raise_nofile(25_000);
    let mut conn_scaling = Vec::new();
    let mut idle: Vec<BinClient> = Vec::new();
    for &target in &[1usize, 64, 1_000, 10_000] {
        // Leave headroom for the server side of each idle socket plus
        // the active client and incidental fds.
        let reachable = target.min((fd_budget.saturating_sub(200) / 2) as usize);
        while idle.len() < reachable {
            idle.push(BinClient::connect(server.addr()).expect("idle connect"));
        }
        // One ping round-trip proves the newest connection is
        // registered before measuring.
        if let Some(last) = idle.last_mut() {
            assert!(last.ping().expect("idle ping"));
        }
        for depth in [1usize, 16] {
            let reqs = if depth == 1 { 100 } else { 320 };
            let (mut ns, total) = pipelined_run(&mut bin, pool, depth, reqs);
            let p = pipelined_phase(&mut ns, total, reqs as u64);
            conn_scaling.push(ConnScalePoint {
                idle_conns: idle.len(),
                pipeline_depth: depth,
                requests: reqs as u64,
                requests_per_sec: p.requests_per_sec,
                p99_ns: p.p99_ns,
                threads: os_threads(),
            });
        }
        if reachable < target {
            break; // fd budget exhausted; larger points unreachable
        }
    }
    drop(idle);
    bin.quit().expect("quit binary");
    server.stop();
    engine.shutdown();

    // Generous latency bound: the tiny model completes in well under a
    // millisecond per request on any machine; 500 ms catches only a
    // serving-stack pathology (deadlock, missed wake-up, busy loop).
    const P99_BOUND_NS: u64 = 500_000_000;
    assert!(in_process.p99_ns < P99_BOUND_NS, "in-process p99 too high: {in_process:?}");
    assert!(tcp_binary.p99_ns < P99_BOUND_NS, "binary p99 too high: {tcp_binary:?}");

    let final_stats = engine.stats();
    ServeBenchReport {
        in_process,
        cached,
        tcp_binary,
        tcp_pipelined,
        conn_scaling,
        cache_hits: final_stats.cache_hits,
        cache_misses: final_stats.cache_misses,
        batches: final_stats.batches,
        shards: final_stats.shards,
    }
}

/// Renders the report as an aligned text table.
pub fn render(r: &ServeBenchReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<14}{:>10}{:>14}{:>14}{:>14}{:>16}",
        "phase", "requests", "req/s", "p50 ns", "p99 ns", "allocs/request"
    );
    for (name, p) in [
        ("in_process", &r.in_process),
        ("cached", &r.cached),
        ("tcp_binary", &r.tcp_binary),
        ("tcp_pipe16", &r.tcp_pipelined),
    ] {
        let _ = writeln!(
            s,
            "{:<14}{:>10}{:>14.0}{:>14}{:>14}{:>16}",
            name, p.requests, p.requests_per_sec, p.p50_ns, p.p99_ns, p.allocs_per_request
        );
    }
    let _ = writeln!(
        s,
        "{:<14}{:>8}{:>10}{:>14}{:>14}{:>10}",
        "conn scaling", "idle", "depth", "req/s", "p99 ns", "threads"
    );
    for p in &r.conn_scaling {
        let _ = writeln!(
            s,
            "{:<14}{:>8}{:>10}{:>14.0}{:>14}{:>10}",
            "", p.idle_conns, p.pipeline_depth, p.requests_per_sec, p.p99_ns, p.threads
        );
    }
    let _ = writeln!(
        s,
        "cache: {} hits, {} misses, {} batches ({} shard{})",
        r.cache_hits,
        r.cache_misses,
        r.batches,
        r.shards,
        if r.shards == 1 { "" } else { "s" }
    );
    s
}

/// Serialises the report as JSON (hand-rolled; all fields numeric).
pub fn to_json(r: &ServeBenchReport) -> String {
    fn phase(s: &mut String, name: &str, p: &PhaseStats) {
        let _ = write!(
            s,
            "  \"{}\": {{\"requests\": {}, \"requests_per_sec\": {:.1}, \"p50_ns\": {}, \
             \"p99_ns\": {}, \"allocs_per_request\": {}}}",
            name, p.requests, p.requests_per_sec, p.p50_ns, p.p99_ns, p.allocs_per_request
        );
    }
    let mut s = String::from("{\n");
    phase(&mut s, "in_process", &r.in_process);
    s.push_str(",\n");
    phase(&mut s, "cached", &r.cached);
    s.push_str(",\n");
    phase(&mut s, "tcp_binary", &r.tcp_binary);
    s.push_str(",\n");
    phase(&mut s, "tcp_pipelined", &r.tcp_pipelined);
    s.push_str(",\n");
    s.push_str("  \"connection_scaling\": [\n");
    for (i, p) in r.conn_scaling.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"idle_conns\": {}, \"pipeline_depth\": {}, \"requests\": {}, \
             \"requests_per_sec\": {:.1}, \"p99_ns\": {}, \"threads\": {}}}",
            p.idle_conns, p.pipeline_depth, p.requests, p.requests_per_sec, p.p99_ns, p.threads
        );
        s.push_str(if i + 1 < r.conn_scaling.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"batches\": {}}},",
        r.cache_hits, r.cache_misses, r.batches
    );
    let _ = writeln!(s, "  \"shards\": {}", r.shards);
    s.push_str("}\n");
    s
}
