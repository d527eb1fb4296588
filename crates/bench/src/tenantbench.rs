//! Multi-tenant serving benchmark (`exp_runner tenant-bench`).
//!
//! Drives one serving process hosting two tenants and measures the
//! isolation properties the multi-tenant refactor promises:
//!
//! * **Noisy neighbor**: a victim tenant's p50/p99 and response bits
//!   are measured solo, then again while a quota-capped neighbor
//!   hammers past its burst budget. The victim's responses must stay
//!   bit-identical and its quota/degraded counters must stay zero.
//! * **Delta repair vs full rebuild**: wall time to absorb a localized
//!   [`GraphDelta`] (incremental partition repair + retraining only
//!   the repaired shards) against training a fresh model on the
//!   post-delta graph — the repair must touch strictly fewer than K
//!   shards.
//! * **Cached-path allocations**: steady-state repeat requests against
//!   a tenant's engine must stay heap-allocation-free (`exp_runner`
//!   counts every allocation).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use gcwc::{
    build_samples, shard_seed, GcwcModel, ModelConfig, ShardedModel, TaskKind, TrainSample,
};
use gcwc_graph::{GraphDelta, PartitionSet};
use gcwc_serve::{
    AnyModel, BinClient, EngineConfig, ModelRegistry, QuotaConfig, ServeError, Server,
    ServerConfig, TenantId, TenantRegistry,
};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};

use crate::allocs;

/// Latency summary of one tenant load phase.
#[derive(Clone, Copy, Debug)]
pub struct TenantPhase {
    /// Requests issued.
    pub requests: u64,
    /// Requests per second (wall clock).
    pub requests_per_sec: f64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
}

/// Full tenant-bench result.
#[derive(Clone, Debug)]
pub struct TenantBenchReport {
    /// Victim tenant served alone.
    pub victim_solo: TenantPhase,
    /// Victim tenant served while the neighbor hammers at its quota.
    pub victim_noisy: TenantPhase,
    /// Requests the neighbor's quota rejected during the noisy phase.
    pub noisy_rejected: u64,
    /// Requests the neighbor actually completed (its burst budget).
    pub noisy_served: u64,
    /// Wall seconds to absorb the delta incrementally (partition
    /// repair + retraining only the repaired shards).
    pub delta_repair_secs: f64,
    /// Wall seconds to train a fresh model on the post-delta graph.
    pub full_rebuild_secs: f64,
    /// `full_rebuild_secs / delta_repair_secs`.
    pub repair_speedup: f64,
    /// Shards the delta repaired.
    pub repaired_shards: u64,
    /// Total shards K of the repaired model.
    pub total_shards: u64,
    /// Heap allocations per request on the cached in-process path
    /// (0 unless the counting allocator is installed).
    pub cached_allocs_per_request: u64,
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

fn phase_from(ns: &mut [u64], total_ns: u64) -> TenantPhase {
    let requests = ns.len() as u64;
    ns.sort_unstable();
    TenantPhase {
        requests,
        requests_per_sec: if total_ns == 0 {
            0.0
        } else {
            requests as f64 * 1.0e9 / total_ns as f64
        },
        p50_ns: percentile(ns, 0.50),
        p99_ns: percentile(ns, 0.99),
    }
}

fn model_config() -> ModelConfig {
    ModelConfig::hw_hist().with_epochs(2)
}

fn samples_for(instance: &gcwc_traffic::NetworkInstance) -> Vec<TrainSample> {
    let sim = SimConfig {
        days: 2,
        intervals_per_day: 16,
        records_per_interval: 10.0,
        ..Default::default()
    };
    let data = simulate(instance, HistogramSpec::hist8(), &sim);
    let ds = data.to_dataset(0.5, 5, 11);
    let idx: Vec<usize> = (0..ds.len()).collect();
    build_samples(&ds, &idx, TaskKind::Estimation, 0)
}

fn bits(m: &gcwc_linalg::Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A registry loaded with the trained shards of `sharded`.
fn registry_of(sharded: ShardedModel<GcwcModel>) -> Arc<ModelRegistry> {
    let (partition, shards) = sharded.into_shards();
    let factories = (0..partition.num_partitions())
        .map(|k| {
            let graph = partition.partition(k).graph().clone();
            let f: Box<dyn Fn() -> AnyModel + Send + Sync> =
                Box::new(move || AnyModel::Gcwc(GcwcModel::new(&graph, 8, model_config(), 0)));
            f
        })
        .collect();
    let registry = Arc::new(ModelRegistry::sharded(factories, &partition));
    for (k, shard) in shards.into_iter().enumerate() {
        registry.install_shard(k, AnyModel::Gcwc(shard));
    }
    registry
}

fn trained(
    graph: &gcwc_graph::EdgeGraph,
    samples: &[TrainSample],
    k: usize,
) -> ShardedModel<GcwcModel> {
    let mut sharded = ShardedModel::gcwc(graph, 8, model_config(), 42, k);
    sharded.fit_shards(&samples[..8]);
    sharded
}

/// A link interior to one partition's owned block — the most localized
/// delta possible — falling back to any existing link.
fn pick_link(ps: &PartitionSet, graph: &gcwc_graph::EdgeGraph) -> (usize, usize) {
    for u in 0..graph.num_nodes() {
        for &v in graph.neighbors(u) {
            if u < v && ps.owner_of(u) == ps.owner_of(v) && !ps.is_boundary(u) {
                return (u, v);
            }
        }
    }
    for u in 0..graph.num_nodes() {
        if let Some(&v) = graph.neighbors(u).iter().find(|&&v| v > u) {
            return (u, v);
        }
    }
    panic!("graph has no links");
}

/// Runs `reqs` tenant completions for `tenant`, returning per-request
/// latencies, total wall nanoseconds, and the response bits per pool
/// index.
fn drive(
    client: &mut BinClient,
    tenant: u64,
    pool: &[TrainSample],
    reqs: usize,
    mut before_each: impl FnMut(usize),
) -> (Vec<u64>, u64, Vec<Vec<u64>>) {
    let mut ns = Vec::with_capacity(reqs);
    let mut by_pool: Vec<Vec<u64>> = vec![Vec::new(); pool.len()];
    let t0 = Instant::now();
    for k in 0..reqs {
        before_each(k);
        let s = &pool[k % pool.len()];
        let t = Instant::now();
        let resp = client
            .tcomplete(tenant, &s.input, s.context.time_of_day, s.context.day_of_week)
            .expect("victim completion");
        ns.push(t.elapsed().as_nanos() as u64);
        assert!(!resp.body.degraded, "victim response degraded");
        if by_pool[k % pool.len()].is_empty() {
            by_pool[k % pool.len()] = bits(&resp.body.output);
        } else {
            assert_eq!(
                by_pool[k % pool.len()],
                bits(&resp.body.output),
                "repeat response changed bits"
            );
        }
    }
    (ns, t0.elapsed().as_nanos() as u64, by_pool)
}

/// Runs the multi-tenant benchmark end to end. Panics when an
/// isolation invariant is violated (the CI step relies on this).
pub fn run() -> TenantBenchReport {
    let hw = generators::highway_tollgate(1);
    let samples = samples_for(&hw);
    let pool = &samples[..8.min(samples.len())];

    // Two tenants, each with its own trained 2-shard model and engine.
    // The neighbor's quota is a hard burst budget (no refill), so its
    // rejection count is deterministic.
    let victim = TenantId(1);
    let noisy = TenantId(2);
    const NOISY_BURST: u64 = 8;
    let tenants = Arc::new(TenantRegistry::new());
    let engine_cfg = EngineConfig { workers: 1, ..Default::default() };
    let victim_tenant =
        tenants.register(victim, registry_of(trained(&hw.graph, &samples, 2)), engine_cfg, None);
    let noisy_tenant = tenants.register(
        noisy,
        registry_of(trained(&hw.graph, &samples, 2)),
        engine_cfg,
        Some(QuotaConfig { burst: NOISY_BURST, refill_per_sec: 0 }),
    );

    // Cached-path allocations, measured in-process before the server
    // binds (no reactor thread to muddy the counter): one warm-up
    // request populates every shard cache, then repeats must be free.
    let cached_allocs_per_request = {
        let engine = victim_tenant.engine();
        let mut client = engine.client();
        let s = &pool[0];
        for _ in 0..4 {
            let mut input = client.input_buffer();
            input.copy_from(&s.input);
            let c = client
                .complete(input, s.context.time_of_day, s.context.day_of_week)
                .expect("warm-up");
            client.recycle(c);
        }
        const ITERS: u64 = 64;
        let a0 = allocs::alloc_count();
        for _ in 0..ITERS {
            let mut input = client.input_buffer();
            input.copy_from(&s.input);
            let c = client
                .complete(input, s.context.time_of_day, s.context.day_of_week)
                .expect("cached request");
            assert!(c.cache_hit, "repeat request must hit the cache");
            client.recycle(c);
        }
        (allocs::alloc_count() - a0) / ITERS
    };

    let mut server =
        Server::start_tenants(&tenants, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut victim_conn = BinClient::connect(server.addr()).expect("victim connect");
    let mut noisy_conn = BinClient::connect(server.addr()).expect("noisy connect");

    // Phase 1: the victim alone.
    const REQS: usize = 200;
    let (mut ns, total, baseline) = drive(&mut victim_conn, victim.0, pool, REQS, |_| {});
    let victim_solo = phase_from(&mut ns, total);

    // Phase 2: the victim under a noisy neighbor. Before every victim
    // request the neighbor fires a 4-request burst; after its budget
    // of NOISY_BURST served requests, every one is a quota rejection.
    let mut noisy_served = 0u64;
    let (mut ns, total, under_noise) = drive(&mut victim_conn, victim.0, pool, REQS, |k| {
        for j in 0..4 {
            let s = &pool[(k + j) % pool.len()];
            match noisy_conn.tcomplete(
                noisy.0,
                &s.input,
                s.context.time_of_day,
                s.context.day_of_week,
            ) {
                Ok(_) => noisy_served += 1,
                Err(ServeError::QuotaExceeded) => {}
                Err(other) => panic!("noisy neighbor hit a non-quota error: {other}"),
            }
        }
    });
    let victim_noisy = phase_from(&mut ns, total);

    // Isolation: the victim's bits are unchanged by the neighbor, and
    // its fault counters stayed at zero.
    assert_eq!(baseline, under_noise, "noisy neighbor changed the victim's response bits");
    let vstats = victim_tenant.stats();
    assert_eq!(vstats.quota_rejected, 0, "victim has no quota to reject on");
    assert_eq!(vstats.degraded_responses, 0, "victim must not degrade: {vstats:?}");
    let noisy_rejected = noisy_tenant.stats().quota_rejected;
    assert_eq!(noisy_served, NOISY_BURST, "hard burst budget admits exactly the burst");
    assert_eq!(
        noisy_rejected,
        (REQS as u64) * 4 - NOISY_BURST,
        "every post-burst neighbor request must be a quota rejection"
    );

    server.stop();
    tenants.shutdown();

    // Delta repair vs full rebuild, K = 4 on the synthetic city.
    let city = generators::city_network_sized(2, 64);
    let city_samples = samples_for(&city);
    const K: usize = 4;
    let pre = Arc::new(PartitionSet::build(&city.graph, K));
    let mut repaired_model = ShardedModel::gcwc_on(Arc::clone(&pre), 8, model_config(), 42);
    repaired_model.fit_shards(&city_samples[..8]);

    let link = pick_link(&pre, &city.graph);
    let delta = GraphDelta { added_edges: vec![], removed_edges: vec![link] };
    let t0 = Instant::now();
    let (new_graph, repaired) = repaired_model
        .apply_delta(&city.graph, &delta, |b, p| {
            GcwcModel::new(p.graph(), 8, model_config(), shard_seed(42, b))
        })
        .expect("apply delta");
    repaired_model.fit_shards_subset(&repaired, &city_samples[..8]).expect("repair retrain");
    let delta_repair_secs = t0.elapsed().as_secs_f64();
    assert!(
        repaired.len() < K,
        "a localized delta must repair strictly fewer than all {K} shards, repaired {}",
        repaired.len()
    );

    let owners = repaired_model.partition_set().owners().to_vec();
    let t0 = Instant::now();
    let post = Arc::new(PartitionSet::from_owner_of(&new_graph, owners, K));
    let mut fresh = ShardedModel::gcwc_on(post, 8, model_config(), 42);
    fresh.fit_shards(&city_samples[..8]);
    let full_rebuild_secs = t0.elapsed().as_secs_f64();

    TenantBenchReport {
        victim_solo,
        victim_noisy,
        noisy_rejected,
        noisy_served,
        delta_repair_secs,
        full_rebuild_secs,
        repair_speedup: if delta_repair_secs == 0.0 {
            0.0
        } else {
            full_rebuild_secs / delta_repair_secs
        },
        repaired_shards: repaired.len() as u64,
        total_shards: K as u64,
        cached_allocs_per_request,
    }
}

/// Renders the report as an aligned text table.
pub fn render(r: &TenantBenchReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<16}{:>10}{:>14}{:>14}{:>14}",
        "victim phase", "requests", "req/s", "p50 ns", "p99 ns"
    );
    for (name, p) in [("solo", &r.victim_solo), ("noisy_neighbor", &r.victim_noisy)] {
        let _ = writeln!(
            s,
            "{:<16}{:>10}{:>14.0}{:>14}{:>14}",
            name, p.requests, p.requests_per_sec, p.p50_ns, p.p99_ns
        );
    }
    let _ = writeln!(
        s,
        "noisy neighbor: {} served (burst budget), {} quota-rejected",
        r.noisy_served, r.noisy_rejected
    );
    let _ = writeln!(
        s,
        "delta repair: {:.3}s for {}/{} shards vs {:.3}s full rebuild ({:.1}x)",
        r.delta_repair_secs,
        r.repaired_shards,
        r.total_shards,
        r.full_rebuild_secs,
        r.repair_speedup
    );
    let _ = writeln!(s, "cached path: {} allocs/request", r.cached_allocs_per_request);
    s
}

/// Serialises the report as JSON (hand-rolled; all fields numeric).
pub fn to_json(r: &TenantBenchReport) -> String {
    fn phase(s: &mut String, name: &str, p: &TenantPhase) {
        let _ = write!(
            s,
            "  \"{}\": {{\"requests\": {}, \"requests_per_sec\": {:.1}, \"p50_ns\": {}, \
             \"p99_ns\": {}}}",
            name, p.requests, p.requests_per_sec, p.p50_ns, p.p99_ns
        );
    }
    let mut s = String::from("{\n");
    phase(&mut s, "victim_solo", &r.victim_solo);
    s.push_str(",\n");
    phase(&mut s, "victim_noisy_neighbor", &r.victim_noisy);
    s.push_str(",\n");
    let _ = writeln!(s, "  \"noisy_served\": {},", r.noisy_served);
    let _ = writeln!(s, "  \"noisy_rejected\": {},", r.noisy_rejected);
    let _ = writeln!(s, "  \"delta_repair_secs\": {:.6},", r.delta_repair_secs);
    let _ = writeln!(s, "  \"full_rebuild_secs\": {:.6},", r.full_rebuild_secs);
    let _ = writeln!(s, "  \"repair_speedup\": {:.2},", r.repair_speedup);
    let _ = writeln!(s, "  \"repaired_shards\": {},", r.repaired_shards);
    let _ = writeln!(s, "  \"total_shards\": {},", r.total_shards);
    let _ = writeln!(s, "  \"cached_allocs_per_request\": {}", r.cached_allocs_per_request);
    s.push_str("}\n");
    s
}
