//! End-to-end delta-repair bit-equivalence at the serving layer,
//! K ∈ {1, 2, 4}: a tenant registered, served, delta-mutated via its
//! registry's [`ModelRegistry::install_topology`], and re-served must
//! answer bit-for-bit what a **fresh single-tenant process** built
//! directly on the post-delta graph answers — and both must match the
//! fresh model's `predict_global`. The tenant's graph generation is 0
//! before the delta and 1 after, on every tenant-form response.

mod growing_city;

use std::sync::Arc;

use gcwc::{
    build_samples, shard_seed, GcwcModel, ModelConfig, ShardedModel, TaskKind, TrainSample,
};
use gcwc_graph::{GraphDelta, PartitionSet};
use gcwc_linalg::Matrix;
use gcwc_serve::{
    AnyModel, BinClient, Engine, EngineConfig, ModelRegistry, Server, ServerConfig, TenantId,
    TenantRegistry, TopologyUpdate,
};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};

fn model_config() -> ModelConfig {
    ModelConfig::ci_hist().with_epochs(2)
}

fn samples_for(instance: &gcwc_traffic::NetworkInstance) -> Vec<TrainSample> {
    let cfg = SimConfig {
        days: 2,
        intervals_per_day: 8,
        records_per_interval: 10.0,
        ..Default::default()
    };
    let data = simulate(instance, HistogramSpec::hist8(), &cfg);
    let ds = data.to_dataset(0.5, 5, 11);
    let idx: Vec<usize> = (0..ds.len()).collect();
    build_samples(&ds, &idx, TaskKind::Estimation, 0)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
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

/// Trains a sharded model on `partition`; training is deterministic in
/// `(partition, seed, samples)`, so two calls with the same arguments
/// produce bit-identical parameter sets.
fn train(
    partition: Arc<PartitionSet>,
    samples: &[TrainSample],
    seed: u64,
) -> ShardedModel<GcwcModel> {
    let mut model = ShardedModel::gcwc_on(partition, 8, model_config(), seed);
    model.fit_shards(&samples[..6]);
    model
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

#[test]
fn tenant_delta_reserve_matches_fresh_single_tenant_process() {
    let city = generators::city_network_sized(2, 64);
    let samples = samples_for(&city);
    let seed = 42u64;

    for k in [1usize, 2, 4] {
        let pre = Arc::new(PartitionSet::build(&city.graph, k));
        // The served copy and the repair copy are trained identically
        // (GcwcModel is deliberately not Clone), so their parameters
        // are bit-equal by training determinism.
        let served = train(Arc::clone(&pre), &samples, seed);
        let mut repairable = train(Arc::clone(&pre), &samples, seed);

        let tenants = Arc::new(TenantRegistry::new());
        let tid = TenantId(7);
        let tenant = tenants.register(
            tid,
            registry_of(served),
            EngineConfig { workers: 1, ..Default::default() },
            None,
        );
        let mut server =
            Server::start_tenants(&tenants, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = BinClient::connect(server.addr()).unwrap();

        // Phase 1: pre-delta serving at graph generation 0, matching
        // the local model exactly.
        for s in &samples[..3] {
            let r = client
                .tcomplete(tid.0, &s.input, s.context.time_of_day, s.context.day_of_week)
                .unwrap();
            assert_eq!(r.tenant, tid.0, "K={k}");
            assert_eq!(r.graph_generation, 0, "K={k}: no delta applied yet");
            assert!(!r.body.degraded, "K={k}");
            assert_eq!(
                bits(&repairable.predict_global(s)),
                bits(&r.body.output),
                "K={k}: pre-delta serving diverged from predict_global"
            );
        }

        // Apply the delta and retrain only the repaired shards.
        let link = pick_link(&pre, &city.graph);
        let delta = GraphDelta { added_edges: vec![], removed_edges: vec![link] };
        let (new_graph, repaired) = repairable
            .apply_delta(&city.graph, &delta, |b, p| {
                GcwcModel::new(p.graph(), 8, model_config(), shard_seed(seed, b))
            })
            .unwrap();
        assert!(!repaired.is_empty(), "K={k}: the delta must repair at least one shard");
        if k > 1 {
            assert!(
                repaired.len() < k,
                "K={k}: a localized delta must repair strictly fewer than all shards"
            );
        }
        repairable.fit_shards_subset(&repaired, &samples[..6]).unwrap();

        // Install the repaired shards into the live tenant: the swap
        // bumps the graph generation and invalidates exactly the
        // repaired shards' cache entries.
        let owners = repairable.partition_set().owners().to_vec();
        let (post_partition, shards) = repairable.into_shards();
        let views: Vec<_> = post_partition.partitions().iter().map(|p| p.view().clone()).collect();
        let updates: Vec<TopologyUpdate> = shards
            .into_iter()
            .enumerate()
            .filter(|(b, _)| repaired.contains(b))
            .map(|(b, model)| {
                let graph = post_partition.partition(b).graph().clone();
                TopologyUpdate {
                    shard: b,
                    model: AnyModel::Gcwc(model),
                    factory: Box::new(move || {
                        AnyModel::Gcwc(GcwcModel::new(&graph, 8, model_config(), 0))
                    }),
                }
            })
            .collect();
        let registry = tenant.engine().registry();
        registry.install_topology(updates, views);
        assert_eq!(
            registry.snapshot().graph_generation,
            1,
            "K={k}: first delta bumps the graph generation to 1"
        );

        // Phase 2: post-delta serving through the same live tenant.
        let p2: Vec<Vec<u64>> = samples[..3]
            .iter()
            .map(|s| {
                let r = client
                    .tcomplete(tid.0, &s.input, s.context.time_of_day, s.context.day_of_week)
                    .unwrap();
                assert_eq!(
                    r.graph_generation, 1,
                    "K={k}: responses carry the bumped graph generation"
                );
                assert!(!r.body.degraded, "K={k}");
                bits(&r.body.output)
            })
            .collect();
        server.stop();
        tenants.shutdown();

        // Phase 3: a fresh single-tenant process built directly on the
        // post-delta graph (same ownership, same seed), serving its one
        // engine as the default tenant.
        let post = Arc::new(PartitionSet::from_owner_of(&new_graph, owners, k));
        let fresh = train(post, &samples, seed);
        let expected: Vec<Vec<u64>> =
            samples[..3].iter().map(|s| bits(&fresh.predict_global(s))).collect();

        let engine = Arc::new(Engine::new(
            registry_of(fresh),
            EngineConfig { workers: 1, ..Default::default() },
        ));
        let mut fresh_server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let mut single = BinClient::connect(fresh_server.addr()).unwrap();
        let p3: Vec<Vec<u64>> = samples[..3]
            .iter()
            .map(|s| {
                let r = single
                    .tcomplete(
                        TenantId::DEFAULT.0,
                        &s.input,
                        s.context.time_of_day,
                        s.context.day_of_week,
                    )
                    .unwrap();
                assert!(!r.body.degraded, "K={k}");
                bits(&r.body.output)
            })
            .collect();
        fresh_server.stop();
        engine.shutdown();

        assert_eq!(p2, expected, "K={k}: tenant post-delta serving != fresh predict_global");
        assert_eq!(p2, p3, "K={k}: tenant post-delta serving != fresh single-tenant process");
    }
}

/// A client made before a topology change that appends an edge still
/// holds output buffers of the old row count. The engine must answer a
/// correct 65-row request with a 65-row completion instead of
/// scattering the grown shard set into the 64-row buffer, which panicked
/// the worker and answered `ShardRestarting` on every try.
#[test]
fn a_client_made_before_an_edge_is_appended_gets_the_grown_completion() {
    let city = growing_city::GrowingCity::new();
    let registry = city.registry();
    let engine =
        Engine::new(Arc::clone(&registry), EngineConfig { workers: 1, ..Default::default() });
    let mut stale = engine.client();
    let before = stale.complete(growing_city::input(64), 0, 0).unwrap();
    assert_eq!((before.output.rows(), before.graph_generation), (64, 0));
    stale.recycle(before);

    let (updates, views) = city.grow();
    registry.install_topology(updates, views);
    let mut fresh = engine.client();
    for attempt in 0..2 {
        let got = stale.complete(growing_city::input(65), 0, 0).unwrap();
        let want = fresh.complete(growing_city::input(65), 0, 0).unwrap();
        assert_eq!((got.output.rows(), got.graph_generation), (65, 1), "attempt {attempt}");
        assert!(!got.degraded, "attempt {attempt}");
        assert_eq!(bits(&got.output), bits(&want.output), "attempt {attempt}");
        stale.recycle(got);
        fresh.recycle(want);
    }
    assert_eq!(engine.stats().worker_restarts, 0);
    engine.shutdown();
}
