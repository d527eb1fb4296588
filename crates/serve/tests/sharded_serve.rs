//! Serving a sharded model set: the engine's per-shard scatter-gather
//! must reproduce `ShardedModel::predict_global` bit for bit, and
//! hot-swapping one shard must invalidate exactly that shard's cache
//! entries — other shards keep serving their cached rows unchanged.

use gcwc::{build_samples, GcwcModel, ModelConfig, ShardedModel, TaskKind, TrainSample};
use gcwc_graph::PartitionSet;
use gcwc_linalg::Matrix;
use gcwc_serve::{AnyModel, Engine, EngineConfig, ModelRegistry};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};
use std::sync::Arc;

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

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A K-shard registry loaded with the trained shards of `sharded`,
/// built with `cfg()`.
fn sharded_registry(
    sharded: ShardedModel<GcwcModel>,
    cfg: fn() -> ModelConfig,
) -> Arc<ModelRegistry> {
    let (partition, shards) = sharded.into_shards();
    let factories = (0..partition.num_partitions())
        .map(|k| {
            let graph = partition.partition(k).graph().clone();
            let f: Box<dyn Fn() -> AnyModel + Send + Sync> =
                Box::new(move || AnyModel::Gcwc(GcwcModel::new(&graph, 8, cfg(), 0)));
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
fn k2_scatter_gather_matches_predict_global() {
    let hw = generators::highway_tollgate(1);
    let samples = samples_for(&hw);
    let mut sharded = ShardedModel::gcwc(&hw.graph, 8, model_config(), 42, 2);
    sharded.fit_shards(&samples[..8]);

    // Reference completions straight from the trained sharded model.
    let expected: Vec<Matrix> = samples[..4].iter().map(|s| sharded.predict_global(s)).collect();

    let registry = sharded_registry(sharded, model_config);
    let engine =
        Engine::new(registry, EngineConfig { workers: 0, cache_capacity: 0, ..Default::default() });
    let mut client = engine.client();
    for (s, want) in samples[..4].iter().zip(&expected) {
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
        engine.process_queued();
        let completion = client.recv().unwrap();
        assert_eq!(completion.shards, 2);
        assert_eq!(bits(want), bits(&completion.output));
        client.recycle(completion);
    }
    engine.shutdown();
}

#[test]
fn k4_scatter_gather_matches_predict_global_with_more_shards_than_helpers() {
    // Two kernel threads for the engine's worker (it reads the global
    // count): each batch's four shard forwards split over the worker and
    // the one pool helper a call may take, so the worker also runs the
    // shards no helper took. The CI city's K = 4 shards hold 52, 51, 57
    // and 69 local rows. The guard re-enables the default count when
    // the test ends, failed or not, for the tests beside it.
    struct DefaultThreads;
    impl Drop for DefaultThreads {
        fn drop(&mut self) {
            gcwc_linalg::parallel::set_global_threads(0);
        }
    }
    let _default = DefaultThreads;
    gcwc_linalg::parallel::set_global_threads(2);
    let city = generators::city_network(42);
    let samples = samples_for(&city);
    let cfg = || ModelConfig::ci_hist().with_epochs(2);
    let mut sharded = ShardedModel::gcwc(&city.graph, 8, cfg(), 42, 4);
    sharded.fit_shards(&samples[..8]);
    let expected: Vec<Matrix> = samples[..4].iter().map(|s| sharded.predict_global(s)).collect();

    let registry = sharded_registry(sharded, cfg);
    let engine =
        Engine::new(registry, EngineConfig { workers: 1, cache_capacity: 0, ..Default::default() });
    let mut client = engine.client();
    for (s, want) in samples[..4].iter().zip(&expected) {
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        let completion = client.complete(input, s.context.time_of_day, s.context.day_of_week);
        let completion = completion.unwrap();
        assert_eq!(completion.shards, 4);
        assert!(!completion.degraded);
        assert_eq!(bits(want), bits(&completion.output));
        client.recycle(completion);
    }
    engine.shutdown();
}

#[test]
fn hot_swapping_one_shard_keeps_other_shards_cached_rows() {
    let hw = generators::highway_tollgate(1);
    let samples = samples_for(&hw);
    let partition = Arc::new(PartitionSet::build(&hw.graph, 2));
    let mut sharded = ShardedModel::gcwc_on(Arc::clone(&partition), 8, model_config(), 42);
    sharded.fit_shards(&samples[..8]);

    let registry = sharded_registry(sharded, model_config);
    let engine = Engine::new(registry, EngineConfig { workers: 0, ..Default::default() });
    let mut client = engine.client();
    // Sample 2 has observed mass inside shard 1, so two differently
    // initialised shard-1 models must disagree on its completion.
    let s = &samples[2];
    let ask = |client: &mut gcwc_serve::Client| {
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
        engine.process_queued();
        client.recv().unwrap()
    };

    let first = ask(&mut client);
    assert!(!first.cache_hit);
    let before = first.output.clone();
    client.recycle(first);

    // Warm repeat: every shard answers from its cache.
    let warm = ask(&mut client);
    assert!(warm.cache_hit, "repeat request must be a full cache hit");
    assert_eq!(bits(&before), bits(&warm.output));
    client.recycle(warm);

    // Swap shard 1 for a differently-initialised (untrained) model.
    let swapped = GcwcModel::new(partition.partition(1).graph(), 8, model_config(), 777);
    engine.registry().install_shard(1, AnyModel::Gcwc(swapped));

    let after = ask(&mut client);
    // Shard 1's entries are invalidated (its generation changed)...
    assert!(!after.cache_hit, "swapped shard must miss its cache");
    // ...while shard 0's rows are still served from cache, unchanged.
    let view0 = partition.partition(0).view();
    for &g in view0.owned() {
        assert_eq!(
            bits(&Matrix::from_vec(1, 8, before.row(g).to_vec())),
            bits(&Matrix::from_vec(1, 8, after.output.row(g).to_vec())),
            "shard-0 owned row {g} must be untouched by the swap"
        );
    }
    // ...and shard 1's owned rows reflect the new model.
    let view1 = partition.partition(1).view();
    let changed = view1.owned().iter().filter(|&&g| before.row(g) != after.output.row(g)).count();
    assert!(changed > 0, "shard-1 rows must change after the swap");
    client.recycle(after);
    engine.shutdown();
}
