//! The serving fixture the allocation gates share: A-GCWC on the CI
//! city (172 edges, HIST-8) at K = 2, with freshly initialised shards
//! behind `ModelRegistry::sharded`, as the serve-miss benchmark builds
//! it. At this size one request's FC decoder product is ≈ 1.6–1.9 × 10⁵
//! multiply-adds per shard, above `MIN_PARALLEL_WORK`, so a forward
//! run at an ambient kernel thread count above 1 would split it.

use gcwc::{AGcwcModel, ModelConfig};
use gcwc_graph::PartitionSet;
use gcwc_linalg::Matrix;
use gcwc_serve::{AnyModel, Engine, EngineConfig, ModelRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const M: usize = 8;
const SLOTS_PER_DAY: usize = 96;
const NET_SEED: u64 = 42;

/// An engine serving A-GCWC on the CI city over two partitions.
pub fn ci_city_engine(cfg: EngineConfig) -> Arc<Engine> {
    let graph = gcwc_traffic::generators::city_network(NET_SEED).graph;
    let partition = PartitionSet::build(&graph, 2);
    let factories = (0..partition.num_partitions())
        .map(|k| {
            let graph = partition.partition(k).graph().clone();
            let f: Box<dyn Fn() -> AnyModel + Send + Sync> = Box::new(move || {
                let cfg = ModelConfig::ci_hist();
                AnyModel::AGcwc(AGcwcModel::new(&graph, M, SLOTS_PER_DAY, cfg, NET_SEED))
            });
            f
        })
        .collect();
    Arc::new(Engine::new(Arc::new(ModelRegistry::sharded(factories, &partition)), cfg))
}

/// `count` observed inputs for the CI city with their `(time of day,
/// day of week)`: each row is observed with probability ½ and then
/// holds a random histogram; the other rows are zero.
pub fn ci_requests(count: usize) -> Vec<(Matrix, usize, usize)> {
    let n = gcwc_traffic::generators::city_network(NET_SEED).graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(7);
    (0..count)
        .map(|_| {
            let mut input = Matrix::zeros(n, M);
            for i in 0..n {
                if rng.random::<f64>() < 0.5 {
                    continue;
                }
                let row = input.row_mut(i);
                row.iter_mut().for_each(|v| *v = rng.random::<f64>() + 1e-3);
                let sum: f64 = row.iter().sum();
                row.iter_mut().for_each(|v| *v /= sum);
            }
            (input, rng.random_range(0..SLOTS_PER_DAY), rng.random_range(0..7usize))
        })
        .collect()
}
