//! A K = 2 shard set over `generators::city_network_sized(2, 64)`
//! serving untrained GCWC models, and the topology change that appends
//! edge 64 beside an edge interior to partition 0: only shard 0 is
//! rebuilt, and the graph grows from 64 to 65 edges.

use gcwc::{GcwcModel, ModelConfig};
use gcwc_graph::{EdgeGraph, GraphDelta, PartitionSet, RowView};
use gcwc_linalg::Matrix;
use gcwc_serve::registry::ModelFactory;
use gcwc_serve::{AnyModel, ModelRegistry, TopologyUpdate};
use gcwc_traffic::generators;
use std::sync::Arc;

/// Histogram buckets per edge.
pub const M: usize = 8;

/// An untrained CI-sized GCWC over `graph` (deterministic: seed 0).
pub fn model(graph: &EdgeGraph) -> GcwcModel {
    GcwcModel::new(graph, M, ModelConfig::ci_hist(), 0)
}

/// The factory building [`model`] over `graph`.
pub fn factory(graph: &EdgeGraph) -> ModelFactory {
    let graph = graph.clone();
    Box::new(move || AnyModel::Gcwc(model(&graph)))
}

/// An `n × M` input observing every third edge.
pub fn input(n: usize) -> Matrix {
    Matrix::from_fn(n, M, |e, b| if e % 3 == 0 { (b + 1) as f64 / 36.0 } else { 0.0 })
}

/// The city before the change and its K = 2 partition set.
pub struct GrowingCity {
    /// The 64-edge graph.
    pub graph: EdgeGraph,
    /// Its two partitions.
    pub partition: PartitionSet,
}

impl GrowingCity {
    /// Builds the city and partitions it.
    pub fn new() -> Self {
        let graph = generators::city_network_sized(2, 64).graph;
        assert_eq!(graph.num_nodes(), 64);
        let partition = PartitionSet::build(&graph, 2);
        Self { graph, partition }
    }

    /// A registry serving an untrained model on every shard.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        let factories = self.partition.partitions().iter().map(|p| factory(p.graph())).collect();
        Arc::new(ModelRegistry::sharded(factories, &self.partition))
    }

    /// The partition set after edge 64 is appended beside an edge
    /// interior to partition 0.
    pub fn grown(&self) -> PartitionSet {
        let interior = (0..self.graph.num_nodes())
            .find(|&u| self.partition.owner_of(u) == 0 && !self.partition.is_boundary(u))
            .expect("partition 0 has an interior edge");
        let delta = GraphDelta { added_edges: vec![(interior, 64)], removed_edges: vec![] };
        let repair = self.partition.apply_delta(&self.graph, &delta).unwrap();
        assert_eq!(repair.repaired, [0], "only partition 0 takes the new edge");
        repair.partitions
    }

    /// The registry's side of [`GrowingCity::grown`]: shard 0's rebuilt
    /// model and factory, and every shard's new view.
    pub fn grow(&self) -> (Vec<TopologyUpdate>, Vec<RowView>) {
        let grown = self.grown();
        let graph = grown.partition(0).graph();
        let update = TopologyUpdate {
            shard: 0,
            model: AnyModel::Gcwc(model(graph)),
            factory: factory(graph),
        };
        (vec![update], grown.views())
    }
}
