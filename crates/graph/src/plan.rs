//! Shared construction of a graph-convolution stack: the coarsening
//! hierarchy, one scaled-Laplacian Chebyshev basis per stage, and the
//! pooling maps between stages.
//!
//! Both the model encoder in `gcwc-core` and the graph-level tests
//! construct the same `(basis, pooling)` ladder from an adjacency
//! matrix; [`ConvPlan::build`] is the single place that walks the
//! hierarchy, so "scale the Laplacian, expand the Chebyshev basis,
//! compose the pooling clusters" is written exactly once. The
//! partition module reuses it to give every partition its own basis
//! stack over its local subgraph.

use std::sync::Arc;

use gcwc_linalg::CsrMatrix;

use crate::chebyshev::ChebyshevBasis;
use crate::coarsen::GraphHierarchy;
use crate::pool::PoolingMap;

/// Shape of one convolution stage: Chebyshev order and the pooling
/// size applied after it (`1` = no pooling; otherwise a power of two).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpec {
    /// Chebyshev polynomial order `K`.
    pub cheb_order: usize,
    /// Graph pooling size after the convolution (power of two; 1 = none).
    pub pool: usize,
}

/// One built stage: the Chebyshev basis over the stage's graph level
/// and the pooling map into the next level (if any).
pub struct ConvStage {
    /// Chebyshev basis on the scaled Laplacian of this stage's graph.
    pub basis: Arc<ChebyshevBasis>,
    /// Pooling over composed Graclus clusters, when `pool > 1`.
    pub pool: Option<Arc<PoolingMap>>,
    /// Nodes entering the stage.
    pub in_nodes: usize,
    /// Nodes leaving the stage (after pooling).
    pub out_nodes: usize,
}

/// A fully built convolution ladder over one adjacency matrix.
pub struct ConvPlan {
    hierarchy: GraphHierarchy,
    stages: Vec<ConvStage>,
}

impl ConvPlan {
    /// Builds the coarsening hierarchy and per-stage bases/pools for
    /// `specs` over `adjacency`.
    ///
    /// # Panics
    /// Panics when `specs` is empty or a pool size is not a power of
    /// two.
    pub fn build(adjacency: &CsrMatrix, specs: &[StageSpec]) -> Self {
        assert!(!specs.is_empty(), "a convolution plan needs at least one stage");
        let levels: usize = specs.iter().map(|s| log2_exact(s.pool)).sum();
        let hierarchy = GraphHierarchy::build(adjacency, levels);
        let mut level = 0usize;
        let mut stages = Vec::with_capacity(specs.len());
        for spec in specs {
            let in_nodes = hierarchy.num_nodes(level);
            let basis =
                Arc::new(ChebyshevBasis::from_adjacency(hierarchy.graph(level), spec.cheb_order));
            let (pool, out_nodes) = if spec.pool > 1 {
                let to = level + log2_exact(spec.pool);
                let map = Arc::new(PoolingMap::from_hierarchy(&hierarchy, level, to));
                let out = map.num_outputs();
                level = to;
                (Some(map), out)
            } else {
                (None, in_nodes)
            };
            stages.push(ConvStage { basis, pool, in_nodes, out_nodes });
        }
        Self { hierarchy, stages }
    }

    /// The coarsening hierarchy the stages were built over.
    pub fn hierarchy(&self) -> &GraphHierarchy {
        &self.hierarchy
    }

    /// The built stages, in order.
    pub fn stages(&self) -> &[ConvStage] {
        &self.stages
    }

    /// Nodes left after the final stage's pooling.
    pub fn out_nodes(&self) -> usize {
        self.stages.last().expect("non-empty plan").out_nodes
    }

    /// Consumes the plan, yielding the stages for a model to own.
    pub fn into_stages(self) -> Vec<ConvStage> {
        self.stages
    }
}

/// `log2` for exact powers of two.
///
/// # Panics
/// Panics when `p` is not a power of two.
pub fn log2_exact(p: usize) -> usize {
    assert!(p.is_power_of_two(), "pool size {p} is not a power of two");
    p.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chebyshev::PolyBasis;

    fn path(n: usize) -> CsrMatrix {
        CsrMatrix::from_triplets(n, n, (0..n - 1).flat_map(|i| [(i, i + 1, 1.0), (i + 1, i, 1.0)]))
    }

    #[test]
    fn plan_matches_manual_ladder() {
        let a = path(16);
        let specs = [StageSpec { cheb_order: 4, pool: 4 }, StageSpec { cheb_order: 3, pool: 2 }];
        let plan = ConvPlan::build(&a, &specs);
        assert_eq!(plan.stages().len(), 2);
        assert_eq!(plan.stages()[0].in_nodes, 16);
        // Pooling by 4 then 2 composes three coarsening levels.
        assert_eq!(plan.hierarchy().num_levels(), 3);
        assert_eq!(plan.stages()[0].out_nodes, plan.hierarchy().num_nodes(2));
        assert_eq!(plan.stages()[1].out_nodes, plan.out_nodes());
        assert_eq!(plan.stages()[0].basis.order(), 4);
        assert!(plan.stages()[0].pool.is_some());
    }

    #[test]
    fn pool_of_one_skips_pooling() {
        let plan = ConvPlan::build(&path(8), &[StageSpec { cheb_order: 2, pool: 1 }]);
        assert!(plan.stages()[0].pool.is_none());
        assert_eq!(plan.out_nodes(), 8);
        assert_eq!(plan.hierarchy().num_levels(), 0);
    }

    #[test]
    fn log2_exact_values() {
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(8), 3);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn log2_rejects_non_powers() {
        log2_exact(6);
    }
}
