//! Property tests for edge-owned partitioning: ownership is a
//! partition of the node set, halos are exactly the 1-hop
//! out-of-partition neighbourhood, local→global maps round-trip, and
//! local subgraphs restrict the global adjacency — over random graphs
//! and K ∈ {1, 2, 4, 7}.

use gcwc_graph::{shard_seed, EdgeGraph, PartitionSet, RowView};
use gcwc_linalg::{CsrMatrix, Matrix};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random symmetric adjacency on `n` nodes (each undirected
/// pair present with probability ~0.3).
fn random_adjacency(max_n: usize) -> impl Strategy<Value = CsrMatrix> {
    (3usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec(proptest::bool::weighted(0.3), n * (n - 1) / 2).prop_map(
            move |bits| {
                let mut triplets = Vec::new();
                let mut k = 0;
                for i in 0..n {
                    for j in i + 1..n {
                        if bits[k] {
                            triplets.push((i, j, 1.0));
                            triplets.push((j, i, 1.0));
                        }
                        k += 1;
                    }
                }
                CsrMatrix::from_triplets(n, n, triplets)
            },
        )
    })
}

fn shard_counts() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1usize, 2, 4, 7][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every node is owned by exactly one partition, and `owner_of`
    /// agrees with the owned lists.
    #[test]
    fn ownership_is_a_partition(a in random_adjacency(14), k in shard_counts()) {
        let g = EdgeGraph::from_adjacency(a);
        let n = g.num_nodes();
        let ps = PartitionSet::build(&g, k);
        prop_assert_eq!(ps.num_partitions(), k);
        prop_assert_eq!(ps.num_nodes(), n);
        let mut owners = vec![0usize; n];
        for (b, p) in ps.partitions().iter().enumerate() {
            for &u in p.owned() {
                owners[u] += 1;
                prop_assert_eq!(ps.owner_of(u), b);
            }
        }
        prop_assert!(owners.iter().all(|&c| c == 1), "owners: {:?}", owners);
    }

    /// Halos are exactly the 1-hop neighbourhood of the owned set
    /// minus the owned set itself.
    #[test]
    fn halo_is_exact_one_hop_neighbourhood(a in random_adjacency(14), k in shard_counts()) {
        let g = EdgeGraph::from_adjacency(a);
        let ps = PartitionSet::build(&g, k);
        for p in ps.partitions() {
            let owned: BTreeSet<usize> = p.owned().iter().copied().collect();
            let expected: BTreeSet<usize> = p
                .owned()
                .iter()
                .flat_map(|&u| g.neighbors(u).iter().copied())
                .filter(|v| !owned.contains(v))
                .collect();
            let halo: BTreeSet<usize> = p.halo().iter().copied().collect();
            prop_assert_eq!(halo, expected);
        }
    }

    /// Owned + halo local→global maps are injective, sorted within
    /// each group, and round-trip through select/scatter.
    #[test]
    fn local_global_maps_roundtrip(a in random_adjacency(14), k in shard_counts()) {
        let g = EdgeGraph::from_adjacency(a);
        let n = g.num_nodes();
        let ps = PartitionSet::build(&g, k);
        let global = Matrix::from_fn(n, 3, |i, j| (i * 7 + j) as f64 + 0.25);
        let mut gathered = Matrix::zeros(n, 3);
        for p in ps.partitions() {
            let view = p.view();
            let ltg = view.local_to_global();
            // Injective: no global row appears twice locally.
            let distinct: BTreeSet<usize> = ltg.iter().copied().collect();
            prop_assert_eq!(distinct.len(), ltg.len());
            prop_assert!(view.owned().windows(2).all(|w| w[0] < w[1]));
            prop_assert!(view.halo().windows(2).all(|w| w[0] < w[1]));
            // Select pulls the mapped rows; scatter returns the owned
            // prefix to its global rows.
            let local = view.select(&global);
            for (l, &gidx) in ltg.iter().enumerate() {
                prop_assert_eq!(local.row(l), global.row(gidx));
            }
            view.scatter_owned(&local, &mut gathered);
        }
        // All partitions together reconstruct the full matrix.
        prop_assert_eq!(gathered, global);
    }

    /// The local subgraph is exactly the induced restriction of the
    /// global adjacency to owned + halo rows; for K = 1 it matches the
    /// global graph verbatim.
    #[test]
    fn local_graphs_restrict_global(a in random_adjacency(12), k in shard_counts()) {
        let g = EdgeGraph::from_adjacency(a);
        let ps = PartitionSet::build(&g, k);
        let dense = g.adjacency_dense();
        for p in ps.partitions() {
            let ltg = p.view().local_to_global();
            let local = p.graph().adjacency_dense();
            prop_assert_eq!(local.rows(), ltg.len());
            for (li, &gi) in ltg.iter().enumerate() {
                for (lj, &gj) in ltg.iter().enumerate() {
                    prop_assert_eq!(local[(li, lj)], dense[(gi, gj)]);
                }
            }
        }
        if k == 1 {
            prop_assert!(ps.partition(0).view().is_identity());
            prop_assert_eq!(ps.partition(0).graph().adjacency_dense(), dense);
        }
    }

    /// Building twice yields identical partitions (determinism), and
    /// boundary nodes are exactly those with a foreign-owned
    /// neighbour.
    #[test]
    fn deterministic_with_consistent_boundary(a in random_adjacency(12), k in shard_counts()) {
        let g = EdgeGraph::from_adjacency(a);
        let p1 = PartitionSet::build(&g, k);
        let p2 = PartitionSet::build(&g, k);
        for (x, y) in p1.partitions().iter().zip(p2.partitions()) {
            prop_assert_eq!(x.view(), y.view());
        }
        for u in 0..g.num_nodes() {
            let expected =
                g.neighbors(u).iter().any(|&v| p1.owner_of(v) != p1.owner_of(u));
            prop_assert_eq!(p1.is_boundary(u), expected, "node {}", u);
        }
    }
}

/// A 20×43 4-connected grid — 860 nodes, the node count of the CI
/// city tiled ×5. Large enough that the coarsening inside `pack_bins`
/// runs several levels, unlike the small random graphs above.
fn grid_860() -> EdgeGraph {
    const ROWS: usize = 20;
    const COLS: usize = 43;
    let n = ROWS * COLS;
    let mut triplets = Vec::new();
    for r in 0..ROWS {
        for c in 0..COLS {
            let u = r * COLS + c;
            if c + 1 < COLS {
                triplets.push((u, u + 1, 1.0));
                triplets.push((u + 1, u, 1.0));
            }
            if r + 1 < ROWS {
                triplets.push((u, u + COLS, 1.0));
                triplets.push((u + COLS, u, 1.0));
            }
        }
    }
    EdgeGraph::from_adjacency(CsrMatrix::from_triplets(n, n, triplets))
}

/// At n = 860, every node is owned exactly once and halos are exactly
/// the 1-hop out-of-partition neighbourhood, for both a small and a
/// non-power-of-two shard count.
#[test]
fn enlarged_grid_ownership_and_halos_are_exact() {
    let g = grid_860();
    let n = g.num_nodes();
    assert_eq!(n, 860);
    for k in [2usize, 7] {
        let ps = PartitionSet::build(&g, k);
        assert_eq!(ps.num_partitions(), k);
        assert_eq!(ps.num_nodes(), n);
        let mut owners = vec![0usize; n];
        for (b, p) in ps.partitions().iter().enumerate() {
            assert!(!p.owned().is_empty(), "empty partition {b} at k={k}");
            for &u in p.owned() {
                owners[u] += 1;
                assert_eq!(ps.owner_of(u), b);
            }
            let owned: BTreeSet<usize> = p.owned().iter().copied().collect();
            let expected: BTreeSet<usize> = p
                .owned()
                .iter()
                .flat_map(|&u| g.neighbors(u).iter().copied())
                .filter(|v| !owned.contains(v))
                .collect();
            let halo: BTreeSet<usize> = p.halo().iter().copied().collect();
            assert_eq!(halo, expected, "halo mismatch in partition {b} at k={k}");
        }
        assert!(owners.iter().all(|&c| c == 1), "k={k}: every node owned exactly once");
    }
}

/// Partitioning the 860-node grid is deterministic across rebuilds.
#[test]
fn enlarged_grid_partitioning_is_deterministic() {
    let g = grid_860();
    for k in [2usize, 7] {
        let p1 = PartitionSet::build(&g, k);
        let p2 = PartitionSet::build(&g, k);
        for (x, y) in p1.partitions().iter().zip(p2.partitions()) {
            assert_eq!(x.view(), y.view());
        }
    }
}

/// Shard seeds are pure in `(seed, shard)`, keep shard 0 on the base
/// seed (the K = 1 bit-identity hook), and never collide across the
/// shard counts the sweep uses.
#[test]
fn shard_seed_is_deterministic_and_distinct() {
    assert_eq!(shard_seed(42, 0), 42);
    assert_eq!(shard_seed(0xDEAD_BEEF, 0), 0xDEAD_BEEF);
    for seed in [0u64, 42, u64::MAX] {
        let seeds: Vec<u64> = (0..8).map(|s| shard_seed(seed, s)).collect();
        let again: Vec<u64> = (0..8).map(|s| shard_seed(seed, s)).collect();
        assert_eq!(seeds, again, "shard_seed must be pure");
        let distinct: BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len(), "seed collision for base {seed}");
    }
}

#[test]
fn identity_view_helpers() {
    let v = RowView::identity(5);
    assert!(v.is_identity());
    assert_eq!(v.num_owned(), 5);
    assert_eq!(v.num_halo(), 0);
    assert_eq!(v.select_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
}
