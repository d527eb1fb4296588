//! Property-based tests for the traffic substrate.

use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig, WeightMatrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every covered ground-truth row is a valid histogram, for any
    /// seed and any (small) simulation shape.
    #[test]
    fn ground_truth_rows_are_distributions(seed in 0u64..200, ipd in 4usize..12) {
        let hw = generators::highway_tollgate(seed);
        let cfg = SimConfig { days: 1, intervals_per_day: ipd, seed, ..Default::default() };
        let data = simulate(&hw, HistogramSpec::hist8(), &cfg);
        for t in 0..data.num_intervals() {
            let gt = data.ground_truth(t, 5);
            for e in 0..data.num_edges {
                match gt.row(e) {
                    Some(h) => {
                        prop_assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                        prop_assert!(h.iter().all(|&p| p >= 0.0));
                        prop_assert!(data.records_at(t, e).len() >= 5);
                    }
                    None => prop_assert!(data.records_at(t, e).len() < 5),
                }
            }
        }
    }

    /// The removal protocol never increases coverage and `to_dataset`
    /// keeps input coverage a subset of truth coverage.
    #[test]
    fn dataset_input_is_subset_of_truth(seed in 0u64..100, rm in 0.1f64..0.9) {
        let hw = generators::highway_tollgate(seed);
        let cfg = SimConfig { days: 1, intervals_per_day: 6, seed, ..Default::default() };
        let data = simulate(&hw, HistogramSpec::hist4(), &cfg);
        let ds = data.to_dataset(rm, 5, seed);
        for s in &ds.snapshots {
            for e in 0..ds.num_edges {
                if s.input.is_covered(e) {
                    prop_assert!(s.truth.is_covered(e));
                    prop_assert_eq!(s.input.row(e), s.truth.row(e));
                }
            }
        }
    }

    /// Historical averages are valid histograms whenever any records
    /// exist, regardless of which interval subset is used.
    #[test]
    fn historical_average_always_valid(seed in 0u64..100, take in 1usize..6) {
        let hw = generators::highway_tollgate(seed);
        let cfg = SimConfig { days: 1, intervals_per_day: 8, seed, ..Default::default() };
        let data = simulate(&hw, HistogramSpec::hist8(), &cfg);
        let intervals: Vec<usize> = (0..take.min(data.num_intervals())).collect();
        for h in data.historical_average(&intervals).iter().flatten() {
            prop_assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    /// Weight-matrix removal is idempotent at rm = 0 and total at rm = 1.
    #[test]
    fn removal_boundaries(seed in 0u64..100) {
        let rows = (0..10).map(|i| (i % 2 == 0).then(|| vec![0.4, 0.6])).collect();
        let w = WeightMatrix::from_rows(rows, 2);
        let mut rng = gcwc_linalg::rng::seeded(seed);
        prop_assert_eq!(w.remove_random(0.0, &mut rng).num_covered(), w.num_covered());
        prop_assert_eq!(w.remove_random(1.0, &mut rng).num_covered(), 0);
    }
}
