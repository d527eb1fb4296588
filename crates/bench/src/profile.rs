//! Experiment profiles: how much data / training the harness uses.
//!
//! The paper's full protocol (96 intervals/day, months of data, 5-fold
//! CV, fully trained models) is CPU-hostile; the default `fast` profile
//! keeps the protocol's *structure* (time-ordered folds, all four
//! removal ratios, every method) at a size that finishes in minutes.
//! `--full` restores the paper-scale settings.

/// Which synthetic dataset to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// 24-link highway tollgate network (HW).
    Highway,
    /// 172-edge city network (CI).
    City,
}

impl DatasetKind {
    /// Short name used in table headers.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Highway => "HW",
            DatasetKind::City => "CI",
        }
    }
}

/// Harness sizing knobs.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Simulated days.
    pub days: usize,
    /// Intervals per day.
    pub intervals_per_day: usize,
    /// Cross-validation folds.
    pub folds: usize,
    /// Removal ratios to sweep.
    pub removal_ratios: Vec<f64>,
    /// Training epochs on the HW dataset.
    pub epochs: usize,
    /// Training epochs on the CI dataset (larger per-step cost; fewer
    /// epochs keep the fast profile tractable on one core).
    pub ci_epochs: usize,
    /// History length fed to the DR baseline.
    pub history_len: usize,
    /// Minimum records to instantiate a ground-truth weight.
    pub min_records: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// CI-network scales of the Figure 6 scaling record.
    pub scales: Vec<usize>,
    /// 20-instance batches per fit of a scaling row.
    pub scal_batches: usize,
    /// Worker threads per training batch, and the one thread count of
    /// the scaling rows (0 = ambient: `GCWC_THREADS` or the machine's
    /// available parallelism; scaling then runs 1 and the ambient
    /// count). Results are bit-identical for every value; only
    /// throughput changes.
    pub threads: usize,
}

impl Profile {
    /// Minutes-scale profile: full protocol structure, reduced sizes.
    pub fn fast() -> Self {
        Self {
            days: 5,
            intervals_per_day: 48,
            folds: 2,
            removal_ratios: vec![0.5, 0.6, 0.7, 0.8],
            epochs: 35,
            ci_epochs: 14,
            history_len: 3,
            min_records: 5,
            seed: 20190411, // ICDE'19 in Macau
            scales: vec![1, 2, 4],
            scal_batches: 2,
            threads: 0,
        }
    }

    /// Paper-scale protocol (hours on CPU).
    pub fn full() -> Self {
        Self {
            days: 28,
            intervals_per_day: 96,
            folds: 5,
            epochs: 60,
            ci_epochs: 40,
            scales: vec![10, 25, 50],
            scal_batches: 3,
            ..Self::fast()
        }
    }

    /// Effective epoch budget for a dataset.
    pub fn epochs_for(&self, kind: DatasetKind) -> usize {
        match kind {
            DatasetKind::Highway => self.epochs,
            DatasetKind::City => self.ci_epochs,
        }
    }

    /// Seconds-scale smoke profile (CI pipelines, tests).
    pub fn smoke() -> Self {
        Self {
            days: 1,
            intervals_per_day: 16,
            folds: 2,
            removal_ratios: vec![0.5],
            epochs: 2,
            ci_epochs: 2,
            history_len: 2,
            min_records: 5,
            seed: 7,
            scales: vec![1],
            scal_batches: 1,
            threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_size() {
        let (s, f, full) = (Profile::smoke(), Profile::fast(), Profile::full());
        assert!(s.days <= f.days && f.days <= full.days);
        assert!(s.epochs <= f.epochs && f.epochs <= full.epochs);
        assert_eq!(full.folds, 5, "the paper uses 5-fold CV");
        assert_eq!(full.intervals_per_day, 96, "the paper uses 96 intervals");
        assert_eq!(f.removal_ratios, vec![0.5, 0.6, 0.7, 0.8]);
    }

    #[test]
    fn dataset_names() {
        assert_eq!(DatasetKind::Highway.name(), "HW");
        assert_eq!(DatasetKind::City.name(), "CI");
    }
}
