//! Task definitions: training samples, the three functionalities of
//! §VI-A.3 (Estimation / Prediction / Average), and the common model
//! interface shared by GCWC, A-GCWC and all baselines.

use gcwc_linalg::Matrix;
use gcwc_traffic::{Context, Dataset};

/// The functionality being evaluated (§VI-A.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Complete `Ŵ@Ti` from `W@Ti` (label = the input matrix itself).
    Estimation,
    /// Predict `Ŵ@T(i+1)` from `W@Ti` (label = next interval's matrix at
    /// the same removal ratio).
    Prediction,
    /// Estimate deterministic average speeds (sigmoid head, `n × 1`).
    Average,
}

/// One training/evaluation sample.
#[derive(Clone, Debug)]
pub struct TrainSample {
    /// Index of the snapshot the *input* matrix comes from (evaluation
    /// targets derive from this: same index for estimation, `+1` for
    /// prediction).
    pub snapshot_index: usize,
    /// Incomplete input matrix `W` (`n × m`).
    pub input: Matrix,
    /// Label matrix: `n × m` histograms, or `n × 1` normalised speeds
    /// for [`TaskKind::Average`].
    pub label: Matrix,
    /// Row mask: `1.0` where the label row carries data (the `I_i` of
    /// Eq. 3).
    pub label_mask: Vec<f64>,
    /// Context of the input matrix.
    pub context: Context,
    /// Preceding input matrices, oldest first (used by the DR baseline;
    /// zero matrices pad the start of the timeline).
    pub history: Vec<Matrix>,
}

/// Maximum representable speed (m/s); average speeds are normalised by
/// this before the sigmoid head.
pub const MAX_SPEED: f64 = 40.0;

/// Denoising augmentation: zeroes each covered input row with
/// probability `p`, returning the corrupted matrix and the row flags of
/// the *corrupted* input (what the model actually observes). Both come
/// from `pool`; return them with `give`/`give_vec` when done.
pub fn corrupt_input_pooled(
    input: &Matrix,
    row_flags: &[f64],
    p: f64,
    rng: &mut rand::rngs::StdRng,
    pool: &mut gcwc_linalg::BufferPool,
) -> (Matrix, Vec<f64>) {
    use rand::Rng;
    let mut out = pool.take_raw(input.rows(), input.cols());
    out.copy_from(input);
    let mut flags = pool.take_vec(row_flags.len());
    flags.copy_from_slice(row_flags);
    if p <= 0.0 {
        return (out, flags);
    }
    for e in 0..out.rows() {
        if flags[e] > 0.0 && rng.random::<f64>() < p {
            out.row_mut(e).fill(0.0);
            flags[e] = 0.0;
        }
    }
    (out, flags)
}

/// The uniform interface every completion method implements.
pub trait CompletionModel {
    /// Display name (table column header).
    fn name(&self) -> String;

    /// Fits the model on training samples.
    fn fit(&mut self, samples: &[TrainSample]);

    /// Produces the completed matrix for a sample's input and context:
    /// `n × m` row-stochastic histograms, or `n × 1` normalised speeds
    /// for average models. Must not read `sample.label`.
    fn predict(&self, sample: &TrainSample) -> Matrix;

    /// Number of trainable scalars (Table III's `#Para`); 0 for
    /// non-parametric methods.
    fn num_params(&self) -> usize {
        0
    }
}

/// Builds samples for the given snapshot indices of a dataset.
///
/// * `Estimation`: label = the input matrix itself, masked to its own
///   covered rows ("unsupervised" training, §IV-A).
/// * `Prediction`: label = the *next* snapshot's input matrix (ground
///   truth at `T(k+1)` with the same removal ratio applied, §VI-A.3);
///   the last snapshot yields no sample.
/// * `Average`: label = ground-truth mean speeds (normalised by
///   [`MAX_SPEED`]) on rows covered by the input.
pub fn build_samples(
    dataset: &Dataset,
    indices: &[usize],
    task: TaskKind,
    history_len: usize,
) -> Vec<TrainSample> {
    let n = dataset.num_edges;
    let m = dataset.spec.buckets;
    let mut samples = Vec::with_capacity(indices.len());
    for &i in indices {
        let snap = &dataset.snapshots[i];
        let history = (0..history_len)
            .map(|back| {
                let offset = history_len - back; // oldest first
                if i >= offset {
                    dataset.snapshots[i - offset].input.matrix().clone()
                } else {
                    Matrix::zeros(n, m)
                }
            })
            .collect();
        let (label, label_mask) = match task {
            TaskKind::Estimation => (snap.input.matrix().clone(), snap.input.row_flags()),
            TaskKind::Prediction => {
                let Some(next) = dataset.prediction_label(i) else { continue };
                (next.input.matrix().clone(), next.input.row_flags())
            }
            TaskKind::Average => {
                let mut label = Matrix::zeros(n, 1);
                let mut mask = vec![0.0; n];
                for e in 0..n {
                    if let Some(v) = snap.avg_truth[e] {
                        if snap.input.is_covered(e) {
                            label[(e, 0)] = v / MAX_SPEED;
                            mask[e] = 1.0;
                        }
                    }
                }
                (label, mask)
            }
        };
        samples.push(TrainSample {
            snapshot_index: i,
            input: snap.input.matrix().clone(),
            label,
            label_mask,
            context: snap.context.clone(),
            history,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};

    fn dataset() -> Dataset {
        let hw = generators::highway_tollgate(1);
        let cfg = SimConfig { days: 1, intervals_per_day: 10, ..Default::default() };
        let data = simulate(&hw, HistogramSpec::hist8(), &cfg);
        data.to_dataset(0.5, 5, 7)
    }

    #[test]
    fn estimation_labels_are_inputs() {
        let ds = dataset();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        assert_eq!(samples.len(), ds.len());
        for (s, snap) in samples.iter().zip(&ds.snapshots) {
            assert_eq!(&s.label, snap.input.matrix());
            assert_eq!(s.label_mask, snap.input.row_flags());
        }
    }

    #[test]
    fn prediction_labels_shift_by_one() {
        let ds = dataset();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Prediction, 0);
        // The last snapshot has no next-interval label.
        assert_eq!(samples.len(), ds.len() - 1);
        assert_eq!(&samples[0].label, ds.snapshots[1].input.matrix());
    }

    #[test]
    fn average_labels_are_normalised() {
        let ds = dataset();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Average, 0);
        for s in &samples {
            assert_eq!(s.label.cols(), 1);
            for e in 0..s.label.rows() {
                let v = s.label[(e, 0)];
                assert!((0.0..=1.0).contains(&v), "normalised speed {v}");
                if s.label_mask[e] == 0.0 {
                    assert_eq!(v, 0.0);
                }
            }
        }
    }

    #[test]
    fn history_is_oldest_first_with_zero_padding() {
        let ds = dataset();
        let idx = vec![0usize, 2];
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 2);
        // Snapshot 0: no predecessors -> both history entries zero.
        assert_eq!(samples[0].history.len(), 2);
        assert_eq!(samples[0].history[0].sum(), 0.0);
        assert_eq!(samples[0].history[1].sum(), 0.0);
        // Snapshot 2: history = [input@0, input@1].
        assert_eq!(&samples[1].history[0], ds.snapshots[0].input.matrix());
        assert_eq!(&samples[1].history[1], ds.snapshots[1].input.matrix());
    }
}
