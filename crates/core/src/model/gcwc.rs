//! The basic GCWC model (paper §IV).

use gcwc_graph::EdgeGraph;
use gcwc_linalg::rng::seeded;
use gcwc_linalg::Matrix;
use gcwc_nn::{ParamStore, Tape};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::{ModelConfig, OutputKind};
use crate::infer::{InferRequest, InferWorkspace};
use crate::model::encoder::Encoder;
use crate::task::{CompletionModel, TrainSample};
use crate::train::{run_training, TrainControl, TrainError, TrainReport};

/// ε of the KL loss (Eq. 3).
pub const LOSS_EPS: f64 = 1e-6;

/// Graph Convolutional Weight Completion.
pub struct GcwcModel {
    store: ParamStore,
    encoder: Encoder,
    cfg: ModelConfig,
    rng: StdRng,
    last_report: TrainReport,
}

impl GcwcModel {
    /// Creates an untrained GCWC model for `graph` with `m` buckets.
    pub fn new(graph: &EdgeGraph, m: usize, cfg: ModelConfig, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let mut store = ParamStore::new();
        let encoder = Encoder::new(graph, m, &cfg, &mut store, &mut rng);
        Self { store, encoder, cfg, rng, last_report: TrainReport::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The training report of the last [`CompletionModel::fit`] call.
    pub fn last_report(&self) -> &TrainReport {
        &self.last_report
    }

    /// Number of edges `n` in the served graph.
    pub fn num_edges(&self) -> usize {
        self.encoder.num_edges()
    }

    /// Number of histogram buckets `m`.
    pub fn num_buckets(&self) -> usize {
        self.encoder.num_buckets()
    }

    /// Output head kind.
    pub fn output_kind(&self) -> OutputKind {
        self.encoder.output_kind()
    }

    /// Output columns (`m` for HIST, 1 for AVG).
    pub fn output_cols(&self) -> usize {
        self.encoder.output_cols()
    }

    /// Whitespace-free architecture token, written into checkpoint
    /// headers and validated on load.
    pub fn arch_string(&self) -> String {
        format!(
            "gcwc:n{}:m{}:{}",
            self.encoder.num_edges(),
            self.encoder.num_buckets(),
            self.cfg.arch_signature()
        )
    }

    /// Saves the trained parameters to a checkpoint file (with the
    /// architecture token in the header).
    pub fn save(&self, path: &std::path::Path) -> Result<(), gcwc_nn::PersistError> {
        gcwc_nn::persist::save_with_arch(&self.store, path, &self.arch_string())
    }

    /// Restores parameters from a checkpoint produced by a model with
    /// the identical architecture (header validated when present).
    pub fn load(&mut self, path: &std::path::Path) -> Result<(), gcwc_nn::PersistError> {
        let arch = self.arch_string();
        gcwc_nn::persist::load_expecting(&mut self.store, path, Some(&arch))
    }

    /// Tape-free batched inference: runs `count` requests (provided by
    /// `req`, indexed `0..count`) as one coalesced forward pass, writing
    /// request `r`'s completed matrix into `outs[r]` (pre-shaped
    /// `n × output_cols`). Bit-identical per request to
    /// [`CompletionModel::predict`]; allocation-free once `ws` is warm.
    pub fn infer_into<'r, F>(
        &self,
        ws: &mut InferWorkspace,
        count: usize,
        req: F,
        outs: &mut [Matrix],
    ) where
        F: Fn(usize) -> InferRequest<'r>,
    {
        let (n, m) = (self.encoder.num_edges(), self.encoder.num_buckets());
        let mut wide = ws.pool.take_raw(n, count * m);
        for r in 0..count {
            let rq = req(r);
            assert_eq!(rq.input.shape(), (n, m), "request input shape mismatch");
            for i in 0..n {
                wide.row_mut(i)[r * m..(r + 1) * m].copy_from_slice(rq.input.row(i));
            }
        }
        self.encoder.infer_outputs(&self.store, ws, &wide, count, outs);
        ws.pool.give(wide);
    }

    /// Single-request convenience wrapper over [`GcwcModel::infer_into`];
    /// the returned matrix comes from the workspace pool (return it with
    /// [`InferWorkspace::give`] for reuse).
    pub fn infer(&self, ws: &mut InferWorkspace, input: &Matrix) -> Matrix {
        let mut out = ws.take(self.num_edges(), self.output_cols());
        let rq = InferRequest { input, time_of_day: 0, day_of_week: 0, row_flags: &[] };
        self.infer_into(ws, 1, |_| rq, std::slice::from_mut(&mut out));
        out
    }

    /// Builds the per-sample loss node (KL for HIST, masked MSE for AVG).
    ///
    /// Applies denoising augmentation: with probability `row_dropout`
    /// each covered input row is zeroed while remaining in the loss
    /// mask, so the decoder is also trained to complete rows it cannot
    /// see.
    pub(crate) fn sample_loss(
        encoder: &Encoder,
        row_dropout: f64,
        tape: &mut Tape,
        store: &ParamStore,
        sample: &TrainSample,
        rng: &mut StdRng,
    ) -> gcwc_nn::NodeId {
        let (input, flags) = crate::task::corrupt_input_pooled(
            &sample.input,
            &sample.context.row_flags,
            row_dropout,
            rng,
            tape.pool_mut(),
        );
        let pred = encoder.output(tape, store, &input, true, rng);
        tape.pool_mut().give(input);
        tape.pool_mut().give_vec(flags);
        match encoder.output_kind() {
            OutputKind::Histogram => {
                tape.kl_loss_masked_ref(pred, &sample.label, &sample.label_mask, LOSS_EPS)
            }
            OutputKind::Average => tape.mse_masked_rows(pred, &sample.label, &sample.label_mask),
        }
    }
}

impl GcwcModel {
    /// Fallible training with explicit robustness controls: the
    /// divergence guard aborts with [`TrainError::Diverged`] instead of
    /// training through non-finite batches, and a
    /// [`crate::train::CheckpointPlan`] persists/resumes the run at
    /// epoch boundaries. [`CompletionModel::fit`] is this with default
    /// controls (panicking on the error path).
    pub fn try_fit(
        &mut self,
        samples: &[TrainSample],
        control: &TrainControl,
    ) -> Result<(), TrainError> {
        let encoder = &self.encoder;
        let row_dropout = self.cfg.row_dropout;
        let mut rng = seeded(self.rng.random());
        self.last_report = run_training(
            &mut self.store,
            self.cfg.optim,
            self.cfg.epochs,
            self.cfg.batch_size,
            samples,
            &mut rng,
            control,
            |tape, store, sample, rng| {
                Self::sample_loss(encoder, row_dropout, tape, store, sample, rng)
            },
        )?;
        Ok(())
    }

    /// Warm-start fine-tuning: a short guarded training pass that
    /// continues from the current parameters (typically restored from
    /// a checkpoint) under `plan`'s epoch count and scaled learning
    /// rate. Consumes the model RNG exactly like one [`GcwcModel::try_fit`]
    /// call, so a fine-tune is bit-identical to an offline `try_fit`
    /// on the same samples from the same model state.
    pub fn fine_tune(
        &mut self,
        samples: &[TrainSample],
        plan: &crate::train::FineTunePlan,
        control: &TrainControl,
    ) -> Result<(), TrainError> {
        let saved_epochs = self.cfg.epochs;
        let saved_lr = self.cfg.optim.learning_rate;
        self.cfg.epochs = plan.epochs.max(1);
        self.cfg.optim.learning_rate = saved_lr * plan.lr_scale;
        let result = self.try_fit(samples, control);
        self.cfg.epochs = saved_epochs;
        self.cfg.optim.learning_rate = saved_lr;
        result
    }
}

impl CompletionModel for GcwcModel {
    fn name(&self) -> String {
        "GCWC".to_owned()
    }

    fn fit(&mut self, samples: &[TrainSample]) {
        self.try_fit(samples, &TrainControl::default())
            .unwrap_or_else(|e| panic!("GCWC training failed: {e}"));
    }

    fn predict(&self, sample: &TrainSample) -> Matrix {
        let mut tape = Tape::new();
        let mut rng = seeded(0); // unused in eval mode
        let out = self.encoder.output(&mut tape, &self.store, &sample.input, false, &mut rng);
        tape.value(out).clone()
    }

    fn num_params(&self) -> usize {
        self.store.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{build_samples, TaskKind};
    use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};

    fn tiny_setup() -> (gcwc_traffic::NetworkInstance, gcwc_traffic::Dataset) {
        let hw = generators::highway_tollgate(1);
        let cfg = SimConfig {
            days: 2,
            intervals_per_day: 16,
            records_per_interval: 10.0,
            ..Default::default()
        };
        let data = simulate(&hw, HistogramSpec::hist8(), &cfg);
        let ds = data.to_dataset(0.5, 5, 11);
        (hw, ds)
    }

    #[test]
    fn fit_reduces_kl_loss() {
        let (hw, ds) = tiny_setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        let cfg = ModelConfig::hw_hist().with_epochs(8);
        let mut model = GcwcModel::new(&hw.graph, 8, cfg, 42);
        model.fit(&samples);
        let losses = &model.last_report().epoch_losses;
        assert_eq!(losses.len(), 8);
        assert!(losses.last().unwrap() < &(losses[0] * 0.9), "loss should drop: {losses:?}");
    }

    #[test]
    fn predictions_are_valid_histograms_for_all_edges() {
        let (hw, ds) = tiny_setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        let cfg = ModelConfig::hw_hist().with_epochs(3);
        let mut model = GcwcModel::new(&hw.graph, 8, cfg, 42);
        model.fit(&samples[..8]);
        let pred = model.predict(&samples[9]);
        assert_eq!(pred.shape(), (24, 8));
        for i in 0..24 {
            let s: f64 = pred.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
    }

    #[test]
    fn average_variant_outputs_column() {
        let (hw, ds) = tiny_setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Average, 0);
        let cfg = ModelConfig::hw_avg().with_epochs(3);
        let mut model = GcwcModel::new(&hw.graph, 8, cfg, 42);
        model.fit(&samples[..8]);
        let pred = model.predict(&samples[9]);
        assert_eq!(pred.shape(), (24, 1));
        assert!(pred.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn param_count_is_plausible() {
        let (hw, _) = tiny_setup();
        let model = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist(), 1);
        let p = model.num_params();
        // conv1 (8·16 + 16) + conv2 (8·16·16 + 16) + FC ((n/8)·16+1)·24.
        assert!(p > 2_000 && p < 40_000, "param count {p}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (hw, ds) = tiny_setup();
        let idx: Vec<usize> = (0..8).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        let run = || {
            let cfg = ModelConfig::hw_hist().with_epochs(2);
            let mut model = GcwcModel::new(&hw.graph, 8, cfg, 7);
            model.fit(&samples);
            model.predict(&samples[0])
        };
        assert_eq!(run(), run());
    }
}
