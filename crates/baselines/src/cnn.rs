//! Classic CNN baseline (§VI-A.5, baseline 5).
//!
//! Identical layer schedule to GCWC (Table III) but with classical
//! convolutions *down the arbitrary row order* of the weight matrix
//! instead of graph convolutions — exactly the paper's point of
//! comparison: nearby rows of `W` need not be nearby in the road
//! network, so topology-blind filters should degrade as data thins out.

use gcwc::{CompletionModel, ModelConfig, OutputKind, TrainSample};
use gcwc_linalg::rng::seeded;
use gcwc_linalg::Matrix;
use gcwc_nn::{dropout_mask, ConvSpec, Dense, NodeId, ParamStore, PoolSpec, Tape};
use rand::rngs::StdRng;
use rand::Rng;

use gcwc::model::gcwc::LOSS_EPS;
use gcwc::train::{run_training, TrainControl, TrainReport};

struct CnnLayer {
    kernel: gcwc_nn::ParamId,
    bias: gcwc_nn::ParamId,
    in_ch: usize,
    out_ch: usize,
    kh: usize,
    pool: usize,
    in_h: usize,
    out_h: usize,
}

/// The classical-CNN completion model.
pub struct CnnModel {
    store: ParamStore,
    cfg: ModelConfig,
    layers: Vec<CnnLayer>,
    fc: Dense,
    n: usize,
    m: usize,
    rng: StdRng,
    last_report: TrainReport,
}

impl CnnModel {
    /// Creates an untrained CNN for `n` edges and `m` buckets using the
    /// same architecture notation as GCWC (`C{K}×1_{f}-P{p}-…-FC{n}`).
    pub fn new(n: usize, m: usize, cfg: ModelConfig, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let mut store = ParamStore::new();
        let mut layers = Vec::with_capacity(cfg.conv_layers.len());
        let mut in_ch = 1usize;
        let mut h = n;
        for (li, lc) in cfg.conv_layers.iter().enumerate() {
            let kh = lc.cheb_order.min(h); // C{K}×1, clamped to the current height.
            let kernel = store.add(
                format!("cnn{li}.k"),
                gcwc_nn::init::glorot_uniform(&mut rng, lc.filters, in_ch * kh),
            );
            let bias = store.add(format!("cnn{li}.b"), Matrix::zeros(1, lc.filters));
            let out_h = if lc.pool > 1 { h / lc.pool } else { h };
            assert!(out_h >= 1, "network too small for pooling schedule");
            layers.push(CnnLayer {
                kernel,
                bias,
                in_ch,
                out_ch: lc.filters,
                kh,
                pool: lc.pool,
                in_h: h,
                out_h,
            });
            in_ch = lc.filters;
            h = out_h;
        }
        let f_last = layers.last().expect("non-empty").out_ch;
        let fc = Dense::new(&mut store, &mut rng, "cnn.fc", h * f_last, n);
        Self { store, cfg, layers, fc, n, m, rng, last_report: TrainReport::default() }
    }

    /// Training report of the last fit.
    pub fn last_report(&self) -> &TrainReport {
        &self.last_report
    }

    fn output(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        input: &Matrix,
        train: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        // All m bucket columns run as one conv batch: row j of the conv
        // input is bucket j's column viewed as an n × 1 image.
        let batched = Matrix::from_fn(self.m, self.n, |j, e| input[(e, j)]);
        let mut x = tape.constant(batched);
        for layer in &self.layers {
            let k = tape.param(store, layer.kernel);
            let b = tape.param(store, layer.bias);
            let spec = ConvSpec {
                batch: self.m,
                in_ch: layer.in_ch,
                out_ch: layer.out_ch,
                h: layer.in_h,
                w: 1,
                kh: layer.kh,
                kw: 1,
            };
            x = tape.conv2d(x, k, b, spec);
            x = tape.tanh(x);
            if layer.pool > 1 {
                x = tape.max_pool2d(
                    x,
                    PoolSpec {
                        batch: self.m,
                        ch: layer.out_ch,
                        h: layer.in_h,
                        w: 1,
                        ph: layer.pool,
                        pw: 1,
                    },
                );
            }
        }
        let last = self.layers.last().expect("non-empty");
        let flat_len = last.out_h * last.out_ch;
        // (m·ch, h_f) row-major reinterpreted as (m, ch·h_f): one feature
        // row per bucket, decoded by the shared FC in a single matmul.
        let mut flat = tape.reshape(x, self.m, flat_len);
        if train && self.cfg.dropout > 0.0 {
            let mask = dropout_mask(rng, self.m, flat_len, self.cfg.dropout);
            flat = tape.dropout(flat, mask);
        }
        let rows = self.fc.apply(tape, store, flat); // (m, n)
        let z = tape.transpose(rows); // (n, m)
        match self.cfg.output {
            OutputKind::Histogram => tape.softmax_rows(z),
            OutputKind::Average => {
                let ones = tape.constant(Matrix::filled(self.m, 1, 1.0 / self.m as f64));
                let mean = tape.matmul(z, ones);
                tape.sigmoid(mean)
            }
        }
    }

    fn sample_loss(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        sample: &TrainSample,
        rng: &mut StdRng,
    ) -> NodeId {
        let (input, flags) = gcwc::task::corrupt_input_pooled(
            &sample.input,
            &sample.context.row_flags,
            self.cfg.row_dropout,
            rng,
            tape.pool_mut(),
        );
        let pred = self.output(tape, store, &input, true, rng);
        tape.pool_mut().give(input);
        tape.pool_mut().give_vec(flags);
        match self.cfg.output {
            OutputKind::Histogram => {
                tape.kl_loss_masked(pred, sample.label.clone(), sample.label_mask.clone(), LOSS_EPS)
            }
            OutputKind::Average => {
                let mask = Matrix::from_vec(sample.label_mask.len(), 1, sample.label_mask.clone());
                tape.mse_masked(pred, sample.label.clone(), mask)
            }
        }
    }
}

impl CompletionModel for CnnModel {
    fn name(&self) -> String {
        "CNN".to_owned()
    }

    fn fit(&mut self, samples: &[TrainSample]) {
        let mut rng = seeded(self.rng.random());
        let mut store = std::mem::take(&mut self.store);
        let this: &Self = self;
        let report = run_training(
            &mut store,
            this.cfg.optim,
            this.cfg.epochs,
            this.cfg.batch_size,
            samples,
            &mut rng,
            &TrainControl::default(),
            |tape, store, sample, rng| this.sample_loss(tape, store, sample, rng),
        );
        self.store = store;
        self.last_report = report.unwrap_or_else(|e| panic!("CNN training failed: {e}"));
    }

    fn predict(&self, sample: &TrainSample) -> Matrix {
        let mut tape = Tape::new();
        let mut rng = seeded(0);
        let out = self.output(&mut tape, &self.store, &sample.input, false, &mut rng);
        tape.value(out).clone()
    }

    fn num_params(&self) -> usize {
        self.store.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcwc::{build_samples, TaskKind};
    use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};

    fn setup() -> Vec<TrainSample> {
        let hw = generators::highway_tollgate(1);
        let sim = SimConfig {
            days: 1,
            intervals_per_day: 24,
            records_per_interval: 10.0,
            ..Default::default()
        };
        let data = simulate(&hw, HistogramSpec::hist8(), &sim);
        let ds = data.to_dataset(0.5, 5, 3);
        let idx: Vec<usize> = (0..ds.len()).collect();
        build_samples(&ds, &idx, TaskKind::Estimation, 0)
    }

    #[test]
    fn fit_reduces_loss_and_outputs_histograms() {
        let samples = setup();
        let cfg = ModelConfig::hw_hist().with_epochs(6);
        let mut cnn = CnnModel::new(24, 8, cfg, 42);
        cnn.fit(&samples);
        let losses = &cnn.last_report().epoch_losses;
        assert!(losses.last().unwrap() < &losses[0], "losses {losses:?}");
        let pred = cnn.predict(&samples[0]);
        assert_eq!(pred.shape(), (24, 8));
        for i in 0..24 {
            assert!((pred.row(i).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn param_count_close_to_gcwc() {
        // The paper stresses CNN and GCWC have comparable #Para
        // (Table III); our shared-FC construction makes them equal up to
        // the conv parameterisation.
        let hw = generators::highway_tollgate(1);
        let cnn = CnnModel::new(24, 8, ModelConfig::hw_hist(), 1);
        let gcwc = gcwc::GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist(), 1);
        let (a, b) = (cnn.num_params() as f64, gcwc.num_params() as f64);
        assert!((a / b - 1.0).abs() < 0.3, "CNN {a} vs GCWC {b}");
    }
}
