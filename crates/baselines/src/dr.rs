//! DR baseline (§VI-A.5, baseline 6): diffusion convolutional recurrent
//! neural network (Li et al., ICLR'18 \[19\]).
//!
//! A GRU whose matrix multiplications are replaced by diffusion
//! convolutions over random-walk powers of the edge graph, consuming the
//! sequence of preceding weight matrices and emitting the completed
//! matrix for the target interval. This is the state of the art for
//! deterministic traffic prediction with dense data; the paper shows it
//! propagates well on small graphs but weakens on large ones and under
//! sparseness.

use std::sync::Arc;

use gcwc::model::gcwc::LOSS_EPS;
use gcwc::train::{run_training, TrainControl, TrainReport};
use gcwc::{CompletionModel, OutputKind, TrainSample};
use gcwc_graph::{EdgeGraph, PolyBasis, RandomWalkBasis};
use gcwc_linalg::rng::seeded;
use gcwc_linalg::Matrix;
use gcwc_nn::{Dense, NodeId, OptimConfig, ParamId, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration of the DR baseline.
#[derive(Clone, Copy, Debug)]
pub struct DrConfig {
    /// GRU hidden units per node.
    pub hidden: usize,
    /// Diffusion order `K` (taps `I, P, …, P^{K−1}`).
    pub diffusion_order: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimiser settings.
    pub optim: OptimConfig,
}

impl Default for DrConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            diffusion_order: 3,
            epochs: 25,
            batch_size: 20,
            optim: OptimConfig {
                learning_rate: 6.4e-3,
                lr_decay: 0.97,
                weight_decay: 0.001,
                grad_clip: 5.0,
            },
        }
    }
}

/// One diffusion-convolutional gate: `σ/tanh(Σ_k P^k [X|H] Θ_k + b)`.
struct Gate {
    thetas: Vec<ParamId>,
    bias: ParamId,
}

impl Gate {
    fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        k: usize,
        input: usize,
        hidden: usize,
    ) -> Self {
        let thetas = (0..k)
            .map(|t| {
                store.add(
                    format!("{name}.theta{t}"),
                    gcwc_nn::init::glorot_uniform(rng, input, hidden),
                )
            })
            .collect();
        let bias = store.add(format!("{name}.bias"), Matrix::zeros(1, hidden));
        Self { thetas, bias }
    }

    fn apply(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: NodeId,
        basis: &Arc<dyn PolyBasis>,
    ) -> NodeId {
        let thetas: Vec<NodeId> = self.thetas.iter().map(|&t| tape.param(store, t)).collect();
        let conv = tape.poly_conv(x, &thetas, Arc::clone(basis));
        let bias = tape.param(store, self.bias);
        tape.add_row_broadcast(conv, bias)
    }
}

/// The diffusion convolutional recurrent model.
pub struct DrModel {
    store: ParamStore,
    basis: Arc<dyn PolyBasis>,
    gate_r: Gate,
    gate_u: Gate,
    gate_c: Gate,
    out_fc: Dense,
    cfg: DrConfig,
    output: OutputKind,
    n: usize,
    rng: StdRng,
    last_report: TrainReport,
}

impl DrModel {
    /// Creates an untrained DR model over `graph` with `m` buckets.
    pub fn new(graph: &EdgeGraph, m: usize, output: OutputKind, cfg: DrConfig, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let mut store = ParamStore::new();
        let n = graph.num_nodes();
        let basis: Arc<dyn PolyBasis> =
            Arc::new(RandomWalkBasis::from_adjacency(graph.adjacency(), cfg.diffusion_order));
        let input = m + cfg.hidden;
        let gate_r =
            Gate::new(&mut store, &mut rng, "dr.r", cfg.diffusion_order, input, cfg.hidden);
        let gate_u =
            Gate::new(&mut store, &mut rng, "dr.u", cfg.diffusion_order, input, cfg.hidden);
        let gate_c =
            Gate::new(&mut store, &mut rng, "dr.c", cfg.diffusion_order, input, cfg.hidden);
        let out_dim = match output {
            OutputKind::Histogram => m,
            OutputKind::Average => 1,
        };
        let out_fc = Dense::new(&mut store, &mut rng, "dr.out", cfg.hidden, out_dim);
        Self {
            store,
            basis,
            gate_r,
            gate_u,
            gate_c,
            out_fc,
            cfg,
            output,
            n,
            rng,
            last_report: TrainReport::default(),
        }
    }

    /// Training report of the last fit.
    pub fn last_report(&self) -> &TrainReport {
        &self.last_report
    }

    /// Runs the DCGRU over the sample's history plus current input and
    /// decodes the final hidden state.
    fn output_node(&self, tape: &mut Tape, store: &ParamStore, sample: &TrainSample) -> NodeId {
        let mut h = tape.constant(Matrix::zeros(self.n, self.cfg.hidden));
        let ones = tape.constant(Matrix::filled(self.n, self.cfg.hidden, 1.0));
        let steps: Vec<&Matrix> =
            sample.history.iter().chain(std::iter::once(&sample.input)).collect();
        for x in steps {
            let xn = tape.constant(x.clone());
            let cat = tape.hstack(&[xn, h]);
            let r_pre = self.gate_r.apply(tape, store, cat, &self.basis);
            let r = tape.sigmoid(r_pre);
            let u_pre = self.gate_u.apply(tape, store, cat, &self.basis);
            let u = tape.sigmoid(u_pre);
            let rh = tape.mul(r, h);
            let cat2 = tape.hstack(&[xn, rh]);
            let c_pre = self.gate_c.apply(tape, store, cat2, &self.basis);
            let c = tape.tanh(c_pre);
            let uh = tape.mul(u, h);
            let one_minus_u = tape.sub(ones, u);
            let uc = tape.mul(one_minus_u, c);
            h = tape.add(uh, uc);
        }
        let z = self.out_fc.apply(tape, store, h); // (n, out_dim)
        match self.output {
            OutputKind::Histogram => tape.softmax_rows(z),
            OutputKind::Average => tape.sigmoid(z),
        }
    }

    fn sample_loss(&self, tape: &mut Tape, store: &ParamStore, sample: &TrainSample) -> NodeId {
        let pred = self.output_node(tape, store, sample);
        match self.output {
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

impl CompletionModel for DrModel {
    fn name(&self) -> String {
        "DR".to_owned()
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
            |tape, store, sample, _| this.sample_loss(tape, store, sample),
        );
        self.store = store;
        self.last_report = report.unwrap_or_else(|e| panic!("DR training failed: {e}"));
    }

    fn predict(&self, sample: &TrainSample) -> Matrix {
        let mut tape = Tape::new();
        let out = self.output_node(&mut tape, &self.store, sample);
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

    fn setup() -> (gcwc_traffic::NetworkInstance, Vec<TrainSample>) {
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
        (hw, build_samples(&ds, &idx, TaskKind::Estimation, 3))
    }

    #[test]
    fn fit_reduces_loss_and_outputs_histograms() {
        let (hw, samples) = setup();
        let cfg = DrConfig { epochs: 6, ..Default::default() };
        let mut dr = DrModel::new(&hw.graph, 8, OutputKind::Histogram, cfg, 42);
        dr.fit(&samples);
        let losses = &dr.last_report().epoch_losses;
        assert!(losses.last().unwrap() < &losses[0], "losses {losses:?}");
        let pred = dr.predict(&samples[0]);
        assert_eq!(pred.shape(), (24, 8));
        for i in 0..24 {
            assert!((pred.row(i).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn history_affects_prediction() {
        let (hw, samples) = setup();
        let cfg = DrConfig { epochs: 4, ..Default::default() };
        let mut dr = DrModel::new(&hw.graph, 8, OutputKind::Histogram, cfg, 7);
        dr.fit(&samples[..12]);
        let mut altered = samples[5].clone();
        altered.history = vec![Matrix::zeros(24, 8); 3];
        let a = dr.predict(&samples[5]);
        let b = dr.predict(&altered);
        assert_ne!(a, b, "the recurrent state must depend on history");
    }

    #[test]
    fn average_head_outputs_column() {
        let (hw, _) = setup();
        let cfg = DrConfig { epochs: 2, ..Default::default() };
        let hw2 = generators::highway_tollgate(1);
        let sim = SimConfig { days: 1, intervals_per_day: 12, ..Default::default() };
        let data = simulate(&hw2, HistogramSpec::hist8(), &sim);
        let ds = data.to_dataset(0.5, 5, 3);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Average, 3);
        let mut dr = DrModel::new(&hw.graph, 8, OutputKind::Average, cfg, 1);
        dr.fit(&samples);
        let pred = dr.predict(&samples[0]);
        assert_eq!(pred.shape(), (24, 1));
        assert!(pred.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
