//! The shared graph-convolutional encoder/decoder of GCWC and A-GCWC
//! (paper §IV).
//!
//! Per bucket column `w_{·j}` of the input matrix, the encoder applies a
//! stack of Chebyshev graph convolutions with tanh activations and graph
//! max-pooling over Graclus clusters (the auto-encoder's *encoding*),
//! then a fully connected decoder shared across buckets maps the pooled
//! features back to one value per edge (the *decoding*). Assembling the
//! per-bucket outputs yields the logit matrix `Z ∈ R^{n×m}`.

use std::sync::Arc;

use gcwc_graph::{ConvPlan, EdgeGraph, PolyBasis, PoolingMap, StageSpec};
use gcwc_linalg::Matrix;
use gcwc_nn::{Dense, NodeId, ParamId, ParamStore, Tape};
use rand::rngs::StdRng;

use crate::config::{ModelConfig, OutputKind};
use crate::infer::InferWorkspace;

/// One graph-convolution stage with its basis, filters and pooling map.
struct EncoderLayer {
    basis: Arc<dyn PolyBasis>,
    /// `thetas[k]` is the `c_in × c_out` mixing matrix of tap `k`.
    thetas: Vec<ParamId>,
    bias: ParamId,
    pool: Option<Arc<PoolingMap>>,
    out_nodes: usize,
    out_filters: usize,
}

/// The graph-convolutional encoder + per-bucket FC decoder.
pub struct Encoder {
    layers: Vec<EncoderLayer>,
    fc: Dense,
    n: usize,
    m: usize,
    dropout: f64,
    output: OutputKind,
}

impl Encoder {
    /// Builds the encoder for `graph` with `m` histogram buckets.
    pub fn new(
        graph: &EdgeGraph,
        m: usize,
        cfg: &ModelConfig,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Self {
        let n = graph.num_nodes();
        // The (basis, pooling) ladder is built by the shared ConvPlan
        // constructor; only the parameters are created here, in the
        // same order as before, so the RNG stream and checkpoint
        // layout are unchanged.
        let specs: Vec<StageSpec> = cfg
            .conv_layers
            .iter()
            .map(|lc| StageSpec { cheb_order: lc.cheb_order, pool: lc.pool })
            .collect();
        let plan = ConvPlan::build(graph.adjacency(), &specs);
        let mut c_in = 1usize;
        let mut layers = Vec::with_capacity(cfg.conv_layers.len());
        for ((li, lc), stage) in cfg.conv_layers.iter().enumerate().zip(plan.into_stages()) {
            let thetas = (0..lc.cheb_order)
                .map(|k| {
                    store.add(
                        format!("conv{li}.theta{k}"),
                        gcwc_nn::init::glorot_uniform(rng, c_in, lc.filters),
                    )
                })
                .collect();
            let bias = store.add(format!("conv{li}.bias"), Matrix::zeros(1, lc.filters));
            let basis: Arc<dyn PolyBasis> = stage.basis;
            layers.push(EncoderLayer {
                basis,
                thetas,
                bias,
                pool: stage.pool,
                out_nodes: stage.out_nodes,
                out_filters: lc.filters,
            });
            c_in = lc.filters;
        }
        let last = layers.last().expect("at least one conv layer");
        let fc_in = last.out_nodes * last.out_filters;
        let fc = Dense::new(store, rng, "fc", fc_in, n);
        Self { layers, fc, n, m, dropout: cfg.dropout, output: cfg.output }
    }

    /// Number of edges `n`.
    pub fn num_edges(&self) -> usize {
        self.n
    }

    /// Number of buckets `m`.
    pub fn num_buckets(&self) -> usize {
        self.m
    }

    /// Output head kind.
    pub fn output_kind(&self) -> OutputKind {
        self.output
    }

    /// Computes the logit matrix `Z ∈ R^{n×m}` from an input weight
    /// matrix.
    ///
    /// All `m` bucket columns run through the conv stack in one batched
    /// pass (grouped graph convolutions with filters shared across
    /// buckets, exactly the paper's per-column filter application); the
    /// per-bucket FC decoder then maps each bucket's pooled features to
    /// `n` logits.
    pub fn logits(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        input: &Matrix,
        train: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        assert_eq!(input.shape(), (self.n, self.m), "input shape mismatch");
        // Group-major layout: group g (bucket g) holds c channels.
        let mut x = tape.constant_copied(input);
        for layer in &self.layers {
            let mut thetas = tape.take_id_buf();
            thetas.extend(layer.thetas.iter().map(|&t| tape.param(store, t)));
            x = tape.poly_conv_grouped(x, &thetas, Arc::clone(&layer.basis), self.m);
            tape.give_id_buf(thetas);
            let bias = tape.param(store, layer.bias);
            let tiled = tape.tile_cols(bias, self.m);
            x = tape.add_row_broadcast(x, tiled);
            x = tape.tanh(x);
            if let Some(pool) = &layer.pool {
                x = tape.graph_max_pool(x, Arc::clone(pool));
            }
        }
        // All m bucket groups share the decoder weight, so batch them
        // as rows of one matmul: the weight matrix is streamed once per
        // pass instead of once per bucket (it is far larger than the
        // activations, so this is the memory-bandwidth win). Row `g` of
        // the batched product equals the per-bucket FC exactly (matmul
        // computes each output row independently), and the row-major
        // dropout draws consume the RNG in the same order the
        // bucket-by-bucket loop did.
        let mut rows = tape.group_rows(x, self.m); // m × (nodes·f)
        if train && self.dropout > 0.0 {
            rows = tape.dropout_rng(rows, rng, self.dropout);
        }
        let dec = self.fc.apply(tape, store, rows); // m × n
        tape.transpose(dec) // n × m
    }

    /// The model head: row-softmax histograms (`n × m`) for HIST, or a
    /// sigmoid column of normalised speeds (`n × 1`) for AVG — the
    /// per-bucket logits are averaged before the sigmoid, per §VI-A.3.
    pub fn output(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        input: &Matrix,
        train: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let z = self.logits(tape, store, input, train, rng);
        match self.output {
            OutputKind::Histogram => tape.softmax_rows(z),
            OutputKind::Average => {
                // Mean over buckets -> n × 1 -> sigmoid.
                let ones = tape.constant_filled(self.m, 1, 1.0 / self.m as f64);
                let mean = tape.matmul(z, ones);
                tape.sigmoid(mean)
            }
        }
    }

    /// Output columns of the head (`m` for HIST, 1 for AVG).
    pub fn output_cols(&self) -> usize {
        match self.output {
            OutputKind::Histogram => self.m,
            OutputKind::Average => 1,
        }
    }

    /// Tape-free batched forward: `reqs` inputs hstacked into an
    /// `n × (reqs·m)` matrix run through the conv stack as `reqs·m`
    /// groups, then the head is applied per request into `outs`.
    ///
    /// Every kernel in the stack computes each group's column block
    /// independently with the same accumulation order as the
    /// single-request tape pass, so block `r` of the batch is
    /// bit-identical to running request `r` alone through
    /// [`Encoder::output`] in eval mode.
    pub(crate) fn infer_outputs(
        &self,
        store: &ParamStore,
        ws: &mut InferWorkspace,
        wide_input: &Matrix,
        reqs: usize,
        outs: &mut [Matrix],
    ) {
        use gcwc_nn::ops;
        assert_eq!(wide_input.shape(), (self.n, self.m * reqs), "batched input shape mismatch");
        assert!(outs.len() >= reqs, "missing output buffers");
        let groups = reqs * self.m;
        let InferWorkspace { pool, saved, argmax, .. } = ws;
        let mut x = pool.take_raw(self.n, groups);
        x.copy_from(wide_input);
        for layer in &self.layers {
            // Grouped polynomial convolution (shared filters).
            layer.basis.forward_pooled(&x, pool, saved);
            let mut conv = pool.take(x.rows(), groups * layer.out_filters);
            for (tx, &th) in saved.iter().zip(&layer.thetas) {
                ops::poly_conv_accumulate(tx, store.value(th), &mut conv, groups);
            }
            for tap in saved.drain(..) {
                pool.give(tap);
            }
            pool.give(x);
            x = conv;
            // Bias broadcast (tiled across bucket groups) + tanh.
            let bias = store.value(layer.bias);
            let mut tiled = pool.take_raw(1, layer.out_filters * groups);
            ops::tile_cols_into(bias, groups, &mut tiled);
            ops::add_row_broadcast_assign(&mut x, &tiled);
            pool.give(tiled);
            x.map_inplace(f64::tanh);
            if let Some(map) = &layer.pool {
                let c = x.cols();
                let mut pooled = pool.take_raw(map.num_outputs(), c);
                argmax.clear();
                argmax.resize(map.num_outputs() * c, 0);
                map.max_forward_into(&x, &mut pooled, argmax);
                pool.give(x);
                x = pooled;
            }
        }
        // Batched FC decoder over all groups (no dropout at eval).
        let (nodes, total) = x.shape();
        let c = total / groups;
        let mut rows = pool.take_raw(groups, nodes * c);
        ops::group_rows_into(&x, groups, &mut rows);
        pool.give(x);
        let w = store.value(self.fc.w);
        let b = store.value(self.fc.b);
        let mut dec = pool.take_raw(groups, w.cols()); // (reqs·m) × n
        rows.matmul_into(w, &mut dec);
        ops::add_row_broadcast_assign(&mut dec, b);
        pool.give(rows);
        // Per-request head on the request's m-row block of `dec`.
        let mut block = pool.take_raw(self.m, self.n);
        for (r, out) in outs.iter_mut().enumerate().take(reqs) {
            for i in 0..self.m {
                block.row_mut(i).copy_from_slice(dec.row(r * self.m + i));
            }
            match self.output {
                OutputKind::Histogram => {
                    assert_eq!(out.shape(), (self.n, self.m), "output buffer shape mismatch");
                    block.transpose_into(out);
                    ops::softmax_rows_in_place(out);
                }
                OutputKind::Average => {
                    assert_eq!(out.shape(), (self.n, 1), "output buffer shape mismatch");
                    let mut z = pool.take_raw(self.n, self.m);
                    block.transpose_into(&mut z);
                    let mut ones = pool.take_raw(self.m, 1);
                    ones.as_mut_slice().fill(1.0 / self.m as f64);
                    z.matmul_into(&ones, out);
                    out.map_inplace(|t| 1.0 / (1.0 + (-t).exp()));
                    pool.give(ones);
                    pool.give(z);
                }
            }
        }
        pool.give(block);
        pool.give(dec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcwc_linalg::rng::seeded;
    use gcwc_traffic::generators::highway_tollgate;

    fn encoder(output: OutputKind) -> (Encoder, ParamStore) {
        let hw = highway_tollgate(1);
        let mut cfg = ModelConfig::hw_hist();
        cfg.output = output;
        let mut store = ParamStore::new();
        let mut rng = seeded(3);
        let enc = Encoder::new(&hw.graph, 8, &cfg, &mut store, &mut rng);
        (enc, store)
    }

    #[test]
    fn histogram_output_is_row_stochastic() {
        let (enc, store) = encoder(OutputKind::Histogram);
        let mut tape = Tape::new();
        let mut rng = seeded(4);
        let input =
            Matrix::from_fn(24, 8, |i, j| if i < 12 { ((i + j) % 3) as f64 * 0.2 } else { 0.0 });
        let out = enc.output(&mut tape, &store, &input, false, &mut rng);
        let v = tape.value(out);
        assert_eq!(v.shape(), (24, 8));
        for i in 0..24 {
            let s: f64 = v.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
            assert!(v.row(i).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn average_output_is_unit_interval_column() {
        let (enc, store) = encoder(OutputKind::Average);
        let mut tape = Tape::new();
        let mut rng = seeded(5);
        let input = Matrix::from_fn(24, 8, |i, _| i as f64 * 0.01);
        let out = enc.output(&mut tape, &store, &input, false, &mut rng);
        let v = tape.value(out);
        assert_eq!(v.shape(), (24, 1));
        assert!(v.as_slice().iter().all(|&p| p > 0.0 && p < 1.0));
    }

    #[test]
    fn evaluation_forward_is_deterministic() {
        let (enc, store) = encoder(OutputKind::Histogram);
        let input = Matrix::from_fn(24, 8, |i, j| ((i * j) % 5) as f64 * 0.1);
        let run = |seed: u64| {
            let mut tape = Tape::new();
            let mut rng = seeded(seed);
            let out = enc.output(&mut tape, &store, &input, false, &mut rng);
            tape.value(out).clone()
        };
        assert_eq!(run(1), run(99), "eval mode must not depend on the RNG");
    }

    #[test]
    fn dropout_changes_training_forward() {
        let (enc, store) = encoder(OutputKind::Histogram);
        let input = Matrix::from_fn(24, 8, |i, j| ((i * j) % 5) as f64 * 0.1);
        let mut tape1 = Tape::new();
        let out1 = enc.output(&mut tape1, &store, &input, true, &mut seeded(1));
        let mut tape2 = Tape::new();
        let out2 = enc.output(&mut tape2, &store, &input, true, &mut seeded(2));
        assert_ne!(tape1.value(out1), tape2.value(out2));
    }

    #[test]
    fn zero_input_still_produces_valid_histograms() {
        // The degenerate all-missing matrix must not crash and must give
        // valid distributions (completion from pure bias).
        let (enc, store) = encoder(OutputKind::Histogram);
        let mut tape = Tape::new();
        let out = enc.output(&mut tape, &store, &Matrix::zeros(24, 8), false, &mut seeded(1));
        let v = tape.value(out);
        for i in 0..24 {
            assert!((v.row(i).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
