//! The context-aware A-GCWC model (paper §V): GCWC + context embedding
//! module (CP-CNNs) + Bayesian inference combination.

use gcwc_graph::EdgeGraph;
use gcwc_linalg::rng::seeded;
use gcwc_linalg::Matrix;
use gcwc_nn::{ops, ConvSpec, Dense, Embedding, NodeId, ParamStore, PoolSpec, Tape};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::{CpCnnConfig, ModelConfig, OutputKind};
use crate::infer::{InferRequest, InferWorkspace};
use crate::model::encoder::Encoder;
use crate::model::gcwc::LOSS_EPS;
use crate::task::{CompletionModel, TrainSample};
use crate::train::{run_training, TrainControl, TrainError, TrainReport};

/// ε guarding the Bayesian division (Eq. 10).
const BAYES_EPS: f64 = 1e-4;

/// The conditional-probability CNN of §V-B3
/// (`C2×2_4-P2-C2×2_8-P2-FC` in Table III), applied per context.
struct CpCnn {
    kernel1: gcwc_nn::ParamId,
    bias1: gcwc_nn::ParamId,
    kernel2: gcwc_nn::ParamId,
    bias2: gcwc_nn::ParamId,
    fc: Dense,
    beta: usize,
    m: usize,
    f1: usize,
    f2: usize,
}

/// Dimensions of the CP-CNN pipeline for maps of size `h × w`.
struct CpDims {
    kh1: usize,
    kw1: usize,
    h2: usize,
    w2: usize,
    kh2: usize,
    kw2: usize,
    h3: usize,
    w3: usize,
}

fn cp_dims(beta: usize, m: usize) -> CpDims {
    let (h1, w1) = (beta, m);
    let (kh1, kw1) = (2.min(h1), 2.min(w1));
    let (ph1, pw1) = (2.min(h1), 2.min(w1));
    let (h2, w2) = ((h1 / ph1).max(1), (w1 / pw1).max(1));
    let (kh2, kw2) = (2.min(h2), 2.min(w2));
    let (ph2, pw2) = (2.min(h2), 2.min(w2));
    let (h3, w3) = ((h2 / ph2).max(1), (w2 / pw2).max(1));
    CpDims { kh1, kw1, h2, w2, kh2, kw2, h3, w3 }
}

impl CpCnn {
    fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        beta: usize,
        m: usize,
        cfg: &CpCnnConfig,
    ) -> Self {
        let d = cp_dims(beta, m);
        let (f1, f2) = (cfg.filters1, cfg.filters2);
        let kernel1 = store
            .add(format!("{name}.conv1.k"), gcwc_nn::init::glorot_uniform(rng, f1, d.kh1 * d.kw1));
        let bias1 = store.add(format!("{name}.conv1.b"), Matrix::zeros(1, f1));
        let kernel2 = store.add(
            format!("{name}.conv2.k"),
            gcwc_nn::init::glorot_uniform(rng, f2, f1 * d.kh2 * d.kw2),
        );
        let bias2 = store.add(format!("{name}.conv2.b"), Matrix::zeros(1, f2));
        let fc = Dense::new(store, rng, &format!("{name}.fc"), f2 * d.h3 * d.w3, m);
        Self { kernel1, bias1, kernel2, bias2, fc, beta, m, f1, f2 }
    }

    /// Computes `P(Z|X_i)` from the context distribution `px ∈ R^{β×1}`
    /// and the GCWC output `pz ∈ R^{n×m}` (or `n × 1` for AVG).
    fn apply(&self, tape: &mut Tape, store: &ParamStore, px: NodeId, pz: NodeId) -> NodeId {
        let n = tape.value(pz).rows();
        let d = cp_dims(self.beta, self.m);
        let x = tape.batch_outer(px, pz); // (n, β·m)
        let k1 = tape.param(store, self.kernel1);
        let b1 = tape.param(store, self.bias1);
        let spec1 = ConvSpec {
            batch: n,
            in_ch: 1,
            out_ch: self.f1,
            h: self.beta,
            w: self.m,
            kh: d.kh1,
            kw: d.kw1,
        };
        let c1 = tape.conv2d(x, k1, b1, spec1);
        let a1 = tape.relu(c1);
        let p1 = tape.max_pool2d(
            a1,
            PoolSpec {
                batch: n,
                ch: self.f1,
                h: self.beta,
                w: self.m,
                ph: 2.min(self.beta),
                pw: 2.min(self.m),
            },
        );
        let k2 = tape.param(store, self.kernel2);
        let b2 = tape.param(store, self.bias2);
        let spec2 = ConvSpec {
            batch: n,
            in_ch: self.f1,
            out_ch: self.f2,
            h: d.h2,
            w: d.w2,
            kh: d.kh2,
            kw: d.kw2,
        };
        let c2 = tape.conv2d(p1, k2, b2, spec2);
        let a2 = tape.relu(c2);
        let p2 = tape.max_pool2d(
            a2,
            PoolSpec { batch: n, ch: self.f2, h: d.h2, w: d.w2, ph: 2.min(d.h2), pw: 2.min(d.w2) },
        );
        let flat = tape.reshape(p2, n, self.f2 * d.h3 * d.w3);
        self.fc.apply(tape, store, flat) // (n, m) logits
    }

    /// Tape-free equivalent of [`CpCnn::apply`]: writes the `n × m`
    /// conditional logits into `out` (fully overwritten), drawing every
    /// intermediate from the workspace pool. Bit-identical to the tape
    /// path — both call the shared kernels in [`gcwc_nn::ops`].
    fn infer_into(
        &self,
        store: &ParamStore,
        ws: &mut InferWorkspace,
        px: &Matrix,
        pz: &Matrix,
        out: &mut Matrix,
    ) {
        let n = pz.rows();
        let d = cp_dims(self.beta, self.m);
        let InferWorkspace { pool, argmax, .. } = ws;

        let mut x = pool.take_raw(n, self.beta * self.m);
        ops::batch_outer_into(px, pz, &mut x);

        let spec1 = ConvSpec {
            batch: n,
            in_ch: 1,
            out_ch: self.f1,
            h: self.beta,
            w: self.m,
            kh: d.kh1,
            kw: d.kw1,
        };
        let mut c1 = pool.take_raw(n * self.f1, self.beta * self.m);
        ops::conv2d_forward_into(
            &x,
            store.value(self.kernel1),
            store.value(self.bias1),
            &spec1,
            &mut c1,
        );
        pool.give(x);
        c1.map_inplace(|t| t.max(0.0));

        let pspec1 = PoolSpec {
            batch: n,
            ch: self.f1,
            h: self.beta,
            w: self.m,
            ph: 2.min(self.beta),
            pw: 2.min(self.m),
        };
        let mut p1 = pool.take_raw(n * self.f1, pspec1.out_h() * pspec1.out_w());
        argmax.clear();
        argmax.resize(n * self.f1 * pspec1.out_h() * pspec1.out_w(), 0);
        ops::maxpool2d_forward_into(&c1, &pspec1, &mut p1, argmax);
        pool.give(c1);

        let spec2 = ConvSpec {
            batch: n,
            in_ch: self.f1,
            out_ch: self.f2,
            h: d.h2,
            w: d.w2,
            kh: d.kh2,
            kw: d.kw2,
        };
        let mut c2 = pool.take_raw(n * self.f2, d.h2 * d.w2);
        ops::conv2d_forward_into(
            &p1,
            store.value(self.kernel2),
            store.value(self.bias2),
            &spec2,
            &mut c2,
        );
        pool.give(p1);
        c2.map_inplace(|t| t.max(0.0));

        let pspec2 =
            PoolSpec { batch: n, ch: self.f2, h: d.h2, w: d.w2, ph: 2.min(d.h2), pw: 2.min(d.w2) };
        let mut p2 = pool.take_raw(n * self.f2, d.h3 * d.w3);
        argmax.clear();
        argmax.resize(n * self.f2 * d.h3 * d.w3, 0);
        ops::maxpool2d_forward_into(&c2, &pspec2, &mut p2, argmax);
        pool.give(c2);

        // Reshape is a free reinterpretation of the row-major buffer.
        let flat = Matrix::from_vec(n, self.f2 * d.h3 * d.w3, p2.into_vec());
        flat.matmul_into(store.value(self.fc.w), out);
        ops::add_row_broadcast_assign(out, store.value(self.fc.b));
        pool.give(flat);
    }
}

/// Context-Aware Graph Convolutional Weight Completion.
pub struct AGcwcModel {
    store: ParamStore,
    encoder: Encoder,
    cfg: ModelConfig,
    time_emb: Embedding,
    day_emb: Embedding,
    row_fc: Dense,
    cp_time: CpCnn,
    cp_day: CpCnn,
    cp_row: CpCnn,
    rng: StdRng,
    last_report: TrainReport,
}

impl AGcwcModel {
    /// Creates an untrained A-GCWC model.
    ///
    /// `intervals_per_day` sets the vocabulary of the time-of-day
    /// embedding (α in §V-B1).
    pub fn new(
        graph: &EdgeGraph,
        m: usize,
        intervals_per_day: usize,
        cfg: ModelConfig,
        seed: u64,
    ) -> Self {
        let mut rng = seeded(seed);
        let mut store = ParamStore::new();
        let encoder = Encoder::new(graph, m, &cfg, &mut store, &mut rng);
        let beta = cfg.context_dim;
        let n = graph.num_nodes();
        let out_m = match cfg.output {
            OutputKind::Histogram => m,
            OutputKind::Average => 1,
        };
        let time_emb = Embedding::new(&mut store, &mut rng, "ctx.time", intervals_per_day, beta);
        let day_emb = Embedding::new(&mut store, &mut rng, "ctx.day", 7, beta);
        let row_fc = Dense::new(&mut store, &mut rng, "ctx.row", n, beta);
        let cp_time = CpCnn::new(&mut store, &mut rng, "cp.time", beta, out_m, &cfg.cp_cnn);
        let cp_day = CpCnn::new(&mut store, &mut rng, "cp.day", beta, out_m, &cfg.cp_cnn);
        let cp_row = CpCnn::new(&mut store, &mut rng, "cp.row", beta, out_m, &cfg.cp_cnn);
        Self {
            store,
            encoder,
            cfg,
            time_emb,
            day_emb,
            row_fc,
            cp_time,
            cp_day,
            cp_row,
            rng,
            last_report: TrainReport::default(),
        }
    }

    /// The training report of the last fit.
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

    /// Time-of-day vocabulary α of the context embedding.
    pub fn intervals_per_day(&self) -> usize {
        self.store.value(self.time_emb.table).rows()
    }

    /// Whitespace-free architecture token, written into checkpoint
    /// headers and validated on load. Includes the context vocabulary
    /// (α, β) and the context mask, since they change the served
    /// function even when the parameter shapes agree.
    pub fn arch_string(&self) -> String {
        let mask = self.cfg.context_mask;
        format!(
            "agcwc:n{}:m{}:a{}:b{}:mask{}{}{}:{}",
            self.encoder.num_edges(),
            self.encoder.num_buckets(),
            self.intervals_per_day(),
            self.cfg.context_dim,
            u8::from(mask[0]),
            u8::from(mask[1]),
            u8::from(mask[2]),
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

    /// `P(X_i)`: softmax over the embedded context, as a `β × 1` column.
    fn context_distribution(&self, tape: &mut Tape, raw: NodeId) -> NodeId {
        let sm = tape.softmax_rows(raw); // 1 × β
        tape.transpose(sm) // β × 1
    }

    /// Full forward pass producing `W̃` (Eq. 10).
    ///
    /// During training, denoising augmentation re-masks observed input
    /// rows (and the `X_R` row flags along with them).
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        sample: &TrainSample,
        train: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let row_dropout = if train { self.cfg.row_dropout } else { 0.0 };
        let (input, row_flags) = crate::task::corrupt_input_pooled(
            &sample.input,
            &sample.context.row_flags,
            row_dropout,
            rng,
            tape.pool_mut(),
        );
        // Basic GCWC output P(Z).
        let pz = self.encoder.output(tape, store, &input, train, rng);
        tape.pool_mut().give(input);

        // Context distributions.
        let t_raw = self.time_emb.lookup(tape, store, sample.context.time_of_day);
        let p_t = self.context_distribution(tape, t_raw);
        let d_raw = self.day_emb.lookup(tape, store, sample.context.day_of_week);
        let p_d = self.context_distribution(tape, d_raw);
        let flags = tape.constant_row(&row_flags);
        tape.pool_mut().give_vec(row_flags);
        let r_raw = self.row_fc.apply(tape, store, flags);
        let p_r = self.context_distribution(tape, r_raw);

        // Per-context conditionals P(Z|X_i), restricted to the enabled
        // contexts (the paper enables all three; ablations use subsets).
        // Fixed-capacity storage: at most three contexts, no heap use.
        let mask = self.cfg.context_mask;
        let mut conditionals = [None; 3];
        let mut n_ctx = 0usize;
        if mask[0] {
            conditionals[n_ctx] = Some(self.cp_time.apply(tape, store, p_t, pz));
            n_ctx += 1;
        }
        if mask[1] {
            conditionals[n_ctx] = Some(self.cp_day.apply(tape, store, p_d, pz));
            n_ctx += 1;
        }
        if mask[2] {
            conditionals[n_ctx] = Some(self.cp_row.apply(tape, store, p_r, pz));
            n_ctx += 1;
        }
        if n_ctx == 0 {
            return pz; // no contexts: A-GCWC degenerates to GCWC
        }
        let conditionals = conditionals.iter().flatten().copied();

        match self.cfg.output {
            OutputKind::Histogram => {
                // Eq. 9: ∏ P(Z|X_i) / P(Z)^(N−1), then row normalisation.
                let mut num: Option<NodeId> = None;
                for z in conditionals {
                    let c = tape.softmax_rows(z);
                    num = Some(match num {
                        None => c,
                        Some(acc) => tape.mul(acc, c),
                    });
                }
                let num = num.expect("non-empty");
                let mut den = pz;
                for _ in 2..n_ctx {
                    den = tape.mul(den, pz);
                }
                let out = if n_ctx >= 2 { tape.div_eps(num, den, BAYES_EPS) } else { num };
                tape.normalize_rows(out, 1e-12)
            }
            OutputKind::Average => {
                // Scalar outputs: combine in log space and squash with a
                // sigmoid (the paper replaces the Eq. 10 normalisation by
                // a sigmoid for the AVG functionality, §VI-A.3).
                let mut sum: Option<NodeId> = None;
                for z in conditionals {
                    let sgm = tape.sigmoid(z);
                    let lg = tape.log_eps(sgm, LOSS_EPS);
                    sum = Some(match sum {
                        None => lg,
                        Some(acc) => tape.add(acc, lg),
                    });
                }
                let sum = sum.expect("non-empty");
                let l_z = tape.log_eps(pz, LOSS_EPS);
                let den = tape.scale(l_z, (n_ctx as f64) - 1.0);
                let logit = tape.sub(sum, den);
                tape.sigmoid(logit)
            }
        }
    }

    /// `P(X_i)` for an embedded context, tape-free: softmax of the
    /// embedding-table row as a pooled `β × 1` column.
    fn infer_embedding_col(&self, ws: &mut InferWorkspace, emb: &Embedding, idx: usize) -> Matrix {
        let table = self.store.value(emb.table);
        let beta = table.cols();
        let mut raw = ws.pool.take_raw(1, beta);
        raw.row_mut(0).copy_from_slice(table.row(idx));
        ops::softmax_rows_in_place(&mut raw);
        let mut col = ws.pool.take_raw(beta, 1);
        raw.transpose_into(&mut col);
        ws.pool.give(raw);
        col
    }

    /// `P(X_R)` from the per-edge coverage flags, tape-free.
    fn infer_row_col(&self, ws: &mut InferWorkspace, flags: &[f64]) -> Matrix {
        let w = self.store.value(self.row_fc.w);
        let b = self.store.value(self.row_fc.b);
        assert_eq!(flags.len(), w.rows(), "row-flag length mismatch");
        let mut fl = ws.pool.take_raw(1, flags.len());
        fl.row_mut(0).copy_from_slice(flags);
        let mut raw = ws.pool.take_raw(1, w.cols());
        fl.matmul_into(w, &mut raw);
        ops::add_row_broadcast_assign(&mut raw, b);
        ws.pool.give(fl);
        ops::softmax_rows_in_place(&mut raw);
        let mut col = ws.pool.take_raw(w.cols(), 1);
        raw.transpose_into(&mut col);
        ws.pool.give(raw);
        col
    }

    /// Tape-free batched inference: runs `count` requests (provided by
    /// `req`, indexed `0..count`) through one coalesced base-GCWC pass,
    /// then applies each request's context module and Bayesian
    /// combination (Eq. 9/10), writing request `r`'s completed matrix
    /// into `outs[r]` (pre-shaped `n × output_cols`). Bit-identical per
    /// request to [`CompletionModel::predict`]; allocation-free once
    /// `ws` is warm.
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
        let out_cols = self.encoder.output_cols();
        assert!(outs.len() >= count, "missing output buffers");

        // Batched base pass: P(Z) for every request in one forward.
        let mut wide = ws.pool.take_raw(n, count * m);
        for r in 0..count {
            let rq = req(r);
            assert_eq!(rq.input.shape(), (n, m), "request input shape mismatch");
            assert_eq!(rq.row_flags.len(), n, "row-flag length mismatch");
            for i in 0..n {
                wide.row_mut(i)[r * m..(r + 1) * m].copy_from_slice(rq.input.row(i));
            }
        }
        // The per-request P(Z) buffers live in the workspace between
        // calls; move them out so the workspace can be re-borrowed.
        let mut pzs = std::mem::take(&mut ws.scratch);
        for slot in pzs.iter_mut() {
            if slot.shape() != (n, out_cols) {
                let stale = std::mem::replace(slot, ws.pool.take_raw(n, out_cols));
                ws.pool.give(stale);
            }
        }
        while pzs.len() < count {
            let fresh = ws.pool.take_raw(n, out_cols);
            pzs.push(fresh);
        }
        self.encoder.infer_outputs(&self.store, ws, &wide, count, &mut pzs[..count]);
        ws.pool.give(wide);

        let mask = self.cfg.context_mask;
        let n_ctx = mask.iter().filter(|&&b| b).count();
        for r in 0..count {
            let rq = req(r);
            let pz = &pzs[r];
            let out = &mut outs[r];
            assert_eq!(out.shape(), (n, out_cols), "output buffer shape mismatch");
            if n_ctx == 0 {
                out.copy_from(pz); // no contexts: degenerates to GCWC
                continue;
            }

            // Conditionals P(Z|X_i) for the enabled contexts, in the
            // same order as the tape forward: time, day, row.
            let mut conds: [Option<Matrix>; 3] = [None, None, None];
            let mut k = 0usize;
            if mask[0] {
                let px = self.infer_embedding_col(ws, &self.time_emb, rq.time_of_day);
                let mut c = ws.pool.take_raw(n, out_cols);
                self.cp_time.infer_into(&self.store, ws, &px, pz, &mut c);
                ws.pool.give(px);
                conds[k] = Some(c);
                k += 1;
            }
            if mask[1] {
                let px = self.infer_embedding_col(ws, &self.day_emb, rq.day_of_week);
                let mut c = ws.pool.take_raw(n, out_cols);
                self.cp_day.infer_into(&self.store, ws, &px, pz, &mut c);
                ws.pool.give(px);
                conds[k] = Some(c);
                k += 1;
            }
            if mask[2] {
                let px = self.infer_row_col(ws, rq.row_flags);
                let mut c = ws.pool.take_raw(n, out_cols);
                self.cp_row.infer_into(&self.store, ws, &px, pz, &mut c);
                ws.pool.give(px);
                conds[k] = Some(c);
            }

            match self.cfg.output {
                OutputKind::Histogram => {
                    // Eq. 9: ∏ P(Z|X_i) / P(Z)^(N−1), then normalise.
                    let mut num: Option<Matrix> = None;
                    for slot in conds.iter_mut() {
                        let Some(mut c) = slot.take() else { continue };
                        ops::softmax_rows_in_place(&mut c);
                        num = Some(match num {
                            None => c,
                            Some(mut acc) => {
                                acc.zip_assign(&c, |x, y| x * y);
                                ws.pool.give(c);
                                acc
                            }
                        });
                    }
                    let mut num = num.expect("non-empty");
                    if n_ctx >= 2 {
                        let mut den = ws.pool.take_raw(n, out_cols);
                        den.copy_from(pz);
                        for _ in 2..n_ctx {
                            den.zip_assign(pz, |x, y| x * y);
                        }
                        num.zip_assign(&den, |x, y| x / (y + BAYES_EPS));
                        ws.pool.give(den);
                    }
                    ops::normalize_rows_in_place(&mut num, 1e-12);
                    out.copy_from(&num);
                    ws.pool.give(num);
                }
                OutputKind::Average => {
                    // Log-space combination squashed by a sigmoid, as in
                    // the tape forward.
                    let mut sum: Option<Matrix> = None;
                    for slot in conds.iter_mut() {
                        let Some(mut c) = slot.take() else { continue };
                        c.map_inplace(|t| 1.0 / (1.0 + (-t).exp()));
                        c.map_inplace(|t| (t + LOSS_EPS).ln());
                        sum = Some(match sum {
                            None => c,
                            Some(mut acc) => {
                                acc.zip_assign(&c, |x, y| x + y);
                                ws.pool.give(c);
                                acc
                            }
                        });
                    }
                    let mut sum = sum.expect("non-empty");
                    let mut lz = ws.pool.take_raw(n, out_cols);
                    lz.copy_from(pz);
                    lz.map_inplace(|t| (t + LOSS_EPS).ln());
                    let s = (n_ctx as f64) - 1.0;
                    lz.map_inplace(|t| t * s);
                    sum.zip_assign(&lz, |x, y| x - y);
                    ws.pool.give(lz);
                    sum.map_inplace(|t| 1.0 / (1.0 + (-t).exp()));
                    out.copy_from(&sum);
                    ws.pool.give(sum);
                }
            }
        }
        ws.scratch = pzs;
    }

    /// Single-request convenience wrapper over [`AGcwcModel::infer_into`];
    /// the returned matrix comes from the workspace pool (return it with
    /// [`InferWorkspace::give`] for reuse).
    pub fn infer(
        &self,
        ws: &mut InferWorkspace,
        input: &Matrix,
        time_of_day: usize,
        day_of_week: usize,
        row_flags: &[f64],
    ) -> Matrix {
        let mut out = ws.take(self.num_edges(), self.output_cols());
        let rq = InferRequest { input, time_of_day, day_of_week, row_flags };
        self.infer_into(ws, 1, |_| rq, std::slice::from_mut(&mut out));
        out
    }

    fn sample_loss(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        sample: &TrainSample,
        rng: &mut StdRng,
    ) -> NodeId {
        let pred = self.forward(tape, store, sample, true, rng);
        match self.cfg.output {
            OutputKind::Histogram => {
                tape.kl_loss_masked_ref(pred, &sample.label, &sample.label_mask, LOSS_EPS)
            }
            OutputKind::Average => tape.mse_masked_rows(pred, &sample.label, &sample.label_mask),
        }
    }
}

impl AGcwcModel {
    /// Fallible training with explicit robustness controls (divergence
    /// guard + optional checkpoint-and-resume); see
    /// [`GcwcModel::try_fit`](crate::GcwcModel::try_fit).
    pub fn try_fit(
        &mut self,
        samples: &[TrainSample],
        control: &TrainControl,
    ) -> Result<(), TrainError> {
        let mut rng = seeded(self.rng.random());
        // `run_training` needs `&mut self.store` while the
        // closure reads the rest of `self`; move the store out for the
        // duration.
        let mut store = std::mem::take(&mut self.store);
        let this: &Self = self;
        let report = run_training(
            &mut store,
            this.cfg.optim,
            this.cfg.epochs,
            this.cfg.batch_size,
            samples,
            &mut rng,
            control,
            |tape, store, sample, rng| this.sample_loss(tape, store, sample, rng),
        );
        self.store = store;
        self.last_report = report?;
        Ok(())
    }

    /// Warm-start fine-tuning under `plan`'s epoch count and scaled
    /// learning rate; see [`GcwcModel::fine_tune`](crate::GcwcModel::fine_tune).
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

impl CompletionModel for AGcwcModel {
    fn name(&self) -> String {
        "A-GCWC".to_owned()
    }

    fn fit(&mut self, samples: &[TrainSample]) {
        self.try_fit(samples, &TrainControl::default())
            .unwrap_or_else(|e| panic!("A-GCWC training failed: {e}"));
    }

    fn predict(&self, sample: &TrainSample) -> Matrix {
        let mut tape = Tape::new();
        let mut rng = seeded(0);
        let out = self.forward(&mut tape, &self.store, sample, false, &mut rng);
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
    fn fit_reduces_loss_and_outputs_valid_histograms() {
        let (hw, ds) = tiny_setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        let cfg = ModelConfig::hw_hist().with_epochs(6);
        let mut model = AGcwcModel::new(&hw.graph, 8, 16, cfg, 42);
        model.fit(&samples);
        let losses = &model.last_report().epoch_losses;
        assert!(losses.last().unwrap() < &losses[0], "loss should drop: {losses:?}");
        let pred = model.predict(&samples[0]);
        assert_eq!(pred.shape(), (24, 8));
        for i in 0..24 {
            let s: f64 = pred.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
            assert!(pred.row(i).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn has_more_params_than_gcwc() {
        let (hw, _) = tiny_setup();
        let gcwc = crate::model::gcwc::GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist(), 1);
        let agcwc = AGcwcModel::new(&hw.graph, 8, 96, ModelConfig::hw_hist(), 1);
        assert!(agcwc.num_params() > gcwc.num_params());
        // The context module is small relative to the base model
        // (Table III: ~1k extra parameters).
        assert!(agcwc.num_params() < gcwc.num_params() + 3_000);
    }

    #[test]
    fn average_variant_outputs_unit_column() {
        let (hw, ds) = tiny_setup();
        let idx: Vec<usize> = (0..10).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Average, 0);
        let cfg = ModelConfig::hw_avg().with_epochs(3);
        let mut model = AGcwcModel::new(&hw.graph, 8, 16, cfg, 9);
        model.fit(&samples);
        let pred = model.predict(&samples[0]);
        assert_eq!(pred.shape(), (24, 1));
        assert!(pred.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn empty_context_mask_degenerates_to_base_output() {
        let (hw, ds) = tiny_setup();
        let idx: Vec<usize> = (0..6).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        let mut cfg = ModelConfig::hw_hist().with_epochs(2);
        cfg.context_mask = [false, false, false];
        let mut model = AGcwcModel::new(&hw.graph, 8, 16, cfg, 3);
        model.fit(&samples);
        // With no contexts the Bayesian module is bypassed: predictions
        // are the base GCWC softmax, and contexts no longer matter.
        let mut other = samples[0].clone();
        other.context.time_of_day = (samples[0].context.time_of_day + 5) % 16;
        other.context.day_of_week = 6;
        assert_eq!(model.predict(&samples[0]), model.predict(&other));
    }

    #[test]
    fn single_context_mask_trains_and_predicts() {
        let (hw, ds) = tiny_setup();
        let idx: Vec<usize> = (0..6).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        for mask in [[true, false, false], [false, true, false], [false, false, true]] {
            let mut cfg = ModelConfig::hw_hist().with_epochs(2);
            cfg.context_mask = mask;
            let mut model = AGcwcModel::new(&hw.graph, 8, 16, cfg, 4);
            model.fit(&samples);
            let pred = model.predict(&samples[0]);
            for i in 0..24 {
                let s: f64 = pred.row(i).iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "mask {mask:?} row {i} sums to {s}");
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        let (hw, ds) = tiny_setup();
        let idx: Vec<usize> = (0..6).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        let cfg = ModelConfig::hw_hist().with_epochs(2);
        let mut model = AGcwcModel::new(&hw.graph, 8, 16, cfg.clone(), 8);
        model.fit(&samples);
        let expected = model.predict(&samples[1]);
        let dir = std::env::temp_dir().join("gcwc_agcwc_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agcwc.ckpt");
        model.save(&path).unwrap();
        let mut restored = AGcwcModel::new(&hw.graph, 8, 16, cfg, 12345);
        restored.load(&path).unwrap();
        assert_eq!(restored.predict(&samples[1]), expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn different_contexts_change_predictions() {
        let (hw, ds) = tiny_setup();
        let idx: Vec<usize> = (0..10).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        let cfg = ModelConfig::hw_hist().with_epochs(4);
        let mut model = AGcwcModel::new(&hw.graph, 8, 16, cfg, 5);
        model.fit(&samples);
        let mut other = samples[0].clone();
        other.context.time_of_day = (samples[0].context.time_of_day + 8) % 16;
        other.context.day_of_week = 6;
        let a = model.predict(&samples[0]);
        let b = model.predict(&other);
        assert_ne!(a, b, "contexts must influence the completion");
    }
}
