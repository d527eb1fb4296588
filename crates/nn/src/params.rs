//! Trainable parameter storage.
//!
//! Parameters live outside the per-sample [`crate::tape::Tape`]: the tape
//! copies values in at graph-construction time and accumulates gradients
//! back out during the backward pass. This keeps tapes cheap to rebuild
//! per sample (define-by-run) while parameters persist across samples,
//! batches and epochs.

use gcwc_linalg::Matrix;

/// Identifies a parameter within a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// A named trainable tensor with its accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// Human-readable name (used in diagnostics and parameter counting).
    pub name: String,
    /// Current value.
    pub value: Matrix,
    /// Gradient accumulated since the last [`ParamStore::zero_grads`].
    pub grad: Matrix,
}

/// A flat collection of model parameters.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its id.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.params.push(Param { name: name.into(), value, grad });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of trainable scalars (the paper's `#Para` column).
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Immutable access to a parameter's value.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable access to a parameter's value (used by optimizers/tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    /// Immutable access to a parameter's gradient.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Adds `delta` into the gradient of `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Matrix) {
        let g = &mut self.params[id.0].grad;
        assert_eq!(
            g.shape(),
            delta.shape(),
            "gradient shape mismatch for {}",
            self.params[id.0].name
        );
        for (dst, src) in g.as_mut_slice().iter_mut().zip(delta.as_slice()) {
            *dst += src;
        }
    }

    /// Clears all gradients to zero.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.as_mut_slice().fill(0.0);
        }
    }

    /// Iterates over all parameters.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Iterates mutably over all parameters.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut Param)> {
        self.params.iter_mut().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f64 {
        self.params
            .iter()
            .map(|p| p.grad.as_slice().iter().map(|g| g * g).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }

    /// Scales every gradient by `s` (used for gradient clipping and
    /// batch averaging).
    pub fn scale_grads(&mut self, s: f64) {
        for p in &mut self.params {
            for g in p.grad.as_mut_slice() {
                *g *= s;
            }
        }
    }
}

/// Destination for the parameter gradients produced by
/// [`crate::tape::Tape::backward`].
///
/// The training loop passes a [`ParamStore`] directly when running
/// serially, or a private per-sample [`GradBuffer`] when running
/// data-parallel so buffers can be merged in a fixed sample order
/// afterwards (float addition is not associative, so merge order is
/// part of the determinism contract).
pub trait GradSink {
    /// Adds `delta` into the gradient slot of `id`.
    fn accumulate_grad(&mut self, id: ParamId, delta: &Matrix);

    /// Adds `xᵀ·g` into the gradient slot of `id`: a dense layer's
    /// weight gradient, handed over as its two factors so that the
    /// `in × out` product need not be materialised per sample.
    fn accumulate_product(&mut self, id: ParamId, x: &Matrix, g: &Matrix);
}

impl GradSink for ParamStore {
    fn accumulate_grad(&mut self, id: ParamId, delta: &Matrix) {
        ParamStore::accumulate_grad(self, id, delta);
    }

    fn accumulate_product(&mut self, id: ParamId, x: &Matrix, g: &Matrix) {
        add_products(&mut self.params[id.0].grad, std::iter::once((x, g)));
    }
}

/// One parameter's gradient inside a [`GradBuffer`].
#[derive(Clone, Debug, Default)]
enum Slot {
    /// No gradient reached the parameter.
    #[default]
    Empty,
    /// A materialised gradient.
    Dense(Matrix),
    /// A dense layer's weight gradient `xᵀ·g`, kept as its factors.
    Product { x: Matrix, g: Matrix },
}

/// A private, store-shaped gradient accumulator.
///
/// Workers in the data-parallel training loop each fill one buffer per
/// sample; [`GradBuffer::merge_batch`] then folds the batch's buffers
/// into the real [`ParamStore`] in sample order, so the final gradients
/// depend only on that order — never on how samples were distributed
/// over threads.
///
/// A dense layer's weight gradient stays factored as `(x, g)` — for the
/// FC decoder `m × (in + out)` values instead of `in × out` — and the
/// merge forms each product `xᵀ·g` element by element while adding it.
#[derive(Clone, Debug, Default)]
pub struct GradBuffer {
    /// Indexed by `ParamId`.
    slots: Vec<Slot>,
    /// Matrices recycled by [`GradBuffer::reset`], reused by shape on
    /// the next accumulation so steady-state batches do not allocate.
    spare: Vec<Matrix>,
}

impl GradBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties every slot, keeping the matrices for reuse by the next
    /// mini-batch.
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            match std::mem::take(slot) {
                Slot::Empty => {}
                Slot::Dense(m) => self.spare.push(m),
                Slot::Product { x, g } => self.spare.extend([x, g]),
            }
        }
    }

    /// True when no gradient has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| matches!(s, Slot::Empty))
    }

    /// Folds this buffer into `store`: [`GradBuffer::merge_batch`] of
    /// one buffer.
    pub fn merge_into(&self, store: &mut ParamStore) {
        Self::merge_batch(std::slice::from_ref(self), store);
    }

    /// Folds `buffers` into `store` in slice order, bit-identical to
    /// calling [`GradBuffer::merge_into`] on each buffer in turn.
    ///
    /// Parameters are visited in ascending [`ParamId`] order. Each run of
    /// consecutive factored gradients of one parameter is added in a
    /// single pass over its gradient, every element forming each
    /// sample's product `xᵀ·g` exactly as [`Matrix::matmul_tn_into`]
    /// does and adding the products in sample order; a materialised
    /// gradient is added as a whole, in its place in the order.
    pub fn merge_batch(buffers: &[GradBuffer], store: &mut ParamStore) {
        let len = buffers.iter().map(|b| b.slots.len()).max().unwrap_or(0);
        for idx in 0..len {
            let mut rest = buffers;
            while let Some((first, tail)) = rest.split_first() {
                match first.slot(idx) {
                    Slot::Empty => rest = tail,
                    Slot::Dense(m) => {
                        store.accumulate_grad(ParamId(idx), m);
                        rest = tail;
                    }
                    Slot::Product { .. } => {
                        let end = rest
                            .iter()
                            .position(|b| matches!(b.slot(idx), Slot::Dense(_)))
                            .unwrap_or(rest.len());
                        let (run, after) = rest.split_at(end);
                        let factors = run.iter().filter_map(|b| match b.slot(idx) {
                            Slot::Product { x, g } => Some((x, g)),
                            _ => None,
                        });
                        add_products(&mut store.params[idx].grad, factors);
                        rest = after;
                    }
                }
            }
        }
    }

    /// The slot at index `idx` (empty past the end of the slot list).
    fn slot(&self, idx: usize) -> &Slot {
        self.slots.get(idx).unwrap_or(&Slot::Empty)
    }

    /// The slot of `id`, growing the slot list when needed.
    fn slot_mut(&mut self, id: ParamId) -> &mut Slot {
        if self.slots.len() <= id.0 {
            self.slots.resize_with(id.0 + 1, Slot::default);
        }
        &mut self.slots[id.0]
    }

    /// A retired matrix of `shape`, or a fresh one (contents stale).
    fn take_spare(&mut self, shape: (usize, usize)) -> Matrix {
        match self.spare.iter().position(|m| m.shape() == shape) {
            Some(i) => self.spare.swap_remove(i),
            None => Matrix::zeros(shape.0, shape.1),
        }
    }

    /// A copy of `src` in a recycled matrix. The contents are *copied
    /// over* rather than zeroed-and-added: `0.0 + (−0.0)` is `+0.0`, so
    /// an add from zero would not be bit-identical to a fresh clone.
    fn copy_of(&mut self, src: &Matrix) -> Matrix {
        let mut m = self.take_spare(src.shape());
        m.copy_from(src);
        m
    }

    /// Replaces a factored gradient of `id` by its product `xᵀ·g`,
    /// computed by [`Matrix::matmul_tn_into`] — the value the slot held
    /// before gradients were factored — so a later addition lands on
    /// the same bits in the same order.
    fn materialise(&mut self, id: ParamId) {
        match std::mem::take(self.slot_mut(id)) {
            Slot::Product { x, g } => {
                let mut m = self.take_spare((x.cols(), g.cols()));
                x.matmul_tn_into(&g, &mut m);
                self.spare.extend([x, g]);
                self.slots[id.0] = Slot::Dense(m);
            }
            other => self.slots[id.0] = other,
        }
    }
}

impl GradSink for GradBuffer {
    fn accumulate_grad(&mut self, id: ParamId, delta: &Matrix) {
        self.materialise(id);
        if let Slot::Dense(g) = self.slot_mut(id) {
            assert_eq!(g.shape(), delta.shape(), "gradient shape mismatch in GradBuffer");
            g.add_assign(delta);
            return;
        }
        let copy = self.copy_of(delta);
        self.slots[id.0] = Slot::Dense(copy);
    }

    fn accumulate_product(&mut self, id: ParamId, x: &Matrix, g: &Matrix) {
        // A second gradient of the same parameter in one sample lands
        // on the materialised first one, in arrival order.
        self.materialise(id);
        if let Slot::Dense(m) = self.slot_mut(id) {
            add_products(m, std::iter::once((x, g)));
            return;
        }
        let (x, g) = (self.copy_of(x), self.copy_of(g));
        self.slots[id.0] = Slot::Product { x, g };
    }
}

/// Columns per sweep of [`add_products`]: a row segment of a product is
/// built in a stack buffer of this many values (8 KiB).
const PRODUCT_COLS: usize = 1024;

/// Adds the products `xᵀ·g` of `factors` into `dst`, in order, in one
/// pass over `dst`.
///
/// Bit-identical to materialising each product with
/// [`Matrix::matmul_tn_into`] and adding it with
/// [`ParamStore::accumulate_grad`], one product after another: every
/// element forms each product `Σ_k x[k,i]·g[k,j]` from `0.0` in
/// ascending-`k` order, skipping the `x[k,i] == 0` terms exactly as
/// `matmul_tn_into` does in either of its loops, and adds it to the
/// element before the next product. Only the loops over elements are
/// reordered: `dst` is walked row by row, and each row segment of a
/// product is built in a stack buffer, streaming rows of `g`.
fn add_products<'a>(
    dst: &mut Matrix,
    factors: impl Iterator<Item = (&'a Matrix, &'a Matrix)> + Clone,
) {
    let (rows, cols) = dst.shape();
    for (x, g) in factors.clone() {
        assert!(
            x.rows() == g.rows() && (x.cols(), g.cols()) == (rows, cols),
            "gradient shape mismatch: {:?}ᵀ·{:?} into {:?}",
            x.shape(),
            g.shape(),
            dst.shape()
        );
    }
    let mut buf = [0.0f64; PRODUCT_COLS];
    for j0 in (0..cols).step_by(PRODUCT_COLS) {
        let j1 = (j0 + PRODUCT_COLS).min(cols);
        let p = &mut buf[..j1 - j0];
        for i in 0..rows {
            let d = &mut dst.row_mut(i)[j0..j1];
            for (x, g) in factors.clone() {
                p.fill(0.0);
                for k in 0..x.rows() {
                    let a = x[(k, i)];
                    if a == 0.0 {
                        continue;
                    }
                    for (o, &b) in p.iter_mut().zip(&g.row(k)[j0..j1]) {
                        *o += a * b;
                    }
                }
                for (o, &q) in d.iter_mut().zip(p.iter()) {
                    *o += q;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_count() {
        let mut store = ParamStore::new();
        let a = store.add("w", Matrix::zeros(3, 4));
        let b = store.add("b", Matrix::zeros(1, 4));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 16);
        assert_ne!(a, b);
    }

    #[test]
    fn gradients_accumulate() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::zeros(2, 2));
        store.accumulate_grad(id, &Matrix::filled(2, 2, 1.0));
        store.accumulate_grad(id, &Matrix::filled(2, 2, 0.5));
        assert_eq!(store.grad(id), &Matrix::filled(2, 2, 1.5));
        store.zero_grads();
        assert_eq!(store.grad(id), &Matrix::zeros(2, 2));
    }

    #[test]
    fn grad_norm_and_scale() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::zeros(1, 2));
        store.accumulate_grad(id, &Matrix::from_rows(&[&[3.0, 4.0]]));
        assert!((store.grad_norm() - 5.0).abs() < 1e-12);
        store.scale_grads(0.5);
        assert_eq!(store.grad(id), &Matrix::from_rows(&[&[1.5, 2.0]]));
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn shape_mismatch_panics() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::zeros(2, 2));
        store.accumulate_grad(id, &Matrix::zeros(1, 2));
    }

    #[test]
    fn grad_buffer_accumulates_and_merges_in_id_order() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::zeros(1, 2));
        let b = store.add("b", Matrix::zeros(2, 1));

        let mut buf = GradBuffer::new();
        assert!(buf.is_empty());
        GradSink::accumulate_grad(&mut buf, b, &Matrix::filled(2, 1, 2.0));
        GradSink::accumulate_grad(&mut buf, b, &Matrix::filled(2, 1, 0.25));
        assert!(!buf.is_empty());

        buf.merge_into(&mut store);
        assert_eq!(store.grad(a), &Matrix::zeros(1, 2));
        assert_eq!(store.grad(b), &Matrix::filled(2, 1, 2.25));
    }

    #[test]
    fn grad_buffer_merge_matches_direct_accumulation_bitwise() {
        // Merging per-sample buffers in sample order must reproduce the
        // serial accumulation exactly: same additions, same order.
        let deltas = [0.1, 0.07, -0.3, 1e-8];
        let mut serial = ParamStore::new();
        let id = serial.add("w", Matrix::zeros(1, 1));
        for d in deltas {
            serial.accumulate_grad(id, &Matrix::filled(1, 1, d));
        }

        let mut merged = ParamStore::new();
        let id2 = merged.add("w", Matrix::zeros(1, 1));
        let buffers: Vec<GradBuffer> = deltas
            .iter()
            .map(|&d| {
                let mut buf = GradBuffer::new();
                GradSink::accumulate_grad(&mut buf, id2, &Matrix::filled(1, 1, d));
                buf
            })
            .collect();
        for buf in &buffers {
            buf.merge_into(&mut merged);
        }
        assert_eq!(serial.grad(id)[(0, 0)].to_bits(), merged.grad(id2)[(0, 0)].to_bits());
    }

    #[test]
    fn a_second_gradient_lands_on_the_materialised_product() {
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let g = Matrix::from_rows(&[&[3.0]]);
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(2, 1));
        let mut buf = GradBuffer::new();
        GradSink::accumulate_product(&mut buf, w, &x, &g);
        GradSink::accumulate_grad(&mut buf, w, &Matrix::filled(2, 1, 0.5));
        GradSink::accumulate_product(&mut buf, w, &x, &g);
        buf.merge_into(&mut store);
        assert_eq!(store.grad(w), &Matrix::from_rows(&[&[6.5], &[12.5]]));
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch in GradBuffer")]
    fn grad_buffer_shape_mismatch_panics() {
        let mut buf = GradBuffer::new();
        GradSink::accumulate_grad(&mut buf, ParamId(0), &Matrix::zeros(2, 2));
        GradSink::accumulate_grad(&mut buf, ParamId(0), &Matrix::zeros(1, 2));
    }
}
