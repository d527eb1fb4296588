//! Reusable layers built on top of the tape.

use gcwc_linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

use crate::init;
use crate::params::{ParamId, ParamStore};
use crate::tape::{NodeId, Tape};

/// A fully connected layer `y = x·W + b` (`x: r × in`, `y: r × out`).
#[derive(Clone, Copy, Debug)]
pub struct Dense {
    /// Weight parameter (`in × out`).
    pub w: ParamId,
    /// Bias parameter (`1 × out`).
    pub b: ParamId,
}

impl Dense {
    /// Registers a Glorot-initialised dense layer.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        input: usize,
        output: usize,
    ) -> Self {
        let w = store.add(format!("{name}.w"), init::glorot_uniform(rng, input, output));
        let b = store.add(format!("{name}.b"), init::zeros(1, output));
        Self { w, b }
    }

    /// Applies the layer on the tape. The product is one
    /// [`Tape::dense_matmul`] op, so the weight gradient reaches the
    /// sink as its factors.
    pub fn apply(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let b = tape.param(store, self.b);
        let xw = tape.dense_matmul(x, store, self.w);
        tape.add_row_broadcast(xw, b)
    }
}

/// An embedding table mapping categorical indices to `dim`-vectors.
#[derive(Clone, Copy, Debug)]
pub struct Embedding {
    /// Table parameter (`vocab × dim`).
    pub table: ParamId,
}

impl Embedding {
    /// Registers an embedding table with small uniform initialisation.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Self {
        let table = store.add(format!("{name}.table"), init::uniform(rng, vocab, dim, 0.05));
        Self { table }
    }

    /// Looks up index `idx`, returning a `1 × dim` node.
    pub fn lookup(&self, tape: &mut Tape, store: &ParamStore, idx: usize) -> NodeId {
        let table = tape.param(store, self.table);
        tape.select_row(table, idx)
    }
}

/// Builds an inverted-dropout keep mask: each entry is `0` with
/// probability `p`, otherwise `1/(1−p)`.
///
/// Pass the result to [`Tape::dropout`] during training; skip the op at
/// evaluation time.
pub fn dropout_mask(rng: &mut StdRng, rows: usize, cols: usize, p: f64) -> Matrix {
    assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
    if p == 0.0 {
        return Matrix::filled(rows, cols, 1.0);
    }
    let keep = 1.0 / (1.0 - p);
    Matrix::from_fn(rows, cols, |_, _| if rng.random::<f64>() < p { 0.0 } else { keep })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcwc_linalg::rng::seeded;

    #[test]
    fn dense_shapes_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = seeded(1);
        let layer = Dense::new(&mut store, &mut rng, "fc", 3, 5);
        // Set the bias to something visible.
        *store.value_mut(layer.b) = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0]]);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(2, 3));
        let y = layer.apply(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (2, 5));
        // Zero input -> output equals broadcast bias.
        assert_eq!(tape.value(y).row(0), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(tape.value(y).row(1), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn embedding_lookup_returns_table_row() {
        let mut store = ParamStore::new();
        let mut rng = seeded(2);
        let emb = Embedding::new(&mut store, &mut rng, "time", 4, 3);
        let expected = store.value(emb.table).row(2).to_vec();
        let mut tape = Tape::new();
        let row = emb.lookup(&mut tape, &store, 2);
        assert_eq!(tape.value(row).row(0), &expected[..]);
    }

    #[test]
    fn dropout_mask_statistics() {
        let mut rng = seeded(3);
        let p = 0.3;
        let mask = dropout_mask(&mut rng, 100, 100, p);
        let zeros = mask.as_slice().iter().filter(|&&v| v == 0.0).count();
        let rate = zeros as f64 / 10_000.0;
        assert!((rate - p).abs() < 0.02, "zero rate {rate}");
        // Kept entries carry the inverted scale so E[mask] = 1.
        assert!((mask.mean() - 1.0).abs() < 0.02);
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let mut rng = seeded(4);
        let mask = dropout_mask(&mut rng, 3, 3, 0.0);
        assert_eq!(mask, Matrix::filled(3, 3, 1.0));
    }
}
