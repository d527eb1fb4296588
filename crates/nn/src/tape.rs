//! Reverse-mode automatic differentiation over dense matrices.
//!
//! A [`Tape`] is a define-by-run computation graph: every builder method
//! evaluates its result eagerly and records the operation so that
//! [`Tape::backward`] can later push cotangents from a scalar loss back
//! to every parameter leaf. Tapes are rebuilt per training sample — the
//! matrices involved are small (≤ `8 600 × 16`), so construction cost is
//! negligible next to the matmuls.

use std::sync::Arc;

use gcwc_graph::{PolyBasis, PoolingMap};
use gcwc_linalg::{BufferPool, Matrix};
use rand::rngs::StdRng;
use rand::Rng;

use crate::ops;
use crate::params::{ParamId, ParamStore};

/// Identifies a node within a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

/// Shape bookkeeping for 2-D convolutions (`same` padding, stride 1).
///
/// Tensors are laid out as matrices with `batch·channels` rows and `h·w`
/// columns (row-major image per row).
#[derive(Clone, Copy, Debug)]
pub struct ConvSpec {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Image height.
    pub h: usize,
    /// Image width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
}

/// Shape bookkeeping for 2-D max pooling (stride = window, floor).
#[derive(Clone, Copy, Debug)]
pub struct PoolSpec {
    /// Batch size.
    pub batch: usize,
    /// Channels.
    pub ch: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Pool window height.
    pub ph: usize,
    /// Pool window width.
    pub pw: usize,
}

impl PoolSpec {
    /// Output height (`floor(h / ph)`).
    pub fn out_h(&self) -> usize {
        self.h / self.ph
    }

    /// Output width (`floor(w / pw)`).
    pub fn out_w(&self) -> usize {
        self.w / self.pw
    }
}

pub(crate) enum Op {
    Const,
    Param(ParamId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    DivEps {
        a: NodeId,
        b: NodeId,
        eps: f64,
    },
    Scale(NodeId, f64),
    MatMul(NodeId, NodeId),
    /// `x · W` for the parameter `w`; `weight` is the tape's copy of W.
    DenseMatMul {
        x: NodeId,
        w: ParamId,
        weight: Matrix,
    },
    AddRowBroadcast {
        x: NodeId,
        bias: NodeId,
    },
    Tanh(NodeId),
    Sigmoid(NodeId),
    Relu(NodeId),
    LogEps {
        x: NodeId,
        eps: f64,
    },
    SoftmaxRows(NodeId),
    NormalizeRows {
        x: NodeId,
        eps: f64,
    },
    SumAll(NodeId),
    Transpose(NodeId),
    Reshape {
        x: NodeId,
    },
    HstackList(Vec<NodeId>),
    GroupRows {
        x: NodeId,
        groups: usize,
    },
    SelectRow {
        x: NodeId,
        row: usize,
    },
    SelectCols {
        x: NodeId,
        start: usize,
    },
    TileCols {
        x: NodeId,
        times: usize,
    },
    Dropout {
        x: NodeId,
        mask: Matrix,
    },
    PolyConv {
        x: NodeId,
        thetas: Vec<NodeId>,
        basis: Arc<dyn PolyBasis>,
        saved: Vec<Matrix>,
        groups: usize,
    },
    GraphMaxPool {
        x: NodeId,
        map: Arc<PoolingMap>,
        argmax: Vec<usize>,
    },
    Conv2d {
        x: NodeId,
        kernel: NodeId,
        bias: NodeId,
        spec: ConvSpec,
    },
    MaxPool2d {
        x: NodeId,
        spec: PoolSpec,
        argmax: Vec<usize>,
    },
    BatchOuter {
        col: NodeId,
        rows: NodeId,
    },
    KlLossMasked {
        pred: NodeId,
        label: Matrix,
        row_mask: Vec<f64>,
        eps: f64,
    },
    MseMasked {
        pred: NodeId,
        label: Matrix,
        mask: Matrix,
    },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// A define-by-run reverse-mode autodiff tape.
///
/// All node values and backward cotangents are drawn from an internal
/// [`BufferPool`]; after [`Tape::reset`] a rebuilt graph of the same
/// shape performs no heap allocation.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: BufferPool,
    /// Backward scratch, kept across calls so the slot vector is not
    /// reallocated per sample.
    grads: Vec<Option<Matrix>>,
    /// Recycled `Vec<NodeId>` containers (hstack parts, poly-conv thetas).
    spare_ids: Vec<Vec<NodeId>>,
    /// Recycled argmax containers.
    spare_usize: Vec<Vec<usize>>,
    /// Recycled `Vec<Matrix>` containers (emptied; the matrices
    /// themselves live in the pool).
    spare_mats: Vec<Vec<Matrix>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the graph, parking every node value and op-owned buffer in
    /// the internal pool so the next sample's graph reuses the storage.
    pub fn reset(&mut self) {
        let Tape { nodes, pool, spare_ids, spare_usize, spare_mats, .. } = self;
        for node in nodes.drain(..) {
            pool.give(node.value);
            match node.op {
                Op::Dropout { mask, .. } => pool.give(mask),
                Op::DenseMatMul { weight, .. } => pool.give(weight),
                Op::PolyConv { mut thetas, mut saved, .. } => {
                    for m in saved.drain(..) {
                        pool.give(m);
                    }
                    spare_mats.push(saved);
                    thetas.clear();
                    spare_ids.push(thetas);
                }
                Op::GraphMaxPool { argmax, .. } | Op::MaxPool2d { argmax, .. } => {
                    spare_usize.push(argmax);
                }
                Op::HstackList(mut parts) => {
                    parts.clear();
                    spare_ids.push(parts);
                }
                Op::KlLossMasked { label, row_mask, .. } => {
                    pool.give(label);
                    pool.give_vec(row_mask);
                }
                Op::MseMasked { label, mask, .. } => {
                    pool.give(label);
                    pool.give(mask);
                }
                _ => {}
            }
        }
    }

    /// The internal buffer pool (hit/miss counters for diagnostics).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Mutable access to the buffer pool, for callers that stage their
    /// own scratch matrices (e.g. input corruption) before recording
    /// constants.
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// Borrows a recycled (empty) `NodeId` scratch vector; return it
    /// with [`Tape::give_id_buf`] so steady-state forward passes that
    /// collect node ids (filter lists, hstack columns) do not allocate.
    pub fn take_id_buf(&mut self) -> Vec<NodeId> {
        self.spare_ids.pop().unwrap_or_default()
    }

    /// Returns a scratch vector borrowed with [`Tape::take_id_buf`].
    pub fn give_id_buf(&mut self, mut v: Vec<NodeId>) {
        // Every vector parked in `spare_ids` is empty — the op builders
        // that pop one extend it without clearing first.
        v.clear();
        self.spare_ids.push(v);
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        debug_assert!(value.is_finite(), "non-finite value produced by tape op");
        self.nodes.push(Node { value, op });
        NodeId(self.nodes.len() - 1)
    }

    // ----- leaves --------------------------------------------------------

    /// Records a constant (no gradient flows into it).
    pub fn constant(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Const)
    }

    /// Records a constant by copying into a pooled buffer (the
    /// allocation-free sibling of [`Tape::constant`]).
    pub fn constant_copied(&mut self, value: &Matrix) -> NodeId {
        let mut v = self.pool.take_raw(value.rows(), value.cols());
        v.copy_from(value);
        self.push(v, Op::Const)
    }

    /// Records a constant filled with `v`, bit-identical to
    /// `constant(Matrix::filled(rows, cols, v))` without the allocation.
    pub fn constant_filled(&mut self, rows: usize, cols: usize, v: f64) -> NodeId {
        let mut m = self.pool.take_raw(rows, cols);
        m.as_mut_slice().fill(v);
        self.push(m, Op::Const)
    }

    /// Records a `1 × len` constant row copied from a slice,
    /// bit-identical to `constant(Matrix::row_vector(row))`.
    pub fn constant_row(&mut self, row: &[f64]) -> NodeId {
        let mut m = self.pool.take_raw(1, row.len());
        m.as_mut_slice().copy_from_slice(row);
        self.push(m, Op::Const)
    }

    /// Records a parameter leaf, copying its current value in.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        let src = store.value(id);
        let mut v = self.pool.take_raw(src.rows(), src.cols());
        v.copy_from(src);
        self.push(v, Op::Param(id))
    }

    // ----- arithmetic -----------------------------------------------------

    /// Elementwise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
        let mut v = pool.take_raw(av.rows(), av.cols());
        av.zip_into(bv, &mut v, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise difference `a − b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
        let mut v = pool.take_raw(av.rows(), av.cols());
        av.zip_into(bv, &mut v, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
        let mut v = pool.take_raw(av.rows(), av.cols());
        av.zip_into(bv, &mut v, |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// Elementwise quotient `a / (b + eps)`.
    pub fn div_eps(&mut self, a: NodeId, b: NodeId, eps: f64) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
        let mut v = pool.take_raw(av.rows(), av.cols());
        av.zip_into(bv, &mut v, |x, y| x / (y + eps));
        self.push(v, Op::DivEps { a, b, eps })
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: NodeId, s: f64) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let av = &nodes[a.0].value;
        let mut v = pool.take_raw(av.rows(), av.cols());
        av.map_into(&mut v, |x| x * s);
        self.push(v, Op::Scale(a, s))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
        let mut v = pool.take_raw(av.rows(), bv.cols());
        av.matmul_into(bv, &mut v);
        self.push(v, Op::MatMul(a, b))
    }

    /// A dense layer's product `x · W` for the parameter `w`, copying W
    /// in like [`Tape::param`].
    ///
    /// Its backward computes `dx = G·Wᵀ` like [`Tape::matmul`] does, but
    /// hands W's gradient to the sink as its factors `(x, G)`
    /// ([`crate::params::GradSink::accumulate_product`]) instead of
    /// materialising the `in × out` product `xᵀ·G`.
    pub fn dense_matmul(&mut self, x: NodeId, store: &ParamStore, w: ParamId) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let src = store.value(w);
        let mut weight = pool.take_raw(src.rows(), src.cols());
        weight.copy_from(src);
        let xv = &nodes[x.0].value;
        let mut v = pool.take_raw(xv.rows(), weight.cols());
        xv.matmul_into(&weight, &mut v);
        self.push(v, Op::DenseMatMul { x, w, weight })
    }

    /// Adds a `1 × c` bias row to every row of an `r × c` matrix.
    pub fn add_row_broadcast(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        let bv = &nodes[bias.0].value;
        let mut v = pool.take_raw(xv.rows(), xv.cols());
        v.copy_from(xv);
        ops::add_row_broadcast_assign(&mut v, bv);
        self.push(v, Op::AddRowBroadcast { x, bias })
    }

    // ----- activations ----------------------------------------------------

    fn map_pooled(&mut self, x: NodeId, f: impl Fn(f64) -> f64 + Sync) -> Matrix {
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        let mut v = pool.take_raw(xv.rows(), xv.cols());
        xv.map_into(&mut v, f);
        v
    }

    /// Elementwise `tanh`.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let v = self.map_pooled(x, f64::tanh);
        self.push(v, Op::Tanh(x))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let v = self.map_pooled(x, |t| 1.0 / (1.0 + (-t).exp()));
        self.push(v, Op::Sigmoid(x))
    }

    /// Elementwise rectifier.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let v = self.map_pooled(x, |t| t.max(0.0));
        self.push(v, Op::Relu(x))
    }

    /// Elementwise `ln(x + eps)`.
    pub fn log_eps(&mut self, x: NodeId, eps: f64) -> NodeId {
        let v = self.map_pooled(x, |t| (t + eps).ln());
        self.push(v, Op::LogEps { x, eps })
    }

    /// Row-wise softmax (numerically stabilised).
    pub fn softmax_rows(&mut self, x: NodeId) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        let mut v = pool.take_raw(xv.rows(), xv.cols());
        v.copy_from(xv);
        ops::softmax_rows_in_place(&mut v);
        self.push(v, Op::SoftmaxRows(x))
    }

    /// Row-wise normalisation `y_ij = x_ij / (Σ_j x_ij + eps)`.
    ///
    /// Used for the Bayesian-inference combination (Eq. 10): inputs are
    /// positive, so the result is a valid distribution per row.
    pub fn normalize_rows(&mut self, x: NodeId, eps: f64) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        let mut v = pool.take_raw(xv.rows(), xv.cols());
        v.copy_from(xv);
        ops::normalize_rows_in_place(&mut v, eps);
        self.push(v, Op::NormalizeRows { x, eps })
    }

    // ----- shape ----------------------------------------------------------

    /// Sums all entries into a `1 × 1` node.
    pub fn sum_all(&mut self, x: NodeId) -> NodeId {
        let s = self.value(x).sum();
        let mut v = self.pool.take_raw(1, 1);
        v[(0, 0)] = s;
        self.push(v, Op::SumAll(x))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, x: NodeId) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        let mut v = pool.take_raw(xv.cols(), xv.rows());
        xv.transpose_into(&mut v);
        self.push(v, Op::Transpose(x))
    }

    /// Reinterprets the row-major data with a new shape.
    pub fn reshape(&mut self, x: NodeId, rows: usize, cols: usize) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        assert_eq!(xv.len(), rows * cols, "reshape size mismatch");
        let mut v = pool.take_raw(rows, cols);
        v.as_mut_slice().copy_from_slice(xv.as_slice());
        self.push(v, Op::Reshape { x })
    }

    /// Gathers a group-major `n × (groups·c)` matrix into `groups` rows
    /// of length `n·c`: row `g` is the row-major flattening of the
    /// `n × c` block of group `g`.
    ///
    /// This is a pure permutation — element for element it equals
    /// `reshape(select_cols(x, g·c, c), 1, n·c)` stacked over `g` — and
    /// lets all groups share one batched matmul against a decoder
    /// weight instead of streaming it once per group.
    pub fn group_rows(&mut self, x: NodeId, groups: usize) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        let (n, total) = xv.shape();
        assert_eq!(total % groups, 0, "columns not divisible by groups");
        let c = total / groups;
        let mut v = pool.take_raw(groups, n * c);
        ops::group_rows_into(xv, groups, &mut v);
        self.push(v, Op::GroupRows { x, groups })
    }

    /// Concatenates nodes side by side (equal row counts).
    pub fn hstack(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "hstack of nothing");
        let Tape { nodes, pool, spare_ids, .. } = self;
        let rows = nodes[parts[0].0].value.rows();
        let total: usize = parts.iter().map(|p| nodes[p.0].value.cols()).sum();
        let mut v = pool.take_raw(rows, total);
        let mut offset = 0;
        for &p in parts {
            let pv = &nodes[p.0].value;
            assert_eq!(pv.rows(), rows, "hstack row mismatch");
            for r in 0..rows {
                v.row_mut(r)[offset..offset + pv.cols()].copy_from_slice(pv.row(r));
            }
            offset += pv.cols();
        }
        let mut ids = spare_ids.pop().unwrap_or_default();
        ids.extend_from_slice(parts);
        self.push(v, Op::HstackList(ids))
    }

    /// Extracts row `row` as a `1 × c` node.
    pub fn select_row(&mut self, x: NodeId, row: usize) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        let mut v = pool.take_raw(1, xv.cols());
        v.row_mut(0).copy_from_slice(xv.row(row));
        self.push(v, Op::SelectRow { x, row })
    }

    /// Horizontally tiles `x` `times` times (`r × c` → `r × (times·c)`).
    ///
    /// Used to broadcast a shared per-filter bias across bucket groups.
    pub fn tile_cols(&mut self, x: NodeId, times: usize) -> NodeId {
        assert!(times >= 1, "tile count must be positive");
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        let (r, c) = xv.shape();
        let mut v = pool.take_raw(r, c * times);
        ops::tile_cols_into(xv, times, &mut v);
        self.push(v, Op::TileCols { x, times })
    }

    /// Extracts the column block `start..start+len` as an `r × len` node.
    pub fn select_cols(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        assert!(start + len <= xv.cols(), "column block out of range");
        let mut v = pool.take_raw(xv.rows(), len);
        for r in 0..xv.rows() {
            v.row_mut(r).copy_from_slice(&xv.row(r)[start..start + len]);
        }
        self.push(v, Op::SelectCols { x, start })
    }

    /// Inverted dropout with the given keep-mask (entries 0 or
    /// `1/(1−p)`); build the mask with
    /// [`crate::layers::dropout_mask`], or use [`Tape::dropout_rng`] to
    /// draw it into a pooled buffer.
    pub fn dropout(&mut self, x: NodeId, mask: Matrix) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        let mut v = pool.take_raw(xv.rows(), xv.cols());
        xv.zip_into(&mask, &mut v, |a, b| a * b);
        self.push(v, Op::Dropout { x, mask })
    }

    /// Inverted dropout drawing the keep-mask from `rng` into a pooled
    /// buffer. Draw order and values are identical to
    /// [`crate::layers::dropout_mask`] followed by [`Tape::dropout`].
    pub fn dropout_rng(&mut self, x: NodeId, rng: &mut StdRng, p: f64) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        let Tape { nodes, pool, .. } = self;
        let xv = &nodes[x.0].value;
        let mut mask = pool.take_raw(xv.rows(), xv.cols());
        if p == 0.0 {
            mask.as_mut_slice().fill(1.0);
        } else {
            let keep = 1.0 / (1.0 - p);
            for m in mask.as_mut_slice() {
                *m = if rng.random::<f64>() < p { 0.0 } else { keep };
            }
        }
        let mut v = pool.take_raw(xv.rows(), xv.cols());
        xv.zip_into(&mask, &mut v, |a, b| a * b);
        self.push(v, Op::Dropout { x, mask })
    }

    // ----- graph ops ------------------------------------------------------

    /// Graph polynomial convolution: `Σ_k M_k(graph) · x · θ_k`.
    ///
    /// `x` is `n × c_in`; each `θ_k` is `c_in × c_out`; the basis supplies
    /// the fixed operators `M_k` (Chebyshev of the scaled Laplacian for
    /// GCWC, random-walk powers for DR).
    pub fn poly_conv(&mut self, x: NodeId, thetas: &[NodeId], basis: Arc<dyn PolyBasis>) -> NodeId {
        self.poly_conv_grouped(x, thetas, basis, 1)
    }

    /// Grouped graph polynomial convolution.
    ///
    /// `x` is `n × (groups · c_in)` laid out group-major; the *same*
    /// `θ_k ∈ R^{c_in×c_out}` filters are applied to every group,
    /// producing `n × (groups · c_out)`. This is how GCWC shares filters
    /// across the `m` histogram buckets (paper §IV-B applies each filter
    /// to every bucket column) while paying the sparse basis expansion
    /// only once.
    pub fn poly_conv_grouped(
        &mut self,
        x: NodeId,
        thetas: &[NodeId],
        basis: Arc<dyn PolyBasis>,
        groups: usize,
    ) -> NodeId {
        assert_eq!(thetas.len(), basis.order(), "theta count must equal basis order");
        assert!(groups >= 1, "need at least one group");
        let Tape { nodes, pool, spare_ids, spare_mats, .. } = self;
        let xv = &nodes[x.0].value;
        assert_eq!(xv.cols() % groups, 0, "columns not divisible by groups");
        let c_in = xv.cols() / groups;
        let c_out = nodes[thetas[0].0].value.cols();
        let n = xv.rows();
        let mut saved = spare_mats.pop().unwrap_or_default();
        basis.forward_pooled(xv, pool, &mut saved);
        let mut out = pool.take(n, groups * c_out);
        for (tx, &th) in saved.iter().zip(thetas) {
            let thv = &nodes[th.0].value;
            assert_eq!(thv.rows(), c_in, "theta input-channel mismatch");
            ops::poly_conv_accumulate(tx, thv, &mut out, groups);
        }
        let mut ids = spare_ids.pop().unwrap_or_default();
        ids.extend_from_slice(thetas);
        self.push(out, Op::PolyConv { x, thetas: ids, basis, saved, groups })
    }

    /// Graph max pooling over precomputed clusters.
    pub fn graph_max_pool(&mut self, x: NodeId, map: Arc<PoolingMap>) -> NodeId {
        let Tape { nodes, pool, spare_usize, .. } = self;
        let xv = &nodes[x.0].value;
        let c = xv.cols();
        let mut v = pool.take_raw(map.num_outputs(), c);
        let mut argmax = spare_usize.pop().unwrap_or_default();
        argmax.clear();
        argmax.resize(map.num_outputs() * c, 0);
        map.max_forward_into(xv, &mut v, &mut argmax);
        self.push(v, Op::GraphMaxPool { x, map, argmax })
    }

    // ----- dense conv ops (CP-CNN, classic CNN baseline) -------------------

    /// Batched 2-D convolution with `same` zero padding and stride 1.
    ///
    /// `x` is `(batch·in_ch) × (h·w)`; `kernel` is
    /// `out_ch × (in_ch·kh·kw)`; `bias` is `1 × out_ch`. Output is
    /// `(batch·out_ch) × (h·w)`.
    pub fn conv2d(&mut self, x: NodeId, kernel: NodeId, bias: NodeId, spec: ConvSpec) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let mut v = pool.take_raw(spec.batch * spec.out_ch, spec.h * spec.w);
        ops::conv2d_forward_into(
            &nodes[x.0].value,
            &nodes[kernel.0].value,
            &nodes[bias.0].value,
            &spec,
            &mut v,
        );
        self.push(v, Op::Conv2d { x, kernel, bias, spec })
    }

    /// Batched 2-D max pooling with stride = window (floor semantics).
    pub fn max_pool2d(&mut self, x: NodeId, spec: PoolSpec) -> NodeId {
        let Tape { nodes, pool, spare_usize, .. } = self;
        let (ho, wo) = (spec.out_h(), spec.out_w());
        assert!(ho > 0 && wo > 0, "pool window larger than input");
        let mut v = pool.take_raw(spec.batch * spec.ch, ho * wo);
        let mut argmax = spare_usize.pop().unwrap_or_default();
        argmax.clear();
        argmax.resize(spec.batch * spec.ch * ho * wo, 0);
        ops::maxpool2d_forward_into(&nodes[x.0].value, &spec, &mut v, &mut argmax);
        self.push(v, Op::MaxPool2d { x, spec, argmax })
    }

    /// Batched outer product: for a column `p ∈ R^{β×1}` and rows
    /// `Z ∈ R^{n×m}`, produces `n × (β·m)` where block row `b` is the
    /// row-major flattening of `p · Z[b,·]` (the CP-CNN input maps,
    /// paper §V-B3).
    pub fn batch_outer(&mut self, col: NodeId, rows: NodeId) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let (p, z) = (&nodes[col.0].value, &nodes[rows.0].value);
        let mut v = pool.take_raw(z.rows(), p.rows() * z.cols());
        ops::batch_outer_into(p, z, &mut v);
        self.push(v, Op::BatchOuter { col, rows })
    }

    // ----- losses -----------------------------------------------------------

    /// The paper's masked KL loss (Eq. 3): the divergence
    /// `KL(w_i· ‖ ŵ_i·)` summed over covered rows,
    /// `L = Σ_i I_i Σ_j w_ij · ln((w_ij + ε)/(ŵ_ij + ε))`,
    /// where `pred = Ŵ`, `label = W`, and `row_mask[i] = I_i`.
    ///
    /// Note: Eq. 3 *as printed* weights the log-ratio by `ŵ` (the reverse
    /// direction), which contradicts both the equation's own name
    /// `KL(w‖ŵ)` and the forward-KL evaluation metric (Eq. 11); training
    /// the reverse direction is mode-seeking and measurably hurts MKLR.
    /// We implement the stated forward divergence.
    pub fn kl_loss_masked(
        &mut self,
        pred: NodeId,
        label: Matrix,
        row_mask: Vec<f64>,
        eps: f64,
    ) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let p = &nodes[pred.0].value;
        assert_eq!(p.shape(), label.shape(), "label shape mismatch");
        assert_eq!(row_mask.len(), p.rows(), "mask length mismatch");
        let mut loss = 0.0;
        for i in 0..p.rows() {
            if row_mask[i] == 0.0 {
                continue;
            }
            for (w_hat, w) in p.row(i).iter().zip(label.row(i)) {
                loss += row_mask[i] * w * ((w + eps) / (w_hat + eps)).ln();
            }
        }
        let mut v = pool.take_raw(1, 1);
        v[(0, 0)] = loss;
        self.push(v, Op::KlLossMasked { pred, label, row_mask, eps })
    }

    /// [`Tape::kl_loss_masked`] copying the label and mask into pooled
    /// buffers instead of taking ownership (allocation-free in steady
    /// state).
    pub fn kl_loss_masked_ref(
        &mut self,
        pred: NodeId,
        label: &Matrix,
        row_mask: &[f64],
        eps: f64,
    ) -> NodeId {
        let mut l = self.pool.take_raw(label.rows(), label.cols());
        l.copy_from(label);
        let mut rm = self.pool.take_vec(row_mask.len());
        rm.copy_from_slice(row_mask);
        self.kl_loss_masked(pred, l, rm, eps)
    }

    /// Masked mean squared error:
    /// `L = Σ_ij mask_ij (pred_ij − label_ij)² / max(1, Σ mask)`.
    pub fn mse_masked(&mut self, pred: NodeId, label: Matrix, mask: Matrix) -> NodeId {
        let Tape { nodes, pool, .. } = self;
        let p = &nodes[pred.0].value;
        assert_eq!(p.shape(), label.shape(), "label shape mismatch");
        assert_eq!(p.shape(), mask.shape(), "mask shape mismatch");
        let count: f64 = mask.sum().max(1.0);
        let mut loss = 0.0;
        for ((&pv, &lv), &mv) in p.as_slice().iter().zip(label.as_slice()).zip(mask.as_slice()) {
            loss += mv * (pv - lv) * (pv - lv);
        }
        let mut v = pool.take_raw(1, 1);
        v[(0, 0)] = loss / count;
        self.push(v, Op::MseMasked { pred, label, mask })
    }

    /// [`Tape::mse_masked`] for a column prediction masked per row:
    /// the mask slice becomes the `len × 1` mask matrix, bit-identical
    /// to `mse_masked(pred, label, Matrix::from_vec(len, 1, row_mask))`.
    pub fn mse_masked_rows(&mut self, pred: NodeId, label: &Matrix, row_mask: &[f64]) -> NodeId {
        let mut l = self.pool.take_raw(label.rows(), label.cols());
        l.copy_from(label);
        let mut m = self.pool.take_raw(row_mask.len(), 1);
        m.as_mut_slice().copy_from_slice(row_mask);
        self.mse_masked(pred, l, m)
    }

    // ----- backward ---------------------------------------------------------

    /// Back-propagates from the scalar node `loss`, accumulating parameter
    /// gradients into `sink`: a private [`crate::params::GradBuffer`] per
    /// sample in training, or a [`ParamStore`] directly.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 × 1`.
    pub fn backward(&mut self, loss: NodeId, sink: &mut impl crate::params::GradSink) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let n = self.nodes.len();
        let mut grads = std::mem::take(&mut self.grads);
        grads.clear();
        grads.resize_with(n, || None);
        let mut seed = self.pool.take_raw(1, 1);
        seed[(0, 0)] = 1.0;
        grads[loss.0] = Some(seed);

        for i in (0..n).rev() {
            let Some(mut g) = grads[i].take() else { continue };
            // Split borrows: the nodes being read vs the pool and spare
            // containers being mutated.
            let Tape { nodes, pool, spare_mats, .. } = self;
            let node = &nodes[i];
            match &node.op {
                Op::Const => pool.give(g),
                Op::Param(pid) => {
                    sink.accumulate_grad(*pid, &g);
                    pool.give(g);
                }
                Op::Add(a, b) => {
                    accumulate_ref(pool, &mut grads, *a, &g);
                    accumulate_owned(pool, &mut grads, *b, g);
                }
                Op::Sub(a, b) => {
                    accumulate_ref(pool, &mut grads, *a, &g);
                    g.scale_assign(-1.0);
                    accumulate_owned(pool, &mut grads, *b, g);
                }
                Op::Mul(a, b) => {
                    let av = &nodes[a.0].value;
                    let bv = &nodes[b.0].value;
                    let mut ga = pool.take_raw(g.rows(), g.cols());
                    g.zip_into(bv, &mut ga, |x, y| x * y);
                    g.zip_assign(av, |x, y| x * y);
                    accumulate_owned(pool, &mut grads, *a, ga);
                    accumulate_owned(pool, &mut grads, *b, g);
                }
                Op::DivEps { a, b, eps } => {
                    let eps = *eps;
                    let av = &nodes[a.0].value;
                    let bv = &nodes[b.0].value;
                    let mut ga = pool.take_raw(g.rows(), g.cols());
                    g.zip_into(bv, &mut ga, |gv, y| gv / (y + eps));
                    let mut gb = pool.take_raw(g.rows(), g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            let d = bv[(r, c)] + eps;
                            gb[(r, c)] = -g[(r, c)] * av[(r, c)] / (d * d);
                        }
                    }
                    accumulate_owned(pool, &mut grads, *a, ga);
                    accumulate_owned(pool, &mut grads, *b, gb);
                    pool.give(g);
                }
                Op::Scale(a, s) => {
                    g.scale_assign(*s);
                    accumulate_owned(pool, &mut grads, *a, g);
                }
                Op::MatMul(a, b) => {
                    // dA = G·Bᵀ, dB = Aᵀ·G, via the fused transposed
                    // kernels — no transpose temporaries.
                    let av = &nodes[a.0].value;
                    let bv = &nodes[b.0].value;
                    let mut ga = pool.take_raw(av.rows(), av.cols());
                    g.matmul_nt_into(bv, &mut ga);
                    let mut gb = pool.take_raw(bv.rows(), bv.cols());
                    av.matmul_tn_into(&g, &mut gb);
                    accumulate_owned(pool, &mut grads, *a, ga);
                    accumulate_owned(pool, &mut grads, *b, gb);
                    pool.give(g);
                }
                Op::DenseMatMul { x, w, weight } => {
                    let xv = &nodes[x.0].value;
                    let mut gx = pool.take_raw(xv.rows(), xv.cols());
                    g.matmul_nt_into(weight, &mut gx);
                    sink.accumulate_product(*w, xv, &g);
                    accumulate_owned(pool, &mut grads, *x, gx);
                    pool.give(g);
                }
                Op::AddRowBroadcast { x, bias } => {
                    let mut gb = pool.take(1, g.cols());
                    for r in 0..g.rows() {
                        for (dst, src) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                            *dst += src;
                        }
                    }
                    accumulate_owned(pool, &mut grads, *x, g);
                    accumulate_owned(pool, &mut grads, *bias, gb);
                }
                Op::Tanh(x) => {
                    g.zip_assign(&node.value, |gv, y| gv * (1.0 - y * y));
                    accumulate_owned(pool, &mut grads, *x, g);
                }
                Op::Sigmoid(x) => {
                    g.zip_assign(&node.value, |gv, y| gv * y * (1.0 - y));
                    accumulate_owned(pool, &mut grads, *x, g);
                }
                Op::Relu(x) => {
                    g.zip_assign(&node.value, |gv, y| if y > 0.0 { gv } else { 0.0 });
                    accumulate_owned(pool, &mut grads, *x, g);
                }
                Op::LogEps { x, eps } => {
                    let eps = *eps;
                    g.zip_assign(&nodes[x.0].value, |gv, t| gv / (t + eps));
                    accumulate_owned(pool, &mut grads, *x, g);
                }
                Op::SoftmaxRows(x) => {
                    // In place on `g`: the row dot is read out before any
                    // element of the row is overwritten.
                    let y = &node.value;
                    for r in 0..g.rows() {
                        let dot: f64 = g.row(r).iter().zip(y.row(r)).map(|(a, b)| a * b).sum();
                        for c in 0..g.cols() {
                            g[(r, c)] = y[(r, c)] * (g[(r, c)] - dot);
                        }
                    }
                    accumulate_owned(pool, &mut grads, *x, g);
                }
                Op::NormalizeRows { x, eps } => {
                    let xv = &nodes[x.0].value;
                    let y = &node.value;
                    for r in 0..g.rows() {
                        let s: f64 = xv.row(r).iter().sum::<f64>() + eps;
                        let dot: f64 = g.row(r).iter().zip(y.row(r)).map(|(a, b)| a * b).sum();
                        for c in 0..g.cols() {
                            g[(r, c)] = (g[(r, c)] - dot) / s;
                        }
                    }
                    accumulate_owned(pool, &mut grads, *x, g);
                }
                Op::SumAll(x) => {
                    let s = g[(0, 0)];
                    let xv = &nodes[x.0].value;
                    let mut gx = pool.take_raw(xv.rows(), xv.cols());
                    gx.as_mut_slice().fill(s);
                    accumulate_owned(pool, &mut grads, *x, gx);
                    pool.give(g);
                }
                Op::Transpose(x) => {
                    let mut gx = pool.take_raw(g.cols(), g.rows());
                    g.transpose_into(&mut gx);
                    accumulate_owned(pool, &mut grads, *x, gx);
                    pool.give(g);
                }
                Op::Reshape { x } => {
                    let xv = &nodes[x.0].value;
                    let mut gx = pool.take_raw(xv.rows(), xv.cols());
                    gx.as_mut_slice().copy_from_slice(g.as_slice());
                    accumulate_owned(pool, &mut grads, *x, gx);
                    pool.give(g);
                }
                Op::GroupRows { x, groups } => {
                    // Inverse permutation: scatter row `g` back into the
                    // `n × c` column block of group `g`.
                    let xv = &nodes[x.0].value;
                    let (n, total) = xv.shape();
                    let c = total / groups;
                    let mut gx = pool.take_raw(n, total);
                    for gi in 0..*groups {
                        let src = g.row(gi);
                        for i in 0..n {
                            gx.row_mut(i)[gi * c..(gi + 1) * c]
                                .copy_from_slice(&src[i * c..(i + 1) * c]);
                        }
                    }
                    accumulate_owned(pool, &mut grads, *x, gx);
                    pool.give(g);
                }
                Op::HstackList(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let (rows, cols) = nodes[p.0].value.shape();
                        let mut gp = pool.take_raw(rows, cols);
                        for r in 0..rows {
                            gp.row_mut(r).copy_from_slice(&g.row(r)[offset..offset + cols]);
                        }
                        offset += cols;
                        accumulate_owned(pool, &mut grads, p, gp);
                    }
                    pool.give(g);
                }
                Op::TileCols { x, times } => {
                    let xv = &nodes[x.0].value;
                    let (r2, c) = xv.shape();
                    let mut gx = pool.take(r2, c);
                    for i2 in 0..r2 {
                        for t in 0..*times {
                            for (dst, &src) in
                                gx.row_mut(i2).iter_mut().zip(&g.row(i2)[t * c..(t + 1) * c])
                            {
                                *dst += src;
                            }
                        }
                    }
                    accumulate_owned(pool, &mut grads, *x, gx);
                    pool.give(g);
                }
                Op::SelectCols { x, start } => {
                    let xv = &nodes[x.0].value;
                    let mut gx = pool.take(xv.rows(), xv.cols());
                    for r in 0..g.rows() {
                        gx.row_mut(r)[*start..*start + g.cols()].copy_from_slice(g.row(r));
                    }
                    accumulate_owned(pool, &mut grads, *x, gx);
                    pool.give(g);
                }
                Op::SelectRow { x, row } => {
                    let xv = &nodes[x.0].value;
                    let mut gx = pool.take(xv.rows(), xv.cols());
                    gx.row_mut(*row).copy_from_slice(g.row(0));
                    accumulate_owned(pool, &mut grads, *x, gx);
                    pool.give(g);
                }
                Op::Dropout { x, mask } => {
                    g.zip_assign(mask, |gv, m| gv * m);
                    accumulate_owned(pool, &mut grads, *x, g);
                }
                Op::PolyConv { x, thetas, basis, saved, groups } => {
                    // Per tap k (summing over groups g):
                    //   dθ_k = Σ_g (M_k x)_gᵀ G_g
                    //   B_k|_g = G_g θ_kᵀ,  dx = Σ_k M_kᵀ B_k.
                    let groups = *groups;
                    let n = g.rows();
                    let c_out = g.cols() / groups;
                    let xv_cols = nodes[x.0].value.cols();
                    let c_in = xv_cols / groups;
                    let mut cotangents = spare_mats.pop().unwrap_or_default();
                    for (tx, &th) in saved.iter().zip(thetas) {
                        let thv = &nodes[th.0].value;
                        let mut gth = pool.take(c_in, c_out);
                        let mut b_k = pool.take(n, xv_cols);
                        for gi in 0..groups {
                            for i2 in 0..n {
                                let g_row = &g.row(i2)[gi * c_out..(gi + 1) * c_out];
                                let tx_row = &tx.row(i2)[gi * c_in..(gi + 1) * c_in];
                                for (ci, &a) in tx_row.iter().enumerate() {
                                    if a != 0.0 {
                                        for (dst, &gv) in gth.row_mut(ci).iter_mut().zip(g_row) {
                                            *dst += a * gv;
                                        }
                                    }
                                }
                                let b_row = &mut b_k.row_mut(i2)[gi * c_in..(gi + 1) * c_in];
                                for (ci, dst) in b_row.iter_mut().enumerate() {
                                    *dst += g_row
                                        .iter()
                                        .zip(thv.row(ci))
                                        .map(|(&gv, &t)| gv * t)
                                        .sum::<f64>();
                                }
                            }
                        }
                        cotangents.push(b_k);
                        accumulate_owned(pool, &mut grads, th, gth);
                    }
                    let gx = basis.adjoint_combine_pooled(&cotangents, pool);
                    accumulate_owned(pool, &mut grads, *x, gx);
                    for m in cotangents.drain(..) {
                        pool.give(m);
                    }
                    spare_mats.push(cotangents);
                    pool.give(g);
                }
                Op::GraphMaxPool { x, map, argmax } => {
                    let mut gx = pool.take(map.num_inputs(), g.cols());
                    map.max_backward_into(&g, argmax, &mut gx);
                    accumulate_owned(pool, &mut grads, *x, gx);
                    pool.give(g);
                }
                Op::Conv2d { x, kernel, bias, spec } => {
                    let xv = &nodes[x.0].value;
                    let kv = &nodes[kernel.0].value;
                    let mut gx = pool.take(spec.batch * spec.in_ch, spec.h * spec.w);
                    let mut gk = pool.take(spec.out_ch, spec.in_ch * spec.kh * spec.kw);
                    let mut gb = pool.take(1, spec.out_ch);
                    conv2d_backward_into(xv, kv, &g, spec, &mut gx, &mut gk, &mut gb);
                    accumulate_owned(pool, &mut grads, *x, gx);
                    accumulate_owned(pool, &mut grads, *kernel, gk);
                    accumulate_owned(pool, &mut grads, *bias, gb);
                    pool.give(g);
                }
                Op::MaxPool2d { x, spec, argmax } => {
                    let mut gx = pool.take(spec.batch * spec.ch, spec.h * spec.w);
                    maxpool2d_backward_into(&g, spec, argmax, &mut gx);
                    accumulate_owned(pool, &mut grads, *x, gx);
                    pool.give(g);
                }
                Op::BatchOuter { col, rows } => {
                    let p = &nodes[col.0].value;
                    let z = &nodes[rows.0].value;
                    let (beta, n2, m) = (p.rows(), z.rows(), z.cols());
                    let mut gp = pool.take(beta, 1);
                    let mut gz = pool.take(n2, m);
                    for b in 0..n2 {
                        for k in 0..beta {
                            for j in 0..m {
                                let gv = g[(b, k * m + j)];
                                gp[(k, 0)] += gv * z[(b, j)];
                                gz[(b, j)] += gv * p[(k, 0)];
                            }
                        }
                    }
                    accumulate_owned(pool, &mut grads, *col, gp);
                    accumulate_owned(pool, &mut grads, *rows, gz);
                    pool.give(g);
                }
                Op::KlLossMasked { pred, label, row_mask, eps } => {
                    // d/dŵ [w · ln((w+ε)/(ŵ+ε))] = −w/(ŵ+ε).
                    let eps = *eps;
                    let pv = &nodes[pred.0].value;
                    let go = g[(0, 0)];
                    let mut gp = pool.take(pv.rows(), pv.cols());
                    for r in 0..pv.rows() {
                        if row_mask[r] == 0.0 {
                            continue;
                        }
                        for c in 0..pv.cols() {
                            let w_hat = pv[(r, c)];
                            let w = label[(r, c)];
                            gp[(r, c)] = -go * row_mask[r] * w / (w_hat + eps);
                        }
                    }
                    accumulate_owned(pool, &mut grads, *pred, gp);
                    pool.give(g);
                }
                Op::MseMasked { pred, label, mask } => {
                    let pv = &nodes[pred.0].value;
                    let go = g[(0, 0)];
                    let count: f64 = mask.sum().max(1.0);
                    let mut gp = pool.take_raw(pv.rows(), pv.cols());
                    for r in 0..pv.rows() {
                        for c in 0..pv.cols() {
                            gp[(r, c)] =
                                go * 2.0 * mask[(r, c)] * (pv[(r, c)] - label[(r, c)]) / count;
                        }
                    }
                    accumulate_owned(pool, &mut grads, *pred, gp);
                    pool.give(g);
                }
            }
        }
        // All slots were drained above; keep the (now empty) vector so the
        // next backward pass does not reallocate it.
        self.grads = grads;
    }
}

/// Folds an owned cotangent into the gradient slot for `id`, parking the
/// delta's storage in the pool when the slot already exists.
fn accumulate_owned(
    pool: &mut BufferPool,
    grads: &mut [Option<Matrix>],
    id: NodeId,
    delta: Matrix,
) {
    match &mut grads[id.0] {
        Some(existing) => {
            assert_eq!(existing.shape(), delta.shape(), "gradient shape mismatch");
            existing.add_assign(&delta);
            pool.give(delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

/// Folds a borrowed cotangent into the gradient slot for `id` without
/// cloning: existing slots take an in-place add, empty slots receive a
/// pooled copy.
fn accumulate_ref(pool: &mut BufferPool, grads: &mut [Option<Matrix>], id: NodeId, delta: &Matrix) {
    match &mut grads[id.0] {
        Some(existing) => {
            assert_eq!(existing.shape(), delta.shape(), "gradient shape mismatch");
            existing.add_assign(delta);
        }
        slot @ None => {
            let mut m = pool.take_raw(delta.rows(), delta.cols());
            m.copy_from(delta);
            *slot = Some(m);
        }
    }
}

// ----- dense conv kernels ----------------------------------------------------
// (Forward kernels live in `crate::ops`, shared with tape-free
// inference; only the backward passes are tape-specific.)

/// Accumulates conv gradients into caller-provided **zeroed** buffers.
fn conv2d_backward_into(
    x: &Matrix,
    kernel: &Matrix,
    g: &Matrix,
    spec: &ConvSpec,
    gx: &mut Matrix,
    gk: &mut Matrix,
    gb: &mut Matrix,
) {
    let ConvSpec { batch, in_ch, out_ch, h, w, kh, kw } = *spec;
    let (ph0, pw0) = ((kh - 1) / 2, (kw - 1) / 2);
    assert_eq!(gx.shape(), (batch * in_ch, h * w), "gx shape mismatch");
    assert_eq!(gk.shape(), (out_ch, in_ch * kh * kw), "gk shape mismatch");
    assert_eq!(gb.shape(), (1, out_ch), "gb shape mismatch");
    for b in 0..batch {
        for oc in 0..out_ch {
            let orow = b * out_ch + oc;
            for i in 0..h {
                for j in 0..w {
                    let gv = g[(orow, i * w + j)];
                    if gv == 0.0 {
                        continue;
                    }
                    gb[(0, oc)] += gv;
                    for ic in 0..in_ch {
                        let xrow = b * in_ch + ic;
                        for di in 0..kh {
                            let si = i as isize + di as isize - ph0 as isize;
                            if si < 0 || si >= h as isize {
                                continue;
                            }
                            for dj in 0..kw {
                                let sj = j as isize + dj as isize - pw0 as isize;
                                if sj < 0 || sj >= w as isize {
                                    continue;
                                }
                                let kcol = ic * kh * kw + di * kw + dj;
                                let xidx = (xrow, si as usize * w + sj as usize);
                                gk[(oc, kcol)] += gv * x[xidx];
                                gx[xidx] += gv * kernel[(oc, kcol)];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Routes pooled gradients into a caller-provided **zeroed** buffer.
fn maxpool2d_backward_into(g: &Matrix, spec: &PoolSpec, argmax: &[usize], gx: &mut Matrix) {
    let PoolSpec { batch, ch, h, w, .. } = *spec;
    let (ho, wo) = (spec.out_h(), spec.out_w());
    assert_eq!(gx.shape(), (batch * ch, h * w), "pool grad shape mismatch");
    for r in 0..batch * ch {
        for o in 0..ho * wo {
            gx[(r, argmax[r * ho * wo + o])] += g[(r, o)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_are_distributions() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]));
        let y = tape.softmax_rows(x);
        let v = tape.value(y);
        for i in 0..2 {
            assert!((v.row(i).iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(v.row(i).iter().all(|&p| p > 0.0));
        }
        // Monotone in the logits.
        assert!(v[(0, 2)] > v[(0, 1)] && v[(0, 1)] > v[(0, 0)]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::from_rows(&[&[1000.0, 1001.0]]));
        let b = tape.constant(Matrix::from_rows(&[&[0.0, 1.0]]));
        let sa = tape.softmax_rows(a);
        let sb = tape.softmax_rows(b);
        let (va, vb) = (tape.value(sa).clone(), tape.value(sb).clone());
        assert!(va.approx_eq(&vb, 1e-12));
        assert!(va.is_finite());
    }

    #[test]
    fn normalize_rows_normalises() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[2.0, 2.0], &[1.0, 3.0]]));
        let y = tape.normalize_rows(x, 0.0);
        assert_eq!(tape.value(y), &Matrix::from_rows(&[&[0.5, 0.5], &[0.25, 0.75]]));
    }

    #[test]
    fn conv2d_identity_kernel_is_identity() {
        // 1×1 kernel with weight 1 and zero bias reproduces the input.
        let mut tape = Tape::new();
        let spec = ConvSpec { batch: 2, in_ch: 1, out_ch: 1, h: 3, w: 4, kh: 1, kw: 1 };
        let input = Matrix::from_fn(2, 12, |i, j| (i * 12 + j) as f64);
        let x = tape.constant(input.clone());
        let k = tape.constant(Matrix::from_vec(1, 1, vec![1.0]));
        let b = tape.constant(Matrix::zeros(1, 1));
        let y = tape.conv2d(x, k, b, spec);
        assert_eq!(tape.value(y), &input);
    }

    #[test]
    fn conv2d_same_padding_shapes() {
        let mut tape = Tape::new();
        let spec = ConvSpec { batch: 1, in_ch: 2, out_ch: 3, h: 4, w: 5, kh: 2, kw: 2 };
        let x = tape.constant(Matrix::zeros(2, 20));
        let k = tape.constant(Matrix::zeros(3, 8));
        let b = tape.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let y = tape.conv2d(x, k, b, spec);
        assert_eq!(tape.value(y).shape(), (3, 20));
        // Zero input, zero kernel: output = bias per channel.
        assert!(tape.value(y).row(0).iter().all(|&v| v == 1.0));
        assert!(tape.value(y).row(2).iter().all(|&v| v == 3.0));
    }

    #[test]
    fn maxpool2d_known_values() {
        let mut tape = Tape::new();
        // One 2×4 image: [[1,5,2,0],[3,4,9,8]] pooled 2×2 -> [5, 9].
        let spec = PoolSpec { batch: 1, ch: 1, h: 2, w: 4, ph: 2, pw: 2 };
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 9.0, 8.0]]));
        let y = tape.max_pool2d(x, spec);
        assert_eq!(tape.value(y), &Matrix::from_rows(&[&[5.0, 9.0]]));
    }

    #[test]
    fn batch_outer_known_values() {
        let mut tape = Tape::new();
        let col = tape.constant(Matrix::from_rows(&[&[2.0], &[3.0]])); // β = 2
        let rows = tape.constant(Matrix::from_rows(&[&[1.0, 10.0], &[5.0, 7.0]])); // n=2, m=2
        let y = tape.batch_outer(col, rows);
        // Block row 0: [2·1, 2·10, 3·1, 3·10].
        assert_eq!(
            tape.value(y),
            &Matrix::from_rows(&[&[2.0, 20.0, 3.0, 30.0], &[10.0, 14.0, 15.0, 21.0]])
        );
    }

    #[test]
    fn kl_loss_zero_for_exact_prediction() {
        let mut tape = Tape::new();
        let label = Matrix::from_rows(&[&[0.5, 0.5], &[0.9, 0.1]]);
        let pred = tape.constant(label.clone());
        let loss = tape.kl_loss_masked(pred, label, vec![1.0, 1.0], 1e-9);
        assert!(tape.value(loss)[(0, 0)].abs() < 1e-9);
    }

    #[test]
    fn kl_loss_ignores_masked_rows() {
        let mut tape = Tape::new();
        let label = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let pred = tape.constant(Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]));
        // Row 1 is badly wrong but masked out.
        let loss = tape.kl_loss_masked(pred, label, vec![1.0, 0.0], 1e-9);
        assert!(tape.value(loss)[(0, 0)].abs() < 1e-9);
    }

    #[test]
    fn mse_masked_counts_only_masked_cells() {
        let mut tape = Tape::new();
        let pred = tape.constant(Matrix::from_rows(&[&[1.0], &[5.0]]));
        let label = Matrix::from_rows(&[&[0.0], &[0.0]]);
        let mask = Matrix::from_rows(&[&[1.0], &[0.0]]);
        let loss = tape.mse_masked(pred, label, mask);
        assert_eq!(tape.value(loss)[(0, 0)], 1.0); // (1-0)² / 1
    }

    #[test]
    fn tile_and_select_are_inverse_on_first_block() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
        let tiled = tape.tile_cols(x, 3);
        assert_eq!(tape.value(tiled).cols(), 6);
        let back = tape.select_cols(tiled, 2, 2);
        assert_eq!(tape.value(back), &Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn transpose_and_reshape_values() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let t = tape.transpose(x);
        assert_eq!(tape.value(t), &Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
        let r = tape.reshape(x, 1, 4);
        assert_eq!(tape.value(r), &Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
    }

    #[test]
    fn backward_requires_scalar_loss() {
        let mut store = ParamStore::new();
        let id = store.add("x", Matrix::zeros(2, 2));
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tape.backward(x, &mut store);
        }));
        assert!(result.is_err(), "non-scalar loss must panic");
    }
}
