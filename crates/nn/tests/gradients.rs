//! Finite-difference validation of every tape operation's backward rule.

use std::sync::Arc;

use gcwc_graph::{ChebyshevBasis, PoolingMap, RandomWalkBasis};
use gcwc_linalg::rng::seeded;
use gcwc_linalg::tile::TILED_MIN_WORK;
use gcwc_linalg::{CsrMatrix, Matrix};
use gcwc_nn::gradcheck::{assert_gradients, assert_gradients_buffered};
use gcwc_nn::{ConvSpec, Dense, GradBuffer, NodeId, ParamStore, PoolSpec, Tape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

const TOL: f64 = 1e-5;

fn rand_param(
    store: &mut ParamStore,
    name: &str,
    r: usize,
    c: usize,
    seed: u64,
) -> gcwc_nn::ParamId {
    let mut rng = seeded(seed);
    store.add(name, gcwc_nn::init::glorot_uniform(&mut rng, r, c))
}

/// A generic scalarisation: weighted sum so gradients are non-uniform.
fn weighted_sum(tape: &mut Tape, x: gcwc_nn::NodeId) -> gcwc_nn::NodeId {
    let v = tape.value(x).clone();
    let weights =
        Matrix::from_fn(v.rows(), v.cols(), |i, j| 0.3 + 0.1 * (i as f64) - 0.07 * (j as f64));
    let w = tape.constant(weights);
    let prod = tape.mul(x, w);
    tape.sum_all(prod)
}

#[test]
fn grad_add_sub_mul() {
    let mut store = ParamStore::new();
    let a = rand_param(&mut store, "a", 3, 4, 1);
    let b = rand_param(&mut store, "b", 3, 4, 2);
    assert_gradients(
        &mut store,
        |tape, store| {
            let an = tape.param(store, a);
            let bn = tape.param(store, b);
            let s = tape.add(an, bn);
            let d = tape.sub(s, bn);
            let m = tape.mul(d, s);
            weighted_sum(tape, m)
        },
        TOL,
    );
}

#[test]
fn grad_div_eps() {
    let mut store = ParamStore::new();
    let a = rand_param(&mut store, "a", 2, 3, 3);
    // Keep denominators away from zero.
    let mut rng = seeded(4);
    let b = store
        .add("b", Matrix::from_fn(2, 3, |_, _| 1.0 + gcwc_linalg::rng::normal(&mut rng).abs()));
    assert_gradients(
        &mut store,
        |tape, store| {
            let an = tape.param(store, a);
            let bn = tape.param(store, b);
            let q = tape.div_eps(an, bn, 1e-6);
            weighted_sum(tape, q)
        },
        TOL,
    );
}

#[test]
fn grad_matmul_chain() {
    let mut store = ParamStore::new();
    let a = rand_param(&mut store, "a", 3, 4, 5);
    let b = rand_param(&mut store, "b", 4, 2, 6);
    let c = rand_param(&mut store, "c", 2, 3, 7);
    assert_gradients(
        &mut store,
        |tape, store| {
            let an = tape.param(store, a);
            let bn = tape.param(store, b);
            let cn = tape.param(store, c);
            let ab = tape.matmul(an, bn);
            let abc = tape.matmul(ab, cn);
            weighted_sum(tape, abc)
        },
        TOL,
    );
}

#[test]
fn grad_bias_broadcast() {
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", 4, 3, 8);
    let b = rand_param(&mut store, "b", 1, 3, 9);
    assert_gradients(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let bn = tape.param(store, b);
            let y = tape.add_row_broadcast(xn, bn);
            weighted_sum(tape, y)
        },
        TOL,
    );
}

#[test]
fn grad_activations() {
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", 3, 3, 10);
    assert_gradients(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let t = tape.tanh(xn);
            let s = tape.sigmoid(t);
            weighted_sum(tape, s)
        },
        TOL,
    );
}

#[test]
fn grad_relu() {
    let mut store = ParamStore::new();
    // Offsets keep entries away from the kink at 0 where the numeric
    // derivative is undefined.
    let mut rng = seeded(11);
    let x = store.add(
        "x",
        Matrix::from_fn(3, 3, |_, _| {
            let v = gcwc_linalg::rng::normal(&mut rng);
            if v.abs() < 0.2 {
                v + 0.5
            } else {
                v
            }
        }),
    );
    assert_gradients(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let y = tape.relu(xn);
            weighted_sum(tape, y)
        },
        TOL,
    );
}

#[test]
fn grad_log_and_pow() {
    let mut store = ParamStore::new();
    let mut rng = seeded(12);
    let x = store
        .add("x", Matrix::from_fn(2, 3, |_, _| 0.5 + gcwc_linalg::rng::normal(&mut rng).abs()));
    assert_gradients(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let l = tape.log_eps(xn, 1e-6);
            let p = tape.mul(xn, xn); // x², one node feeding both factors
            let s = tape.add(l, p);
            weighted_sum(tape, s)
        },
        TOL,
    );
}

#[test]
fn grad_softmax_rows() {
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", 4, 5, 13);
    assert_gradients(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let y = tape.softmax_rows(xn);
            weighted_sum(tape, y)
        },
        TOL,
    );
}

#[test]
fn grad_normalize_rows() {
    let mut store = ParamStore::new();
    let mut rng = seeded(14);
    let x = store
        .add("x", Matrix::from_fn(3, 4, |_, _| 0.3 + gcwc_linalg::rng::normal(&mut rng).abs()));
    assert_gradients(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let y = tape.normalize_rows(xn, 1e-9);
            weighted_sum(tape, y)
        },
        TOL,
    );
}

#[test]
fn grad_reshape_hstack_select() {
    let mut store = ParamStore::new();
    let a = rand_param(&mut store, "a", 3, 4, 15);
    let b = rand_param(&mut store, "b", 3, 2, 16);
    assert_gradients(
        &mut store,
        |tape, store| {
            let an = tape.param(store, a);
            let bn = tape.param(store, b);
            let stacked = tape.hstack(&[an, bn]); // 3x6
            let reshaped = tape.reshape(stacked, 2, 9);
            let row = tape.select_row(reshaped, 1);
            weighted_sum(tape, row)
        },
        TOL,
    );
}

#[test]
fn grad_dropout_mask_is_linear() {
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", 3, 3, 17);
    let mask = gcwc_nn::dropout_mask(&mut seeded(18), 3, 3, 0.4);
    assert_gradients(
        &mut store,
        move |tape, store| {
            let xn = tape.param(store, x);
            let y = tape.dropout(xn, mask.clone());
            weighted_sum(tape, y)
        },
        TOL,
    );
}

fn path_adjacency(n: usize) -> CsrMatrix {
    CsrMatrix::from_triplets(n, n, (0..n - 1).flat_map(|i| [(i, i + 1, 1.0), (i + 1, i, 1.0)]))
}

#[test]
fn grad_chebyshev_conv() {
    let mut store = ParamStore::new();
    let n = 6;
    let (c_in, c_out, k) = (3, 2, 4);
    let x = rand_param(&mut store, "x", n, c_in, 19);
    let thetas: Vec<_> = (0..k)
        .map(|i| rand_param(&mut store, &format!("theta{i}"), c_in, c_out, 20 + i as u64))
        .collect();
    let basis: Arc<dyn gcwc_graph::PolyBasis> =
        Arc::new(ChebyshevBasis::from_adjacency(&path_adjacency(n), k));
    assert_gradients(
        &mut store,
        move |tape, store| {
            let xn = tape.param(store, x);
            let th: Vec<_> = thetas.iter().map(|&t| tape.param(store, t)).collect();
            let y = tape.poly_conv(xn, &th, Arc::clone(&basis));
            weighted_sum(tape, y)
        },
        TOL,
    );
}

#[test]
fn grad_random_walk_conv() {
    let mut store = ParamStore::new();
    let n = 5;
    let (c_in, c_out, k) = (2, 3, 3);
    let x = rand_param(&mut store, "x", n, c_in, 30);
    let thetas: Vec<_> = (0..k)
        .map(|i| rand_param(&mut store, &format!("theta{i}"), c_in, c_out, 31 + i as u64))
        .collect();
    let basis: Arc<dyn gcwc_graph::PolyBasis> =
        Arc::new(RandomWalkBasis::from_adjacency(&path_adjacency(n), k));
    assert_gradients(
        &mut store,
        move |tape, store| {
            let xn = tape.param(store, x);
            let th: Vec<_> = thetas.iter().map(|&t| tape.param(store, t)).collect();
            let y = tape.poly_conv(xn, &th, Arc::clone(&basis));
            weighted_sum(tape, y)
        },
        TOL,
    );
}

#[test]
fn grad_graph_max_pool() {
    let mut store = ParamStore::new();
    // Values spread out so the argmax is stable under the probe step.
    let x = store.add("x", Matrix::from_fn(6, 2, |i, j| (i * 2 + j) as f64 * 0.7 - 3.0));
    let map = Arc::new(PoolingMap::new(vec![vec![0, 1], vec![2, 3, 4], vec![5]], 6));
    assert_gradients(
        &mut store,
        move |tape, store| {
            let xn = tape.param(store, x);
            let y = tape.graph_max_pool(xn, Arc::clone(&map));
            weighted_sum(tape, y)
        },
        TOL,
    );
}

#[test]
fn grad_conv2d() {
    let mut store = ParamStore::new();
    let spec = ConvSpec { batch: 2, in_ch: 2, out_ch: 3, h: 4, w: 5, kh: 2, kw: 2 };
    let x = rand_param(&mut store, "x", spec.batch * spec.in_ch, spec.h * spec.w, 40);
    let k = rand_param(&mut store, "k", spec.out_ch, spec.in_ch * spec.kh * spec.kw, 41);
    let b = rand_param(&mut store, "b", 1, spec.out_ch, 42);
    assert_gradients(
        &mut store,
        move |tape, store| {
            let xn = tape.param(store, x);
            let kn = tape.param(store, k);
            let bn = tape.param(store, b);
            let y = tape.conv2d(xn, kn, bn, spec);
            weighted_sum(tape, y)
        },
        TOL,
    );
}

#[test]
fn grad_maxpool2d() {
    let mut store = ParamStore::new();
    let spec = PoolSpec { batch: 2, ch: 2, h: 4, w: 6, ph: 2, pw: 2 };
    // Distinct values keep argmax stable around the finite-difference probe.
    let x = store.add(
        "x",
        Matrix::from_fn(spec.batch * spec.ch, spec.h * spec.w, |i, j| {
            ((i * 31 + j * 17) % 97) as f64 * 0.1
        }),
    );
    assert_gradients(
        &mut store,
        move |tape, store| {
            let xn = tape.param(store, x);
            let y = tape.max_pool2d(xn, spec);
            weighted_sum(tape, y)
        },
        TOL,
    );
}

#[test]
fn grad_batch_outer() {
    let mut store = ParamStore::new();
    let col = rand_param(&mut store, "col", 4, 1, 50);
    let rows = rand_param(&mut store, "rows", 3, 5, 51);
    assert_gradients(
        &mut store,
        |tape, store| {
            let c = tape.param(store, col);
            let r = tape.param(store, rows);
            let y = tape.batch_outer(c, r);
            weighted_sum(tape, y)
        },
        TOL,
    );
}

#[test]
fn grad_kl_loss_masked() {
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", 4, 5, 60);
    let label = {
        let mut rng = seeded(61);
        let mut m = Matrix::from_fn(4, 5, |_, _| gcwc_linalg::rng::normal(&mut rng).abs() + 0.1);
        for i in 0..4 {
            let s: f64 = m.row(i).iter().sum();
            for v in m.row_mut(i) {
                *v /= s;
            }
        }
        m
    };
    let mask = vec![1.0, 0.0, 1.0, 1.0];
    assert_gradients(
        &mut store,
        move |tape, store| {
            let xn = tape.param(store, x);
            let pred = tape.softmax_rows(xn);
            tape.kl_loss_masked(pred, label.clone(), mask.clone(), 1e-6)
        },
        TOL,
    );
}

#[test]
fn grad_mse_masked() {
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", 3, 4, 70);
    let label = Matrix::from_fn(3, 4, |i, j| (i + j) as f64 * 0.2);
    let mask = Matrix::from_fn(3, 4, |i, _| if i == 1 { 0.0 } else { 1.0 });
    assert_gradients(
        &mut store,
        move |tape, store| {
            let xn = tape.param(store, x);
            let pred = tape.sigmoid(xn);
            tape.mse_masked(pred, label.clone(), mask.clone())
        },
        TOL,
    );
}

/// End-to-end composite: a miniature GCWC-like stack (graph conv → pool →
/// dense → softmax → KL) must gradient-check as a whole.
#[test]
fn grad_composite_gcwc_like_stack() {
    let mut store = ParamStore::new();
    let n = 6;
    let (m_buckets, f) = (3, 4);
    let x = rand_param(&mut store, "x", n, m_buckets, 80);
    let k = 3;
    let thetas: Vec<_> = (0..k)
        .map(|i| rand_param(&mut store, &format!("th{i}"), m_buckets, f, 81 + i as u64))
        .collect();
    let fc_w = rand_param(&mut store, "fc.w", 3 * f, n * m_buckets, 90);
    let fc_b = rand_param(&mut store, "fc.b", 1, n * m_buckets, 91);
    let basis: Arc<dyn gcwc_graph::PolyBasis> =
        Arc::new(ChebyshevBasis::from_adjacency(&path_adjacency(n), k));
    let map = Arc::new(PoolingMap::new(vec![vec![0, 1], vec![2, 3], vec![4, 5]], n));
    let label = {
        let mut l = Matrix::filled(n, m_buckets, 1.0 / m_buckets as f64);
        l[(0, 0)] = 0.5;
        l[(0, 1)] = 0.3;
        l[(0, 2)] = 0.2;
        l
    };
    let mask = vec![1.0, 1.0, 0.0, 1.0, 1.0, 0.0];
    assert_gradients(
        &mut store,
        move |tape, store| {
            let xn = tape.param(store, x);
            let th: Vec<_> = thetas.iter().map(|&t| tape.param(store, t)).collect();
            let conv = tape.poly_conv(xn, &th, Arc::clone(&basis));
            let act = tape.tanh(conv);
            let pooled = tape.graph_max_pool(act, Arc::clone(&map));
            let flat = tape.reshape(pooled, 1, 3 * f);
            let w = tape.param(store, fc_w);
            let b = tape.param(store, fc_b);
            let z = tape.matmul(flat, w);
            let z = tape.add_row_broadcast(z, b);
            let z = tape.reshape(z, n, m_buckets);
            let pred = tape.softmax_rows(z);
            tape.kl_loss_masked(pred, label.clone(), mask.clone(), 1e-6)
        },
        1e-4,
    );
}

#[test]
fn grad_group_rows() {
    let mut store = ParamStore::new();
    let a = rand_param(&mut store, "a", 5, 6, 41);
    assert_gradients_buffered(
        &mut store,
        |tape, store| {
            let an = tape.param(store, a);
            let rows = tape.group_rows(an, 3); // 3 x 10
            weighted_sum(tape, rows)
        },
        TOL,
    );
}

/// `group_rows` is element-for-element the stacked
/// `reshape(select_cols(x, g*c, c))` rows.
#[test]
fn group_rows_matches_select_reshape() {
    let mut store = ParamStore::new();
    let a = rand_param(&mut store, "a", 5, 6, 42);
    let mut tape = Tape::new();
    let an = tape.param(&store, a);
    let grouped = tape.group_rows(an, 3);
    let mut rows = Vec::new();
    for g in 0..3 {
        let block = tape.select_cols(an, g * 2, 2);
        rows.push(tape.reshape(block, 1, 10));
    }
    let gv = tape.value(grouped).clone();
    for (g, &r) in rows.iter().enumerate() {
        let rv = tape.value(r);
        for (x, y) in gv.row(g).iter().zip(rv.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "group {g} diverged");
        }
    }
}

#[test]
fn grad_transpose() {
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", 3, 5, 100);
    assert_gradients(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let t = tape.transpose(xn);
            weighted_sum(tape, t)
        },
        TOL,
    );
}

#[test]
fn grad_select_cols() {
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", 4, 6, 110);
    assert_gradients(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let block = tape.select_cols(xn, 2, 3);
            weighted_sum(tape, block)
        },
        TOL,
    );
}

#[test]
fn grad_grouped_poly_conv() {
    let mut store = ParamStore::new();
    let n = 6;
    let (groups, c_in, c_out, k) = (3usize, 2usize, 4usize, 3usize);
    let x = rand_param(&mut store, "x", n, groups * c_in, 120);
    let thetas: Vec<_> = (0..k)
        .map(|i| rand_param(&mut store, &format!("gth{i}"), c_in, c_out, 121 + i as u64))
        .collect();
    let basis: Arc<dyn gcwc_graph::PolyBasis> =
        Arc::new(ChebyshevBasis::from_adjacency(&path_adjacency(n), k));
    assert_gradients(
        &mut store,
        move |tape, store| {
            let xn = tape.param(store, x);
            let th: Vec<_> = thetas.iter().map(|&t| tape.param(store, t)).collect();
            let y = tape.poly_conv_grouped(xn, &th, Arc::clone(&basis), groups);
            weighted_sum(tape, y)
        },
        TOL,
    );
}

/// The grouped op must agree with running each group through the plain
/// op separately.
#[test]
fn grouped_poly_conv_matches_separate_groups() {
    let mut store = ParamStore::new();
    let n = 5;
    let (groups, c_in, c_out, k) = (2usize, 3usize, 2usize, 4usize);
    let x = rand_param(&mut store, "x", n, groups * c_in, 130);
    let thetas: Vec<_> = (0..k)
        .map(|i| rand_param(&mut store, &format!("sth{i}"), c_in, c_out, 131 + i as u64))
        .collect();
    let basis: Arc<dyn gcwc_graph::PolyBasis> =
        Arc::new(ChebyshevBasis::from_adjacency(&path_adjacency(n), k));

    let mut tape = Tape::new();
    let xn = tape.param(&store, x);
    let th: Vec<_> = thetas.iter().map(|&t| tape.param(&store, t)).collect();
    let grouped = tape.poly_conv_grouped(xn, &th, Arc::clone(&basis), groups);

    for g in 0..groups {
        let block_in = tape.select_cols(xn, g * c_in, c_in);
        let single = tape.poly_conv(block_in, &th, Arc::clone(&basis));
        let block_out = tape.select_cols(grouped, g * c_out, c_out);
        let sv = tape.value(single).clone();
        assert!(tape.value(block_out).approx_eq(&sv, 1e-10), "group {g} mismatch");
    }
}

#[test]
fn grad_tile_cols() {
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", 2, 3, 140);
    assert_gradients(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let tiled = tape.tile_cols(xn, 4);
            weighted_sum(tape, tiled)
        },
        TOL,
    );
}

#[test]
fn grad_scale() {
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", 3, 4, 150);
    assert_gradients(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let scaled = tape.scale(xn, -1.7);
            weighted_sum(tape, scaled)
        },
        TOL,
    );
}

/// Every op class touched by the gradient-buffer refactor — `Param`
/// accumulation, the `Arc`-held graph ops (`PolyConv`, grouped
/// variant, `GraphMaxPool`), dense conv/pool and both losses — also
/// passes gradcheck when the backward pass routes through a
/// `GradBuffer` merged into the store.
#[test]
fn buffered_gradcheck_covers_refactored_ops() {
    // Graph stack: poly_conv + graph_max_pool + KL loss, with a
    // parameter read twice so the buffer accumulates in place.
    let n = 6;
    let k = 3;
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", n, 2, 160);
    let thetas: Vec<_> =
        (0..k).map(|i| rand_param(&mut store, &format!("th{i}"), 2, 2, 161 + i as u64)).collect();
    let basis: Arc<dyn gcwc_graph::PolyBasis> =
        Arc::new(ChebyshevBasis::from_adjacency(&path_adjacency(n), k));
    let map = Arc::new(PoolingMap::new(vec![vec![0, 1], vec![2, 3], vec![4, 5]], n));
    assert_gradients_buffered(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, x);
            let th: Vec<_> = thetas.iter().map(|&t| tape.param(store, t)).collect();
            let conv = tape.poly_conv(xn, &th, Arc::clone(&basis));
            let act = tape.tanh(conv);
            let pooled = tape.graph_max_pool(act, Arc::clone(&map));
            let twice = tape.add(pooled, pooled); // double read → in-place accumulate
            weighted_sum(tape, twice)
        },
        1e-4,
    );

    // Dense stack: conv2d + max_pool2d + MSE-style loss.
    let spec = ConvSpec { batch: 2, in_ch: 1, out_ch: 2, h: 4, w: 3, kh: 2, kw: 2 };
    let mut store = ParamStore::new();
    let xs = rand_param(&mut store, "x", 2, 12, 170);
    let kern = rand_param(&mut store, "k", 2, 4, 171);
    let bias = rand_param(&mut store, "b", 1, 2, 172);
    assert_gradients_buffered(
        &mut store,
        |tape, store| {
            let xn = tape.param(store, xs);
            let kn = tape.param(store, kern);
            let bn = tape.param(store, bias);
            let y = tape.conv2d(xn, kn, bn, spec);
            let act = tape.sigmoid(y);
            let pooled =
                tape.max_pool2d(act, PoolSpec { batch: 2, ch: 2, h: 4, w: 3, ph: 2, pw: 1 });
            weighted_sum(tape, pooled)
        },
        1e-4,
    );
}

/// The merge path itself: `backward` into a `GradBuffer` followed by
/// `merge_into` must produce gradients bit-identical to `backward`
/// straight into the `ParamStore`, including multi-sample sequential
/// accumulation in sample order.
#[test]
fn backward_via_buffer_merge_is_bitwise_identical() {
    let n = 6;
    let k = 3;
    let mut store = ParamStore::new();
    let x = rand_param(&mut store, "x", n, 2, 180);
    let thetas: Vec<_> =
        (0..k).map(|i| rand_param(&mut store, &format!("th{i}"), 2, 2, 181 + i as u64)).collect();
    let basis: Arc<dyn gcwc_graph::PolyBasis> =
        Arc::new(ChebyshevBasis::from_adjacency(&path_adjacency(n), k));

    let build = |store: &ParamStore, shift: f64| {
        let mut tape = Tape::new();
        let xn = tape.param(store, x);
        let th: Vec<_> = thetas.iter().map(|&t| tape.param(store, t)).collect();
        let conv = tape.poly_conv(xn, &th, Arc::clone(&basis));
        let act = tape.tanh(conv);
        let shifted = tape.scale(act, 1.0 + shift);
        let loss = weighted_sum(&mut tape, shifted);
        (tape, loss)
    };

    // Two "samples" (shifted losses), accumulated in order: direct path.
    let mut direct = store.clone();
    direct.zero_grads();
    for shift in [0.0, 0.25] {
        let (mut tape, loss) = build(&direct, shift);
        tape.backward(loss, &mut direct);
    }

    // Buffered path: one private buffer per sample, merged in order.
    let mut merged = store.clone();
    merged.zero_grads();
    let buffers: Vec<GradBuffer> = [0.0, 0.25]
        .iter()
        .map(|&shift| {
            let (mut tape, loss) = build(&merged, shift);
            let mut buffer = GradBuffer::new();
            tape.backward(loss, &mut buffer);
            buffer
        })
        .collect();
    for buffer in &buffers {
        buffer.merge_into(&mut merged);
    }

    for ((id, pd), (_, pm)) in direct.iter().zip(merged.iter()) {
        for (a, b) in pd.grad.as_slice().iter().zip(pm.grad.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "gradient of {id:?} diverged");
        }
    }
}

/// An entry of a factored-gradient input: mostly finite, with exact
/// zeros and `−0.0`, plus `±∞` and NaN when `non_finite` is set.
fn factor_entry(rng: &mut StdRng, non_finite: bool) -> f64 {
    match rng.random_range(0..if non_finite { 12 } else { 9 }) {
        0 | 1 => 0.0,
        2 => -0.0,
        9 => f64::INFINITY,
        10 => f64::NEG_INFINITY,
        11 => f64::NAN,
        _ => rng.random::<f64>() * 4.0 - 2.0,
    }
}

/// `Σ_t sum(dense(x_t) ⊙ g_t)` over one sample's applications of the
/// same layer, so that the cotangent reaching application `t` is
/// exactly `g_t`.
fn dense_sample_loss(
    tape: &mut Tape,
    store: &ParamStore,
    dense: &Dense,
    apps: &[(Matrix, Matrix)],
) -> NodeId {
    let mut loss = None;
    for (x, g) in apps {
        let xn = tape.constant_copied(x);
        let y = dense.apply(tape, store, xn);
        let gn = tape.constant_copied(g);
        let weighted = tape.mul(y, gn);
        let term = tape.sum_all(weighted);
        loss = Some(match loss {
            None => term,
            Some(l) => tape.add(l, term),
        });
    }
    loss.expect("every sample applies the layer")
}

/// A gradient's bits, NaN read as `None`: a gradient that the reference
/// makes NaN need only be NaN (which NaN an addition of two NaNs returns
/// depends on the operand order the code generator picks).
fn bits_nan_alike(m: &Matrix) -> Vec<Option<u64>> {
    m.as_slice().iter().map(|v| (!v.is_nan()).then(|| v.to_bits())).collect()
}

/// `xᵀ·g` by `matmul_tn_into`, the per-sample weight gradient a dense
/// layer materialised before its gradient was factored.
fn tn_product(x: &Matrix, g: &Matrix) -> Matrix {
    let mut m = Matrix::zeros(x.cols(), g.cols());
    x.matmul_tn_into(g, &mut m);
    m
}

/// One case of `factored_dense_gradients_match_the_materialised_composition`.
fn factored_case(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = seeded(seed);
    // The tape asserts finite values in debug builds, so ±∞ and NaN
    // reach it only in release builds (CI runs both).
    let non_finite = !cfg!(debug_assertions);
    // One case in four sizes every `xᵀ·g` at or above TILED_MIN_WORK,
    // so the reference `matmul_tn_into` runs its tiled loop; the others
    // stay below it and run the naive one.
    let large = rng.random_range(0..4usize) == 0;
    let dims = if large { 40..73usize } else { 1..41 };
    let (fan_in, fan_out) = (rng.random_range(dims.clone()), rng.random_range(dims));
    let min_rows = if large { TILED_MIN_WORK.div_ceil(fan_in * fan_out) } else { 1 };
    let samples = rng.random_range(1..6usize);
    let twice = rng.random_range(0..samples);
    let mut store = ParamStore::new();
    let dense = Dense::new(&mut store, &mut rng, "fc", fan_in, fan_out);
    let mut batch: Vec<Vec<(Matrix, Matrix)>> = Vec::new();
    for s in 0..samples {
        let mut apps = Vec::new();
        for _ in 0..if s == twice { 2 } else { 1 } {
            let rows = rng.random_range(min_rows..min_rows + 9);
            let x = Matrix::from_fn(rows, fan_in, |_, _| factor_entry(&mut rng, non_finite));
            let g = Matrix::from_fn(rows, fan_out, |_, _| factor_entry(&mut rng, non_finite));
            apps.push((x, g));
        }
        batch.push(apps);
    }

    // The composition before factoring: each application's product
    // materialised, in the order backward visits them (the last
    // application first), then added with `accumulate_grad` in
    // sample order — through a per-sample buffer slot, or straight
    // into the store.
    let mut via_buffer = store.clone();
    let mut via_store = store.clone();
    for apps in &batch {
        let mut slot: Option<Matrix> = None;
        for (x, g) in apps.iter().rev() {
            let product = tn_product(x, g);
            via_store.accumulate_grad(dense.w, &product);
            match &mut slot {
                Some(acc) => acc.add_assign(&product),
                None => slot = Some(product),
            }
        }
        via_buffer.accumulate_grad(dense.w, &slot.expect("one application at least"));
    }

    let mut tape = Tape::new();
    let mut buffers = vec![GradBuffer::new(); samples];
    let mut direct = store.clone();
    for (apps, buffer) in batch.iter().zip(&mut buffers) {
        tape.reset();
        let loss = dense_sample_loss(&mut tape, &store, &dense, apps);
        tape.backward(loss, buffer);
        tape.reset();
        let loss = dense_sample_loss(&mut tape, &store, &dense, apps);
        tape.backward(loss, &mut direct);
    }
    let mut batched = store.clone();
    GradBuffer::merge_batch(&buffers, &mut batched);
    let mut one_by_one = store.clone();
    for buffer in &buffers {
        buffer.merge_into(&mut one_by_one);
    }

    let want = bits_nan_alike(via_buffer.grad(dense.w));
    prop_assert_eq!(bits_nan_alike(batched.grad(dense.w)), want.clone(), "batch merge");
    prop_assert_eq!(bits_nan_alike(one_by_one.grad(dense.w)), want, "merge_into");
    prop_assert_eq!(
        bits_nan_alike(direct.grad(dense.w)),
        bits_nan_alike(via_store.grad(dense.w)),
        "backward into the store"
    );
    Ok(())
}

proptest! {
    /// A dense layer's weight gradient, passed to the sink as its
    /// factors and formed while merging, is bit-identical to the
    /// composition it replaced — per-sample `matmul_tn_into` products
    /// added in sample order — on all three paths: the batch merge,
    /// `merge_into` one buffer at a time, and `backward` straight into a
    /// `ParamStore`. Inputs hold exact zeros (the skipped terms), `−0.0`
    /// and, in release builds, `±∞` and NaN; one sample applies the
    /// layer twice. Some cases are large enough that the reference
    /// products run the tiled loop.
    #[test]
    fn factored_dense_gradients_match_the_materialised_composition(seed in 0u64..u64::MAX) {
        factored_case(seed)?;
    }
}
