//! The Adam optimizer with exponential learning-rate decay, L2
//! regularisation (weight decay) and global-norm gradient clipping —
//! the knobs of the paper's Table III (LR, Decay, Regul).

use gcwc_linalg::Matrix;

use crate::params::ParamStore;

/// Shared training hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OptimConfig {
    /// Initial learning rate (Table III "LR").
    pub learning_rate: f64,
    /// Per-epoch multiplicative decay (Table III "Decay").
    pub lr_decay: f64,
    /// L2 weight-decay coefficient (Table III "Regul").
    pub weight_decay: f64,
    /// Global gradient-norm clip (0 disables clipping).
    pub grad_clip: f64,
}

impl Default for OptimConfig {
    fn default() -> Self {
        Self { learning_rate: 1e-3, lr_decay: 1.0, weight_decay: 0.0, grad_clip: 5.0 }
    }
}

/// The Adam optimizer (Kingma & Ba) with the paper's schedule knobs.
#[derive(Debug)]
pub struct Adam {
    cfg: OptimConfig,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    epoch: u32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

/// A deep copy of an [`Adam`] optimizer's mutable state: the step and
/// epoch counters plus both moment estimates. Training checkpoints
/// persist it, so a resumed run continues bit-identically.
#[derive(Clone, Debug, Default)]
pub struct AdamState {
    /// Update step counter (bias-correction exponent).
    pub t: u64,
    /// Completed epochs (learning-rate decay exponent).
    pub epoch: u32,
    /// First-moment estimates, one per parameter.
    pub m: Vec<Matrix>,
    /// Second-moment estimates, one per parameter.
    pub v: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer for the parameters currently in `store`.
    pub fn new(store: &ParamStore, cfg: OptimConfig) -> Self {
        let m = store.iter().map(|(_, p)| Matrix::zeros(p.value.rows(), p.value.cols())).collect();
        let v = store.iter().map(|(_, p)| Matrix::zeros(p.value.rows(), p.value.cols())).collect();
        Self { cfg, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, epoch: 0, m, v }
    }

    /// Current effective learning rate (after decay).
    pub fn effective_lr(&self) -> f64 {
        self.cfg.learning_rate * self.cfg.lr_decay.powi(self.epoch as i32)
    }

    /// Signals the end of an epoch (applies learning-rate decay).
    pub fn end_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Copies the optimizer's mutable state into `dst`, reusing its
    /// buffers when the shapes already match (no allocation once warm).
    pub fn save_state(&self, dst: &mut AdamState) {
        dst.t = self.t;
        dst.epoch = self.epoch;
        copy_matrices(&self.m, &mut dst.m);
        copy_matrices(&self.v, &mut dst.v);
    }

    /// Restores state captured by [`Adam::save_state`].
    ///
    /// # Panics
    /// Panics if `src` has a different number of moment matrices than
    /// this optimizer (state from a different parameter set).
    pub fn restore_state(&mut self, src: &AdamState) {
        assert_eq!(src.m.len(), self.m.len(), "Adam state is for a different parameter set");
        assert_eq!(src.v.len(), self.v.len(), "Adam state is for a different parameter set");
        self.t = src.t;
        self.epoch = src.epoch;
        copy_matrices(&src.m, &mut self.m);
        copy_matrices(&src.v, &mut self.v);
    }

    /// Applies one update from the accumulated gradients if every
    /// updated value is finite, and returns whether it did.
    ///
    /// Global-norm clipping first rescales the gradients in place. A
    /// read-only pass then computes each element's new value and checks
    /// that it is finite; only when all of them are does a second pass,
    /// with the same arithmetic, write the values and both moments and
    /// advance the step counter. A rejected step leaves values, moments
    /// and counter exactly as they were. A non-finite gradient always
    /// yields a non-finite value (NaN propagates, and an infinite entry
    /// turns into NaN through the clip factor or `∞/√∞`), so the check
    /// also rejects every step whose gradients are non-finite.
    pub fn step(&mut self, store: &mut ParamStore) -> bool {
        if self.cfg.grad_clip > 0.0 {
            let norm = store.grad_norm();
            if norm > self.cfg.grad_clip {
                store.scale_grads(self.cfg.grad_clip / norm);
            }
        }
        let rule = self.rule(self.t + 1);
        for (idx, (_, p)) in store.iter().enumerate() {
            // One flag per parameter, not a branch per element, keeps
            // the read-only pass branch-free.
            let mut finite = true;
            for ((&g, &val), (&m, &v)) in p
                .grad
                .as_slice()
                .iter()
                .zip(p.value.as_slice())
                .zip(self.m[idx].as_slice().iter().zip(self.v[idx].as_slice()))
            {
                finite &= rule.apply(g, val, m, v).0.is_finite();
            }
            if !finite {
                return false;
            }
        }
        for (idx, (_, p)) in store.iter_mut().enumerate() {
            for ((g, val), (mi, vi)) in p
                .grad
                .as_slice()
                .iter()
                .zip(p.value.as_mut_slice())
                .zip(self.m[idx].as_mut_slice().iter_mut().zip(self.v[idx].as_mut_slice()))
            {
                (*val, *mi, *vi) = rule.apply(*g, *val, *mi, *vi);
            }
        }
        self.t += 1;
        true
    }

    /// The per-element update of step number `t`.
    fn rule(&self, t: u64) -> UpdateRule {
        UpdateRule {
            lr: self.effective_lr(),
            weight_decay: self.cfg.weight_decay,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(t as i32),
            bc2: 1.0 - self.beta2.powi(t as i32),
        }
    }
}

/// The constants of one Adam step. [`Adam::step`]'s checking pass and
/// its writing pass both call [`UpdateRule::apply`], so the value that
/// is checked is the value that is written.
#[derive(Clone, Copy)]
struct UpdateRule {
    lr: f64,
    weight_decay: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
}

impl UpdateRule {
    /// Returns `(value, m, v)` after the step for one element with
    /// gradient `g`, value `val` and moments `m`, `v`.
    #[inline(always)]
    fn apply(self, g: f64, val: f64, m: f64, v: f64) -> (f64, f64, f64) {
        // Decoupled-ish weight decay folded into the gradient,
        // matching the paper's "Regul" L2 penalty.
        let g = g + self.weight_decay * val;
        let m = self.beta1 * m + (1.0 - self.beta1) * g;
        let v = self.beta2 * v + (1.0 - self.beta2) * g * g;
        let m_hat = m / self.bc1;
        let v_hat = v / self.bc2;
        (val - self.lr * m_hat / (v_hat.sqrt() + self.eps), m, v)
    }
}

/// Deep-copies `src` into `dst`, reusing `dst`'s buffers when every
/// shape matches (steady-state snapshots allocate nothing).
fn copy_matrices(src: &[Matrix], dst: &mut Vec<Matrix>) {
    let reusable =
        dst.len() == src.len() && src.iter().zip(dst.iter()).all(|(a, b)| a.shape() == b.shape());
    if reusable {
        for (a, b) in src.iter().zip(dst.iter_mut()) {
            b.copy_from(a);
        }
    } else {
        dst.clear();
        dst.extend(src.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ParamId, ParamStore};
    use crate::tape::Tape;
    use gcwc_linalg::rng::{normal, seeded};

    /// Minimise (x - 3)^2 over a single scalar parameter.
    fn quadratic_loss(store: &ParamStore, id: ParamId) -> (Tape, crate::tape::NodeId) {
        let mut tape = Tape::new();
        let x = tape.param(store, id);
        let target = tape.constant(Matrix::from_vec(1, 1, vec![3.0]));
        let d = tape.sub(x, target);
        let sq = tape.mul(d, d);
        let loss = tape.sum_all(sq);
        (tape, loss)
    }

    /// Every bit a step may write: the step counter, then each
    /// parameter's values, then both moments.
    fn written_bits(store: &ParamStore, adam: &Adam) -> Vec<u64> {
        let mut state = AdamState::default();
        adam.save_state(&mut state);
        let mut bits = vec![state.t];
        for m in store.iter().map(|(_, p)| &p.value).chain(&state.m).chain(&state.v) {
            bits.extend(m.as_slice().iter().map(|x| x.to_bits()));
        }
        bits
    }

    /// Replaces the gradients of the two [`warmed`] parameters with a
    /// fixed pattern whose middle entry of `b` is `b1`.
    fn set_grads(store: &mut ParamStore, [a, b]: [ParamId; 2], b1: f64) {
        store.zero_grads();
        store.accumulate_grad(a, &Matrix::from_rows(&[&[0.3, -0.2], &[0.1, 0.4]]));
        store.accumulate_grad(b, &Matrix::from_rows(&[&[-0.5, b1, 0.05]]));
    }

    /// Two parameters after one clean step, so that `t` and both
    /// moments are non-zero.
    fn warmed(cfg: OptimConfig) -> (ParamStore, Adam, [ParamId; 2]) {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]));
        let b = store.add("b", Matrix::from_rows(&[&[1.5, -0.75, 3.0]]));
        let mut adam = Adam::new(&store, cfg);
        set_grads(&mut store, [a, b], 0.6);
        assert!(adam.step(&mut store));
        (store, adam, [a, b])
    }

    /// [`Adam::step`] as it was before steps were checked: clip, advance
    /// the counter, then write every value and both moments in one pass.
    fn reference_step(
        cfg: OptimConfig,
        lr: f64,
        t: &mut u64,
        m: &mut [Matrix],
        v: &mut [Matrix],
        store: &mut ParamStore,
    ) {
        let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
        if cfg.grad_clip > 0.0 {
            let norm = store.grad_norm();
            if norm > cfg.grad_clip {
                store.scale_grads(cfg.grad_clip / norm);
            }
        }
        *t += 1;
        let bc1 = 1.0 - beta1.powi(*t as i32);
        let bc2 = 1.0 - beta2.powi(*t as i32);
        for (idx, (_, p)) in store.iter_mut().enumerate() {
            for ((g, val), (mi, vi)) in p
                .grad
                .as_slice()
                .iter()
                .zip(p.value.as_mut_slice())
                .zip(m[idx].as_mut_slice().iter_mut().zip(v[idx].as_mut_slice()))
            {
                let g = g + cfg.weight_decay * *val;
                *mi = beta1 * *mi + (1.0 - beta1) * g;
                *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *val -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("x", Matrix::zeros(1, 1));
        let mut adam = Adam::new(&store, OptimConfig { learning_rate: 0.1, ..Default::default() });
        for _ in 0..300 {
            store.zero_grads();
            let (mut tape, loss) = quadratic_loss(&store, id);
            tape.backward(loss, &mut store);
            assert!(adam.step(&mut store));
        }
        let x = store.value(id)[(0, 0)];
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_state_roundtrip_restores_the_trajectory() {
        let mut store = ParamStore::new();
        let id = store.add("x", Matrix::zeros(1, 1));
        let cfg = OptimConfig { learning_rate: 0.1, ..Default::default() };
        let mut adam = Adam::new(&store, cfg);
        let step = |adam: &mut Adam, store: &mut ParamStore| {
            store.zero_grads();
            let (mut tape, loss) = quadratic_loss(store, id);
            tape.backward(loss, store);
            assert!(adam.step(store));
        };
        for _ in 0..5 {
            step(&mut adam, &mut store);
        }
        // Snapshot mid-run, continue, then roll back and replay: the
        // replayed trajectory must be bit-identical.
        let mut state = AdamState::default();
        adam.save_state(&mut state);
        let params_at_snap = store.value(id)[(0, 0)];
        for _ in 0..3 {
            step(&mut adam, &mut store);
        }
        let after = store.value(id)[(0, 0)];
        adam.restore_state(&state);
        *store.value_mut(id) = Matrix::filled(1, 1, params_at_snap);
        for _ in 0..3 {
            step(&mut adam, &mut store);
        }
        assert_eq!(store.value(id)[(0, 0)].to_bits(), after.to_bits());
    }

    #[test]
    fn lr_decay_reduces_effective_lr() {
        let store = ParamStore::new();
        let mut adam = Adam::new(
            &store,
            OptimConfig { learning_rate: 1.0, lr_decay: 0.5, ..Default::default() },
        );
        assert_eq!(adam.effective_lr(), 1.0);
        adam.end_epoch();
        assert_eq!(adam.effective_lr(), 0.5);
        adam.end_epoch();
        assert_eq!(adam.effective_lr(), 0.25);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut store = ParamStore::new();
        let id = store.add("x", Matrix::filled(1, 1, 10.0));
        let mut adam = Adam::new(
            &store,
            OptimConfig {
                learning_rate: 0.1,
                weight_decay: 1.0,
                grad_clip: 0.0,
                ..Default::default()
            },
        );
        // No loss gradient at all: decay alone must shrink the value.
        store.zero_grads();
        assert!(adam.step(&mut store));
        assert!(store.value(id)[(0, 0)] < 10.0);
    }

    #[test]
    fn clipping_bounds_gradient_norm() {
        let mut store = ParamStore::new();
        let id = store.add("x", Matrix::zeros(1, 2));
        store.accumulate_grad(id, &Matrix::from_rows(&[&[30.0, 40.0]])); // norm 50
        let mut adam = Adam::new(
            &store,
            OptimConfig { learning_rate: 1.0, grad_clip: 5.0, ..Default::default() },
        );
        assert!(adam.step(&mut store));
        // Clipped gradient = (3, 4), so the first moment is 0.1·(3, 4).
        assert!(store.grad(id).approx_eq(&Matrix::from_rows(&[&[3.0, 4.0]]), 1e-12));
        let mut state = AdamState::default();
        adam.save_state(&mut state);
        assert!(state.m[0].approx_eq(&Matrix::from_rows(&[&[0.3, 0.4]]), 1e-12));
    }

    #[test]
    fn rejected_steps_write_nothing() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for grad_clip in [0.0, 5.0] {
                let cfg = OptimConfig { learning_rate: 0.1, grad_clip, ..Default::default() };
                let (mut store, mut adam, ids) = warmed(cfg);
                // The bad entry sits in the second parameter, so the
                // first one's finite new values are not written either.
                set_grads(&mut store, ids, bad);
                let before = written_bits(&store, &adam);
                assert!(!adam.step(&mut store), "gradient {bad}, clip {grad_clip}: step applied");
                assert_eq!(written_bits(&store, &adam), before, "gradient {bad}, clip {grad_clip}");
            }
        }
        // Finite values and gradients whose weight decay overflows: the
        // new value is non-finite even though every input is finite.
        let mut store = ParamStore::new();
        store.add("x", Matrix::filled(1, 2, 1e308));
        let mut adam = Adam::new(&store, OptimConfig { weight_decay: 10.0, ..Default::default() });
        let before = written_bits(&store, &adam);
        assert!(!adam.step(&mut store));
        assert_eq!(written_bits(&store, &adam), before);
    }

    #[test]
    fn a_rejected_step_does_not_advance_the_counter() {
        let cfg = OptimConfig { learning_rate: 0.1, ..Default::default() };
        let (mut alone, mut adam_alone, ids) = warmed(cfg);
        set_grads(&mut alone, ids, 0.7);
        assert!(adam_alone.step(&mut alone));

        let (mut retried, mut adam_retried, ids) = warmed(cfg);
        set_grads(&mut retried, ids, f64::NAN);
        assert!(!adam_retried.step(&mut retried));
        set_grads(&mut retried, ids, 0.7);
        assert!(adam_retried.step(&mut retried));
        assert_eq!(written_bits(&retried, &adam_retried), written_bits(&alone, &adam_alone));
    }

    #[test]
    fn clean_steps_match_the_unchecked_loop_bit_for_bit() {
        for grad_clip in [0.0, 1.0] {
            let cfg =
                OptimConfig { learning_rate: 0.05, lr_decay: 0.9, weight_decay: 1e-3, grad_clip };
            let mut rng = seeded(11);
            let mut store = ParamStore::new();
            for (rows, cols) in [(3, 4), (1, 5)] {
                let data = (0..rows * cols).map(|_| normal(&mut rng)).collect();
                store.add(format!("p{rows}x{cols}"), Matrix::from_vec(rows, cols, data));
            }
            let mut reference = store.clone();
            let mut adam = Adam::new(&store, cfg);
            let (mut t, mut m, mut v) = (0u64, Vec::new(), Vec::new());
            for (_, p) in store.iter() {
                m.push(Matrix::zeros(p.value.rows(), p.value.cols()));
                v.push(Matrix::zeros(p.value.rows(), p.value.cols()));
            }
            for step in 0..6 {
                store.zero_grads();
                reference.zero_grads();
                let ids: Vec<ParamId> = store.iter().map(|(id, _)| id).collect();
                for id in ids {
                    let (rows, cols) = store.value(id).shape();
                    let data = (0..rows * cols).map(|_| 3.0 * normal(&mut rng)).collect();
                    let grad = Matrix::from_vec(rows, cols, data);
                    store.accumulate_grad(id, &grad);
                    reference.accumulate_grad(id, &grad);
                }
                if grad_clip > 0.0 {
                    assert!(store.grad_norm() > grad_clip, "step {step} must exercise clipping");
                }
                reference_step(cfg, adam.effective_lr(), &mut t, &mut m, &mut v, &mut reference);
                assert!(adam.step(&mut store));
                let mut state = AdamState::default();
                adam.save_state(&mut state);
                let mut expected = vec![t];
                for x in reference.iter().map(|(_, p)| &p.value).chain(&m).chain(&v) {
                    expected.extend(x.as_slice().iter().map(|x| x.to_bits()));
                }
                assert_eq!(written_bits(&store, &adam), expected, "clip {grad_clip}, step {step}");
                if step == 2 {
                    adam.end_epoch();
                }
            }
        }
    }
}
