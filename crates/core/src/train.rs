//! Shared mini-batch training loop, data-parallel within each batch.
//!
//! Samples inside a mini-batch are independent — gradients only meet at
//! the batch barrier — so the loop splits each batch into
//! `current_threads().min(batch length)` contiguous parts and runs them
//! through [`parallel::fork_join`]: the first part on the calling
//! thread, the others on idle threads of the pool behind it (or on the
//! calling thread when none is idle), and with two or more parts every
//! part's kernels on one thread. The worker count
//! comes from the thread-count chain of [`gcwc_linalg::parallel`]
//! (`with_threads`, then `set_global_threads` / `GCWC_THREADS`, then
//! available parallelism). Determinism is preserved bit-for-bit for
//! every thread count:
//!
//! 1. every sample's RNG is seeded from the master stream *in batch
//!    order* before any part starts, so the stream consumed never
//!    depends on scheduling;
//! 2. each part writes a private per-sample [`GradBuffer`] (one per
//!    sample, not one per part — float addition is non-associative,
//!    so per-part partial sums would round differently as the part
//!    count changed);
//! 3. buffers are merged into the [`ParamStore`] in sample-index order
//!    after the batch completes ([`GradBuffer::merge_batch`]),
//!    reproducing the serial accumulation order exactly.
//!
//! A part needs only one [`Tape`]: a sample's tape is done once its
//! backward pass has filled the sample's buffer, and the buffer keeps a
//! dense layer's weight gradient as its small factors, not as a copy
//! of anything on the tape.
//!
//! # Divergence guard
//!
//! Debug builds assert non-finite tape values at the op that produces
//! them; release builds — where real training runs — instead get a
//! per-batch guard. A batch is accepted only when its losses are
//! finite and [`Adam::step`] wrote its update, which it does only when
//! every updated parameter value is finite (a non-finite gradient
//! always makes some updated value non-finite). A rejected step writes
//! nothing, so there is nothing to undo: the batch is retried with
//! freshly drawn per-sample seeds, and after
//! [`DEFAULT_MAX_BAD_BATCHES`] consecutive failures the run
//! aborts with [`TrainError::Diverged`] instead of silently training a
//! poisoned model. Clean batches take the exact same numeric path as
//! an unguarded step — the check is a pure read and consumes no
//! randomness — so guarded training is bit-identical to unguarded
//! training whenever nothing diverges.
//!
//! # Checkpoint and resume
//!
//! With a [`CheckpointPlan`], the loop atomically persists a
//! [`TrainState`] (parameters, Adam moments, master RNG state, shuffle
//! order, epoch losses) every `every_epochs` epoch boundaries; a killed
//! run restarted with `resume` reloads that state and continues the
//! exact RNG stream and shuffle order, making the resumed run
//! bit-identical to an uninterrupted one.

use std::path::PathBuf;

use gcwc_linalg::parallel;
use gcwc_linalg::rng::{seeded, shuffle};
use gcwc_nn::{Adam, AdamState, GradBuffer, NodeId, ParamStore, PersistError, Tape};
use rand::rngs::StdRng;
use rand::Rng;

use crate::task::TrainSample;
use crate::trainstate::TrainState;

/// Failpoint site names evaluated by the training loop (see
/// `gcwc_failpoint`; inert unless the `failpoints` feature is enabled
/// *and* the site is armed).
pub mod failsite {
    /// Evaluated before each optimizer step whose batch losses are
    /// finite: a triggered site rejects the batch before the step
    /// writes anything (as a non-finite update would), exercising the
    /// retry path deterministically.
    pub const TRAIN_STEP: &str = "train.step";
    /// Training-state checkpoint write: a triggered site fails the
    /// write with an injected I/O error.
    pub const CHECKPOINT_SAVE: &str = "train.checkpoint.save";
}

/// Per-epoch mean losses recorded during training.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean per-sample loss of each epoch.
    pub epoch_losses: Vec<f64>,
}

impl TrainReport {
    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> Option<f64> {
        self.epoch_losses.last().copied()
    }
}

/// Why a training run aborted.
#[derive(Debug)]
pub enum TrainError {
    /// One mini-batch produced a non-finite loss, gradient, or
    /// parameter on [`DEFAULT_MAX_BAD_BATCHES`] consecutive
    /// attempts; the store holds the parameters of the last accepted
    /// step, since a rejected step writes nothing.
    Diverged {
        /// Epoch in which the batch diverged.
        epoch: usize,
        /// Index of the diverging batch within the epoch.
        batch: usize,
        /// Consecutive failed attempts at that batch.
        bad_batches: u32,
    },
    /// Reading or writing the training-state checkpoint failed.
    Checkpoint(PersistError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Diverged { epoch, batch, bad_batches } => write!(
                f,
                "training diverged: batch {batch} of epoch {epoch} produced non-finite \
                 values on {bad_batches} consecutive attempts"
            ),
            TrainError::Checkpoint(e) => write!(f, "training checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<PersistError> for TrainError {
    fn from(e: PersistError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Consecutive bad attempts at one batch before training aborts.
pub const DEFAULT_MAX_BAD_BATCHES: u32 = 3;

/// Periodic training-state persistence for checkpoint-and-resume.
#[derive(Clone, Debug)]
pub struct CheckpointPlan {
    /// Training-state file (atomically replaced at each write).
    pub path: PathBuf,
    /// Write the state every this many completed epochs (the final
    /// epoch is always written). Values below 1 behave as 1.
    pub every_epochs: usize,
    /// When the state file exists, restore it and continue the run
    /// from the recorded epoch instead of starting over.
    pub resume: bool,
}

/// Options of [`run_training`] beyond its schedule.
#[derive(Clone, Debug, Default)]
pub struct TrainControl {
    /// Optional periodic training-state persistence.
    pub checkpoint: Option<CheckpointPlan>,
}

/// Schedule of a warm-start fine-tune pass: a short run that continues
/// from already-trained parameters on fresh data, rather than a full
/// from-scratch fit. `epochs` and `lr_scale` override the model's
/// configured epoch count and scale its learning rate for the duration
/// of the pass only — the model's own config is untouched afterwards,
/// so a later full `fit` behaves exactly as before.
#[derive(Clone, Copy, Debug)]
pub struct FineTunePlan {
    /// Epochs of the fine-tune pass (overrides `ModelConfig::epochs`).
    pub epochs: usize,
    /// Multiplier on the configured learning rate (incremental
    /// refreshes typically run cooler than the base fit, e.g. `0.5`).
    pub lr_scale: f64,
}

impl Default for FineTunePlan {
    fn default() -> Self {
        Self { epochs: 2, lr_scale: 0.5 }
    }
}

/// Runs mini-batch training: for every sample `forward_loss` builds the
/// tape and returns the scalar loss node; gradients are averaged over
/// the batch and applied with Adam.
///
/// Each batch's samples are split over up to `current_threads()` parts
/// (see the module docs). Epoch losses and parameter updates are
/// bit-identical for every thread count; `forward_loss` receives a
/// per-sample RNG seeded from the master stream in batch order, so it
/// must derive all randomness from that argument. `control` sets an
/// optional checkpoint-and-resume plan.
#[allow(clippy::too_many_arguments)] // deliberate flat signature: one call per model, no builder worth it
pub fn run_training(
    store: &mut ParamStore,
    optim: gcwc_nn::OptimConfig,
    epochs: usize,
    batch_size: usize,
    samples: &[TrainSample],
    rng: &mut StdRng,
    control: &TrainControl,
    forward_loss: impl Fn(&mut Tape, &ParamStore, &TrainSample, &mut StdRng) -> NodeId + Sync,
) -> Result<TrainReport, TrainError> {
    assert!(batch_size >= 1, "batch size must be positive");
    let mut report = TrainReport::default();
    if samples.is_empty() {
        return Ok(report);
    }
    let mut adam = Adam::new(store, optim);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut start_epoch = 0usize;
    if let Some(plan) = &control.checkpoint {
        if plan.resume && plan.path.exists() {
            let state = TrainState::load(&plan.path)?;
            state.validate(store, samples.len(), epochs)?;
            for ((_, p), (_, value)) in store.iter_mut().zip(&state.params) {
                p.value.copy_from(value);
            }
            adam.restore_state(&state.adam);
            *rng = StdRng::from_state(state.rng_state);
            order.copy_from_slice(&state.order);
            report.epoch_losses.clone_from(&state.epoch_losses);
            start_epoch = state.epochs_done;
        }
    }
    // Room for every epoch's loss up front, so no later epoch allocates.
    report.epoch_losses.reserve(epochs.saturating_sub(start_epoch));
    // Workspaces reused across batches and epochs: one tape per part,
    // one gradient buffer per sample, seed and loss scratch. After the
    // first few batches the loop body reaches a steady state that
    // performs no heap allocation.
    let mut tapes: Vec<Tape> = Vec::new();
    let mut buffers: Vec<GradBuffer> = Vec::new();
    let mut seeds: Vec<u64> = Vec::new();
    let mut losses: Vec<f64> = Vec::new();
    for epoch in start_epoch..epochs {
        shuffle(rng, &mut order);
        let mut epoch_loss = 0.0;
        for (batch_index, batch) in order.chunks(batch_size).enumerate() {
            let mut bad_batches = 0u32;
            loop {
                store.zero_grads();
                // One seed per sample, drawn in batch order *before* any
                // part runs: the master stream's consumption is the same
                // for every thread count. A retried batch draws fresh
                // seeds, so transient bad draws are not replayed.
                seeds.clear();
                seeds.extend(batch.iter().map(|_| rng.random::<u64>()));
                let workers = parallel::current_threads().min(batch.len());
                tapes.resize_with(tapes.len().max(workers), Tape::new);
                buffers.resize_with(buffers.len().max(batch.len()), GradBuffer::new);
                losses.clear();
                losses.resize(batch.len(), 0.0);
                // One part per worker: a tape and the buffers and losses
                // of a contiguous run of the batch.
                let parts = tapes[..workers]
                    .iter_mut()
                    .zip(parallel::balanced_chunks(&mut buffers[..batch.len()], 1, workers))
                    .zip(parallel::balanced_chunks(&mut losses, 1, workers));
                let shared: &ParamStore = store;
                parallel::fork_join(parts, |((tape, (start, buffers)), (_, losses))| {
                    for (k, (buffer, loss)) in buffers.iter_mut().zip(losses).enumerate() {
                        tape.reset();
                        buffer.reset();
                        let mut rng = seeded(seeds[start + k]);
                        let sample = &samples[batch[start + k]];
                        let node = forward_loss(tape, shared, sample, &mut rng);
                        *loss = tape.value(node)[(0, 0)];
                        tape.backward(node, buffer);
                    }
                });
                // Fixed merge order — batch position, never part.
                let mut batch_loss = 0.0;
                for loss in &losses {
                    batch_loss += *loss;
                }
                GradBuffer::merge_batch(&buffers[..batch.len()], store);
                store.scale_grads(1.0 / batch.len() as f64);
                // Accept the batch only when its losses are finite, the
                // TRAIN_STEP failpoint lets it through, and the step
                // wrote (it writes nothing when an updated value would be
                // non-finite). A rejected batch leaves parameters and
                // moments untouched; the next attempt re-zeroes the
                // gradients.
                if losses.iter().all(|l| l.is_finite())
                    && !gcwc_failpoint::triggered(failsite::TRAIN_STEP)
                    && adam.step(store)
                {
                    epoch_loss += batch_loss;
                    break;
                }
                bad_batches += 1;
                if bad_batches >= DEFAULT_MAX_BAD_BATCHES {
                    return Err(TrainError::Diverged { epoch, batch: batch_index, bad_batches });
                }
            }
        }
        adam.end_epoch();
        report.epoch_losses.push(epoch_loss / samples.len() as f64);
        if let Some(plan) = &control.checkpoint {
            let done = epoch + 1;
            if done % plan.every_epochs.max(1) == 0 || done == epochs {
                save_checkpoint(plan, store, &adam, rng, &order, &report, done)?;
            }
        }
    }
    Ok(report)
}

/// Persists the training state at an epoch boundary (atomic write).
fn save_checkpoint(
    plan: &CheckpointPlan,
    store: &ParamStore,
    adam: &Adam,
    rng: &StdRng,
    order: &[usize],
    report: &TrainReport,
    epochs_done: usize,
) -> Result<(), TrainError> {
    if gcwc_failpoint::triggered(failsite::CHECKPOINT_SAVE) {
        return Err(TrainError::Checkpoint(PersistError::File(std::io::Error::other(format!(
            "failpoint {}: injected checkpoint write failure",
            failsite::CHECKPOINT_SAVE
        )))));
    }
    let mut adam_state = AdamState::default();
    adam.save_state(&mut adam_state);
    let state = TrainState {
        epochs_done,
        rng_state: rng.state(),
        order: order.to_vec(),
        epoch_losses: report.epoch_losses.clone(),
        adam: adam_state,
        params: store.iter().map(|(_, p)| (p.name.clone(), p.value.clone())).collect(),
    };
    state.save_atomic(&plan.path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcwc_linalg::rng::seeded;
    use gcwc_linalg::Matrix;
    use gcwc_nn::OptimConfig;
    use gcwc_traffic::Context;

    fn dummy_sample(target: f64) -> TrainSample {
        TrainSample {
            snapshot_index: 0,
            input: Matrix::filled(1, 1, target),
            label: Matrix::filled(1, 1, target),
            label_mask: vec![1.0],
            context: Context {
                time_of_day: 0,
                day_of_week: 0,
                intervals_per_day: 96,
                row_flags: vec![1.0],
            },
            history: vec![],
        }
    }

    /// Held by every test that trains through `run_training` while the
    /// `failpoints` feature is on: the `guard` tests arm the
    /// process-global `train.step` site, which would fail any training
    /// running beside them.
    #[cfg(feature = "failpoints")]
    static FAILPOINT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn training_reduces_loss_on_regression_toy() {
        #[cfg(feature = "failpoints")]
        let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Learn w so that w ≈ mean of labels via MSE.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 1));
        let samples: Vec<TrainSample> = vec![dummy_sample(2.0), dummy_sample(4.0)];
        let mut rng = seeded(1);
        let report = run_training(
            &mut store,
            OptimConfig { learning_rate: 0.1, ..Default::default() },
            150,
            2,
            &samples,
            &mut rng,
            &TrainControl::default(),
            |tape, store, sample, _| {
                let wn = tape.param(store, w);
                tape.mse_masked(wn, sample.label.clone(), Matrix::filled(1, 1, 1.0))
            },
        )
        .unwrap();
        assert_eq!(report.epoch_losses.len(), 150);
        let first = report.epoch_losses[0];
        let last = report.final_loss().unwrap();
        assert!(last < first * 0.3, "loss should drop: {first} -> {last}");
        let learned = store.value(w)[(0, 0)];
        assert!((learned - 3.0).abs() < 0.2, "w = {learned}");
    }

    #[test]
    fn empty_samples_are_a_noop() {
        let mut store = ParamStore::new();
        store.add("w", Matrix::zeros(1, 1));
        let mut rng = seeded(2);
        let report = run_training(
            &mut store,
            OptimConfig::default(),
            5,
            4,
            &[],
            &mut rng,
            &TrainControl::default(),
            |tape, _, _, _| tape.constant(Matrix::zeros(1, 1)),
        )
        .unwrap();
        assert!(report.epoch_losses.is_empty());
    }

    /// Divergence-guard tests inject bad optimizer steps through the
    /// `train.step` failpoint (non-finite values cannot flow through
    /// the tape in debug builds — its ops assert finiteness — which is
    /// exactly why the release-mode guard exists). The failpoint
    /// registry is process-global, so these tests serialise on
    /// `FAILPOINT_LOCK` and always disarm their sites before releasing
    /// it.
    #[cfg(feature = "failpoints")]
    mod guard {
        use super::*;

        fn toy_run(control: &TrainControl) -> Result<(TrainReport, f64), TrainError> {
            let mut store = ParamStore::new();
            let w = store.add("w", Matrix::zeros(1, 1));
            let samples: Vec<TrainSample> = vec![dummy_sample(2.0), dummy_sample(4.0)];
            let mut rng = seeded(1);
            let report = run_training(
                &mut store,
                OptimConfig { learning_rate: 0.1, ..Default::default() },
                60,
                2,
                &samples,
                &mut rng,
                control,
                |tape, store, sample, _| {
                    let wn = tape.param(store, w);
                    tape.mse_masked(wn, sample.label.clone(), Matrix::filled(1, 1, 1.0))
                },
            )?;
            Ok((report, store.value(w)[(0, 0)]))
        }

        #[test]
        fn bad_steps_roll_back_and_training_recovers() {
            let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            gcwc_failpoint::configure(failsite::TRAIN_STEP, "2*err->off").unwrap();
            let result = toy_run(&TrainControl::default());
            gcwc_failpoint::remove(failsite::TRAIN_STEP);
            let (report, w) = result.expect("two bad attempts are under the threshold");
            assert_eq!(report.epoch_losses.len(), 60);
            assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
            assert!(w.is_finite());
            // The guard retried its way past the injected failures and
            // still learned the toy regression target.
            assert!((w - 3.0).abs() < 0.5, "w = {w}");
        }

        #[test]
        fn persistent_divergence_aborts_with_typed_error() {
            let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            gcwc_failpoint::configure(failsite::TRAIN_STEP, "err").unwrap();
            let result = toy_run(&TrainControl::default());
            gcwc_failpoint::remove(failsite::TRAIN_STEP);
            match result {
                Err(TrainError::Diverged { epoch, batch, bad_batches }) => {
                    assert_eq!((epoch, batch), (0, 0));
                    assert_eq!(bad_batches, DEFAULT_MAX_BAD_BATCHES);
                }
                other => panic!("expected Diverged, got {other:?}"),
            }
        }

        #[test]
        fn checkpoint_write_failure_is_a_typed_error() {
            let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            gcwc_failpoint::configure(failsite::CHECKPOINT_SAVE, "err").unwrap();
            let dir = std::env::temp_dir().join("gcwc_train_guard_test");
            std::fs::create_dir_all(&dir).unwrap();
            let control = TrainControl {
                checkpoint: Some(CheckpointPlan {
                    path: dir.join("guard.trainstate"),
                    every_epochs: 1,
                    resume: false,
                }),
            };
            let result = toy_run(&control);
            gcwc_failpoint::remove(failsite::CHECKPOINT_SAVE);
            assert!(matches!(result, Err(TrainError::Checkpoint(_))), "{result:?}");
        }
    }
}
