//! Checkpoint-and-resume continuity: a training run stopped at an
//! epoch boundary and resumed from its persisted [`gcwc::TrainState`]
//! must reproduce the uninterrupted run **bit for bit** — the same
//! final parameters, the same epoch losses, and byte-identical final
//! state and model checkpoint files. The state carries the master RNG's
//! raw words and the in-place shuffle order, so the resumed run draws
//! the exact random stream the killed run would have drawn.
//!
//! With the `failpoints` feature, a `panic`-armed
//! `train.checkpoint.save` site simulates the process dying mid-run
//! (the unwind aborts training after some epochs were already
//! persisted); resuming afterwards must still land on the identical
//! final checkpoint.
//!
//! The failpoint registry is process-global and every test here saves
//! checkpoints, so each test holds [`CHECKPOINT_LOCK`] for its whole
//! run: an armed checkpoint-save site never fires in a sibling test.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use gcwc::train::{CheckpointPlan, TrainControl};
use gcwc::{build_samples, GcwcModel, ModelConfig, ShardedModel, TaskKind, TrainSample};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};

static CHECKPOINT_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`CHECKPOINT_LOCK`], recovering it from a test that panicked
/// while holding it.
fn serialise() -> MutexGuard<'static, ()> {
    CHECKPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn samples_for(instance: &gcwc_traffic::NetworkInstance) -> Vec<TrainSample> {
    let cfg = SimConfig {
        days: 2,
        intervals_per_day: 16,
        records_per_interval: 10.0,
        ..Default::default()
    };
    let data = simulate(instance, HistogramSpec::hist8(), &cfg);
    let ds = data.to_dataset(0.5, 5, 11);
    let idx: Vec<usize> = (0..ds.len()).collect();
    build_samples(&ds, &idx, TaskKind::Estimation, 0)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn checkpoint_bytes(model: &GcwcModel, dir: &Path, name: &str) -> Vec<u8> {
    let path = dir.join(name);
    model.save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

fn plan(path: PathBuf) -> TrainControl {
    TrainControl { checkpoint: Some(CheckpointPlan { path, every_epochs: 2, resume: true }) }
}

#[test]
fn resumed_training_is_bit_identical_to_uninterrupted() {
    let _guard = serialise();
    let hw = generators::highway_tollgate(1);
    let samples = samples_for(&hw);
    let samples = &samples[..8];
    let dir = fresh_dir("gcwc_train_resume_full");

    // Reference: one uninterrupted 6-epoch run.
    let mut full = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(6), 42);
    full.try_fit(samples, &plan(dir.join("full.trainstate"))).unwrap();
    let full_ckpt = checkpoint_bytes(&full, &dir, "full.ckpt");
    let full_state = std::fs::read(dir.join("full.trainstate")).unwrap();

    // "Killed" run: train 4 of 6 epochs (the state file lands at the
    // epoch-4 boundary), then a fresh process-equivalent model resumes
    // from that state and finishes the remaining 2 epochs.
    let mut first = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(4), 42);
    first.try_fit(samples, &plan(dir.join("split.trainstate"))).unwrap();
    let mut second = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(6), 42);
    second.try_fit(samples, &plan(dir.join("split.trainstate"))).unwrap();

    assert_eq!(
        full.last_report().epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        second.last_report().epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "epoch losses must survive the kill/resume boundary bit-exactly"
    );
    let split_ckpt = checkpoint_bytes(&second, &dir, "split.ckpt");
    assert_eq!(full_ckpt, split_ckpt, "resumed model checkpoint must be byte-identical");
    let split_state = std::fs::read(dir.join("split.trainstate")).unwrap();
    assert_eq!(full_state, split_state, "final training state must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn completed_state_resumes_to_a_noop() {
    let _guard = serialise();
    let hw = generators::highway_tollgate(1);
    let samples = samples_for(&hw);
    let samples = &samples[..8];
    let dir = fresh_dir("gcwc_train_resume_noop");

    let mut model = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(3), 42);
    model.try_fit(samples, &plan(dir.join("run.trainstate"))).unwrap();
    let ckpt = checkpoint_bytes(&model, &dir, "run.ckpt");

    // Re-running with the same epoch budget must restore and return
    // without training further.
    let mut again = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(3), 42);
    again.try_fit(samples, &plan(dir.join("run.trainstate"))).unwrap();
    assert_eq!(again.last_report().epoch_losses.len(), 3);
    assert_eq!(ckpt, checkpoint_bytes(&again, &dir, "again.ckpt"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_state_is_rejected_with_a_typed_error() {
    let _guard = serialise();
    let hw = generators::highway_tollgate(1);
    let samples = samples_for(&hw);
    let dir = fresh_dir("gcwc_train_resume_reject");
    let state_path = dir.join("run.trainstate");

    let mut model = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(2), 42);
    model.try_fit(&samples[..8], &plan(state_path.clone())).unwrap();

    // Same architecture, different sample count: the shuffle order in
    // the state no longer applies, so resume must refuse rather than
    // silently train on a mismatched permutation.
    let mut other = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(4), 42);
    let err = other.try_fit(&samples[..6], &plan(state_path)).unwrap_err();
    assert!(
        matches!(err, gcwc::TrainError::Checkpoint(_)),
        "expected a checkpoint mismatch, got {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_training_resumes_bit_identically_per_shard() {
    let _guard = serialise();
    let hw = generators::highway_tollgate(1);
    let samples = samples_for(&hw);
    let samples = &samples[..8];
    let dir_full = fresh_dir("gcwc_shard_resume_full");
    let dir_split = fresh_dir("gcwc_shard_resume_split");

    let mut full = ShardedModel::gcwc(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(6), 42, 2);
    full.fit_shards_resumable(samples, &dir_full, "run", 2, true).unwrap();
    let full_paths = full.save_shards(&dir_full, "model").unwrap();

    let mut first = ShardedModel::gcwc(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(4), 42, 2);
    first.fit_shards_resumable(samples, &dir_split, "run", 2, true).unwrap();
    let mut second = ShardedModel::gcwc(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(6), 42, 2);
    second.fit_shards_resumable(samples, &dir_split, "run", 2, true).unwrap();
    let split_paths = second.save_shards(&dir_split, "model").unwrap();

    for (a, b) in full_paths.iter().zip(&split_paths) {
        assert_eq!(
            std::fs::read(a).unwrap(),
            std::fs::read(b).unwrap(),
            "shard checkpoint {a:?} differs after resume"
        );
    }
    std::fs::remove_dir_all(&dir_full).ok();
    std::fs::remove_dir_all(&dir_split).ok();
}

/// The process "dies" mid-run: a `panic`-armed checkpoint-save site
/// unwinds out of training after two epochs were persisted; resuming
/// from the surviving state file must still produce the uninterrupted
/// run's exact final checkpoint.
#[cfg(feature = "failpoints")]
#[test]
fn killed_run_resumes_to_identical_final_checkpoint() {
    let _guard = serialise();
    let hw = generators::highway_tollgate(1);
    let samples = samples_for(&hw);
    let samples = &samples[..8];
    let dir = fresh_dir("gcwc_train_resume_kill");

    let mut full = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(6), 42);
    full.try_fit(samples, &plan(dir.join("full.trainstate"))).unwrap();
    let full_ckpt = checkpoint_bytes(&full, &dir, "full.ckpt");

    // every_epochs = 2 saves at epochs 2, 4, 6; the second save (epoch
    // 4) panics mid-write-path, killing the run with epoch 2's state on
    // disk.
    gcwc_failpoint::configure(gcwc::train::failsite::CHECKPOINT_SAVE, "1*off->panic").unwrap();
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut m = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(6), 42);
        m.try_fit(samples, &plan(dir.join("kill.trainstate"))).unwrap();
    }));
    gcwc_failpoint::remove(gcwc::train::failsite::CHECKPOINT_SAVE);
    assert!(killed.is_err(), "the armed failpoint must kill the run");

    let mut resumed = GcwcModel::new(&hw.graph, 8, ModelConfig::hw_hist().with_epochs(6), 42);
    resumed.try_fit(samples, &plan(dir.join("kill.trainstate"))).unwrap();
    assert_eq!(full_ckpt, checkpoint_bytes(&resumed, &dir, "kill.ckpt"));
    std::fs::remove_dir_all(&dir).ok();
}
