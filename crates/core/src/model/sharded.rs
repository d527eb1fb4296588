//! Sharded completion: one GCWC/A-GCWC model per edge partition,
//! trained data-parallel and scatter-gathered into a global
//! completion.
//!
//! A [`ShardedModel`] wraps a [`PartitionSet`] (edge-owned partitions
//! with 1-hop halo rows) and one per-partition model sharing a single
//! [`ModelConfig`]. Each shard sees its owned + halo rows of every
//! sample; the loss mask is zeroed on halo rows so only owned rows are
//! scored, and predictions scatter each shard's owned rows back into
//! the global matrix.
//!
//! **K = 1 is bit-identical to the unsharded pipeline**: the single
//! partition's local graph is a clone of the global graph, the shard
//! seed at index 0 is the base seed, and identity views copy rows
//! verbatim — so initialisation, the training RNG stream, checkpoints,
//! and predictions all reproduce the unsharded model exactly
//! (`to_bits`-level). For K > 1, rows interior to a partition see
//! their full 1-hop neighbourhood and boundary rows see a truncated
//! 2-hop receptive field, so completions on boundary edges carry a
//! small, bounded approximation error.
//!
//! Full fits, fine-tunes and subset retrains all fan out through one
//! private `run_shards`: K = 1 trains on the calling thread at its
//! thread count, and K ≥ 2 trains each listed shard on a scoped thread
//! of its own with kernels pinned to one thread
//! ([`gcwc_linalg::parallel::spawn_pinned`]) while the caller waits.
//! Training is thread-count invariant, so this placement never changes
//! a shard's bits.

use std::path::Path;
use std::sync::Arc;

use gcwc_graph::delta::{DeltaError, DeltaRepair, GraphDelta};
use gcwc_graph::{EdgeGraph, Partition, PartitionSet};
use gcwc_linalg::Matrix;
use gcwc_nn::PersistError;
use gcwc_traffic::view_context;

use crate::config::ModelConfig;
use crate::model::{AGcwcModel, GcwcModel};
use crate::task::{CompletionModel, TrainSample};
use crate::train::{CheckpointPlan, FineTunePlan, TrainControl, TrainError, TrainReport};

/// A completion model that can serve as one shard: fit/predict plus
/// shape introspection and checkpoint persistence.
pub trait ShardModel: CompletionModel + Send {
    /// Number of (local) edges the shard models.
    fn num_edges(&self) -> usize;
    /// Output columns of the head (`m` for HIST, 1 for AVG).
    fn output_cols(&self) -> usize;
    /// Saves the shard's parameters.
    fn save(&self, path: &Path) -> Result<(), PersistError>;
    /// Loads the shard's parameters.
    fn load(&mut self, path: &Path) -> Result<(), PersistError>;
    /// Fallible training with a divergence guard and optional
    /// checkpoint-and-resume (see `crate::train::run_training`).
    fn try_fit(
        &mut self,
        samples: &[TrainSample],
        control: &TrainControl,
    ) -> Result<(), TrainError>;
    /// Warm-start fine-tuning: a short guarded pass continuing from
    /// the current parameters under `plan` (see
    /// [`crate::GcwcModel::fine_tune`]).
    fn fine_tune(
        &mut self,
        samples: &[TrainSample],
        plan: &FineTunePlan,
        control: &TrainControl,
    ) -> Result<(), TrainError>;
    /// Training report of the shard's last fit.
    fn last_report(&self) -> &TrainReport;
}

impl ShardModel for GcwcModel {
    fn num_edges(&self) -> usize {
        GcwcModel::num_edges(self)
    }
    fn output_cols(&self) -> usize {
        GcwcModel::output_cols(self)
    }
    fn save(&self, path: &Path) -> Result<(), PersistError> {
        GcwcModel::save(self, path)
    }
    fn load(&mut self, path: &Path) -> Result<(), PersistError> {
        GcwcModel::load(self, path)
    }
    fn try_fit(
        &mut self,
        samples: &[TrainSample],
        control: &TrainControl,
    ) -> Result<(), TrainError> {
        GcwcModel::try_fit(self, samples, control)
    }
    fn fine_tune(
        &mut self,
        samples: &[TrainSample],
        plan: &FineTunePlan,
        control: &TrainControl,
    ) -> Result<(), TrainError> {
        GcwcModel::fine_tune(self, samples, plan, control)
    }
    fn last_report(&self) -> &TrainReport {
        GcwcModel::last_report(self)
    }
}

impl ShardModel for AGcwcModel {
    fn num_edges(&self) -> usize {
        AGcwcModel::num_edges(self)
    }
    fn output_cols(&self) -> usize {
        AGcwcModel::output_cols(self)
    }
    fn save(&self, path: &Path) -> Result<(), PersistError> {
        AGcwcModel::save(self, path)
    }
    fn load(&mut self, path: &Path) -> Result<(), PersistError> {
        AGcwcModel::load(self, path)
    }
    fn try_fit(
        &mut self,
        samples: &[TrainSample],
        control: &TrainControl,
    ) -> Result<(), TrainError> {
        AGcwcModel::try_fit(self, samples, control)
    }
    fn fine_tune(
        &mut self,
        samples: &[TrainSample],
        plan: &FineTunePlan,
        control: &TrainControl,
    ) -> Result<(), TrainError> {
        AGcwcModel::fine_tune(self, samples, plan, control)
    }
    fn last_report(&self) -> &TrainReport {
        AGcwcModel::last_report(self)
    }
}

// Shard seed derivation lives with the partitioning logic; re-exported
// here so existing `gcwc_core::shard_seed` callers keep working.
pub use gcwc_graph::shard_seed;

/// K per-partition completion models over one [`PartitionSet`].
pub struct ShardedModel<M> {
    partition: Arc<PartitionSet>,
    shards: Vec<M>,
    n: usize,
    out_cols: usize,
}

impl ShardedModel<GcwcModel> {
    /// Builds K GCWC shards by partitioning `graph`.
    pub fn gcwc(graph: &EdgeGraph, m: usize, cfg: ModelConfig, seed: u64, k: usize) -> Self {
        Self::gcwc_on(Arc::new(PartitionSet::build(graph, k)), m, cfg, seed)
    }

    /// Builds GCWC shards over an existing partition set.
    pub fn gcwc_on(partition: Arc<PartitionSet>, m: usize, cfg: ModelConfig, seed: u64) -> Self {
        let shards = partition
            .partitions()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                assert!(p.num_owned() > 0, "partition {i} owns no edges; reduce K");
                GcwcModel::new(p.graph(), m, cfg.clone(), shard_seed(seed, i))
            })
            .collect();
        Self::from_shards(partition, shards)
    }
}

impl ShardedModel<AGcwcModel> {
    /// Builds K A-GCWC shards by partitioning `graph`.
    pub fn agcwc(
        graph: &EdgeGraph,
        m: usize,
        intervals_per_day: usize,
        cfg: ModelConfig,
        seed: u64,
        k: usize,
    ) -> Self {
        Self::agcwc_on(Arc::new(PartitionSet::build(graph, k)), m, intervals_per_day, cfg, seed)
    }

    /// Builds A-GCWC shards over an existing partition set.
    pub fn agcwc_on(
        partition: Arc<PartitionSet>,
        m: usize,
        intervals_per_day: usize,
        cfg: ModelConfig,
        seed: u64,
    ) -> Self {
        let shards = partition
            .partitions()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                assert!(p.num_owned() > 0, "partition {i} owns no edges; reduce K");
                AGcwcModel::new(p.graph(), m, intervals_per_day, cfg.clone(), shard_seed(seed, i))
            })
            .collect();
        Self::from_shards(partition, shards)
    }
}

impl<M: ShardModel> ShardedModel<M> {
    fn from_shards(partition: Arc<PartitionSet>, shards: Vec<M>) -> Self {
        let n = partition.num_nodes();
        let out_cols = shards.first().expect("at least one shard").output_cols();
        Self { partition, shards, n, out_cols }
    }

    /// The partition set the shards were built over.
    pub fn partition_set(&self) -> &Arc<PartitionSet> {
        &self.partition
    }

    /// Number of shards K.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Global number of edges.
    pub fn num_edges(&self) -> usize {
        self.n
    }

    /// Output columns of the head.
    pub fn output_cols(&self) -> usize {
        self.out_cols
    }

    /// The per-partition shard models.
    pub fn shards(&self) -> &[M] {
        &self.shards
    }

    /// One shard model.
    pub fn shard(&self, k: usize) -> &M {
        &self.shards[k]
    }

    /// Decomposes into the partition set and the shard models — the
    /// hand-off point to a serving registry, which takes ownership of
    /// each trained shard.
    pub fn into_shards(self) -> (Arc<PartitionSet>, Vec<M>) {
        (self.partition, self.shards)
    }

    /// Restricts a global sample to shard `k`'s owned + halo rows.
    ///
    /// Input, label, history, and row flags are gathered in local row
    /// order; the label mask is additionally zeroed on halo rows so
    /// the shard's loss scores only the rows it owns.
    pub fn localize(&self, shard: usize, sample: &TrainSample) -> TrainSample {
        let view = self.partition.partition(shard).view();
        TrainSample {
            snapshot_index: sample.snapshot_index,
            input: view.select(&sample.input),
            label: view.select(&sample.label),
            label_mask: view.owned_mask(&sample.label_mask),
            context: view_context(view, &sample.context),
            history: sample.history.iter().map(|h| view.select(h)).collect(),
        }
    }

    /// Trains every shard on its local restriction of `samples`.
    ///
    /// K = 1 runs the single shard's fit directly on the calling
    /// thread — the exact unsharded code path. K > 1 trains shards
    /// data-parallel (one thread per shard, kernel parallelism pinned
    /// to one thread inside each); every shard's training is
    /// internally deterministic regardless of thread count, so the
    /// result is reproducible at any K.
    pub fn fit_shards(&mut self, samples: &[TrainSample]) {
        self.try_fit_shards(samples, |_| TrainControl::default())
            .unwrap_or_else(|e| panic!("sharded training failed: {e}"));
    }

    /// Fallible [`ShardedModel::fit_shards`]: every shard trains under
    /// the divergence guard, and `control_for(k)` supplies shard `k`'s
    /// [`TrainControl`] (e.g. a per-shard [`CheckpointPlan`]). The
    /// first shard error (by shard index) is returned; shards that
    /// already finished keep their trained parameters.
    pub fn try_fit_shards(
        &mut self,
        samples: &[TrainSample],
        control_for: impl Fn(usize) -> TrainControl + Sync,
    ) -> Result<(), TrainError> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.run_shards(&all, samples, control_for, |shard, local, control| {
            shard.try_fit(local, control)
        })
    }

    /// Shard fan-out shared by full fits, subset retrains and fine-tune
    /// passes, over the shards listed in `which`, placed as the module
    /// docs say. Shards fan out once per fit, not once per step, and
    /// training a shard on the calling thread measured slower (DESIGN
    /// §10), so this placement stays outside `fork_join`.
    fn run_shards(
        &mut self,
        which: &[usize],
        samples: &[TrainSample],
        control_for: impl Fn(usize) -> TrainControl + Sync,
        fit: impl Fn(&mut M, &[TrainSample], &TrainControl) -> Result<(), TrainError> + Sync,
    ) -> Result<(), TrainError> {
        let single = self.shards.len() == 1;
        let listed = |k: &usize| which.contains(k);
        let locals: Vec<Vec<TrainSample>> = (0..self.shards.len())
            .filter(listed)
            .map(|k| samples.iter().map(|s| self.localize(k, s)).collect())
            .collect();
        let mut jobs = self.shards.iter_mut().enumerate().filter(|(k, _)| listed(k)).zip(&locals);
        if single {
            return jobs.try_for_each(|((k, shard), local)| fit(shard, local, &control_for(k)));
        }
        let control_for = &control_for;
        let fit = &fit;
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .map(|((k, shard), local)| {
                    gcwc_linalg::parallel::spawn_pinned(scope, move || {
                        fit(shard, local, &control_for(k))
                    })
                })
                .collect();
            handles.into_iter().try_for_each(|h| h.join().expect("shard trainer panicked"))
        })
    }

    /// Trains every shard with periodic training-state checkpoints
    /// under `dir` (`{stem}.shard{k}.trainstate`); when `resume` is set
    /// and state files exist, each shard continues its killed run
    /// bit-identically instead of starting over.
    pub fn fit_shards_resumable(
        &mut self,
        samples: &[TrainSample],
        dir: &Path,
        stem: &str,
        every_epochs: usize,
        resume: bool,
    ) -> Result<(), TrainError> {
        self.try_fit_shards(samples, |k| TrainControl {
            checkpoint: Some(CheckpointPlan {
                path: dir.join(format!("{stem}.shard{k}.trainstate")),
                every_epochs,
                resume,
            }),
            ..TrainControl::default()
        })
    }

    /// Warm-start fine-tuning of every shard on its local restriction
    /// of `samples` under `plan`, with the same periodic training-state
    /// checkpoints (and divergence guard) as
    /// [`ShardedModel::fit_shards_resumable`]. The incremental-refresh
    /// path: load the current checkpoint set, fine-tune on fresh slots
    /// only, and hand the shards to the serving registry.
    pub fn fine_tune_shards_resumable(
        &mut self,
        samples: &[TrainSample],
        dir: &Path,
        stem: &str,
        every_epochs: usize,
        resume: bool,
        plan: &FineTunePlan,
    ) -> Result<(), TrainError> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.run_shards(
            &all,
            samples,
            |k| TrainControl {
                checkpoint: Some(CheckpointPlan {
                    path: dir.join(format!("{stem}.shard{k}.trainstate")),
                    every_epochs,
                    resume,
                }),
                ..TrainControl::default()
            },
            |shard, local, control| shard.fine_tune(local, plan, control),
        )
    }

    /// Absorbs a topology delta: repairs the partition set over
    /// `graph` (the current global edge graph) and rebuilds *only* the
    /// delta-affected shards via `rebuild(shard, partition)` — the
    /// caller constructs a fresh untrained model for each repaired
    /// partition (same config and per-shard seed as the original
    /// build). Untouched shards keep their trained parameters and
    /// their partition `Arc`s, so the surviving majority of the model
    /// survives a localized delta untouched.
    ///
    /// Returns the post-delta global graph and the repaired shard
    /// indices (retrain those with
    /// [`ShardedModel::fit_shards_subset`]).
    pub fn apply_delta(
        &mut self,
        graph: &EdgeGraph,
        delta: &GraphDelta,
        rebuild: impl Fn(usize, &Partition) -> M,
    ) -> Result<(EdgeGraph, Vec<usize>), DeltaError> {
        let DeltaRepair { graph: new_graph, partitions, repaired } =
            self.partition.apply_delta(graph, delta)?;
        let partitions = Arc::new(partitions);
        for &b in &repaired {
            let p = partitions.partition(b);
            assert!(p.num_owned() > 0, "repaired partition {b} owns no edges");
            self.shards[b] = rebuild(b, p);
        }
        self.partition = partitions;
        self.n = self.partition.num_nodes();
        Ok((new_graph, repaired))
    }

    /// Trains only the shards in `subset` on their local restriction
    /// of `samples` — the retrain step after
    /// [`ShardedModel::apply_delta`]. The listed shards train exactly as
    /// a full [`ShardedModel::fit_shards`] pass trains them, so a
    /// repaired-and-retrained shard is bit-identical to the same shard
    /// trained in a from-scratch model.
    pub fn fit_shards_subset(
        &mut self,
        subset: &[usize],
        samples: &[TrainSample],
    ) -> Result<(), TrainError> {
        self.run_shards(
            subset,
            samples,
            |_| TrainControl::default(),
            |shard, local, control| shard.try_fit(local, control),
        )
    }

    /// Predicts the global completion: each shard predicts on its
    /// local view and its owned rows are scattered into an
    /// `n × out_cols` matrix.
    pub fn predict_global(&self, sample: &TrainSample) -> Matrix {
        let mut out = Matrix::zeros(self.n, self.out_cols);
        for (k, shard) in self.shards.iter().enumerate() {
            let local = self.localize(k, sample);
            let pred = shard.predict(&local);
            self.partition.partition(k).view().scatter_owned(&pred, &mut out);
        }
        out
    }

    /// Training reports of every shard's last fit, in shard order.
    pub fn shard_reports(&self) -> Vec<&TrainReport> {
        self.shards.iter().map(|s| s.last_report()).collect()
    }

    /// Saves every shard as `{stem}.shard{k}.ckpt` under `dir`.
    pub fn save_shards(
        &self,
        dir: &Path,
        stem: &str,
    ) -> Result<Vec<std::path::PathBuf>, PersistError> {
        let mut paths = Vec::with_capacity(self.shards.len());
        for (k, shard) in self.shards.iter().enumerate() {
            let path = dir.join(format!("{stem}.shard{k}.ckpt"));
            shard.save(&path)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Loads every shard from `{stem}.shard{k}.ckpt` under `dir`.
    pub fn load_shards(&mut self, dir: &Path, stem: &str) -> Result<(), PersistError> {
        for (k, shard) in self.shards.iter_mut().enumerate() {
            shard.load(&dir.join(format!("{stem}.shard{k}.ckpt")))?;
        }
        Ok(())
    }
}

impl<M: ShardModel> CompletionModel for ShardedModel<M> {
    fn name(&self) -> String {
        format!("{}(K={})", self.shards[0].name(), self.shards.len())
    }

    fn fit(&mut self, samples: &[TrainSample]) {
        self.fit_shards(samples);
    }

    fn predict(&self, sample: &TrainSample) -> Matrix {
        self.predict_global(sample)
    }

    fn num_params(&self) -> usize {
        self.shards.iter().map(|s| s.num_params()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{build_samples, TaskKind};
    use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};

    fn tiny_samples() -> (gcwc_traffic::NetworkInstance, Vec<TrainSample>) {
        let hw = generators::highway_tollgate(1);
        let sim = SimConfig {
            days: 2,
            intervals_per_day: 8,
            records_per_interval: 8.0,
            ..Default::default()
        };
        let data = simulate(&hw, HistogramSpec::hist4(), &sim);
        let ds = data.to_dataset(0.5, 3, 5);
        let idx: Vec<usize> = (0..ds.snapshots.len()).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        (hw, samples)
    }

    #[test]
    fn shard_seed_is_base_seed_at_shard_zero() {
        assert_eq!(shard_seed(42, 0), 42);
        assert_ne!(shard_seed(42, 1), 42);
    }

    #[test]
    fn k2_predictions_cover_every_row_exactly_once() {
        let (hw, samples) = tiny_samples();
        let mut model =
            ShardedModel::gcwc(&hw.graph, 4, ModelConfig::hw_hist().with_epochs(1), 9, 2);
        model.fit_shards(&samples[..4]);
        let out = model.predict_global(&samples[0]);
        assert_eq!(out.shape(), (hw.graph.num_nodes(), 4));
        // HIST head: every global row must be a scattered softmax row.
        for i in 0..out.rows() {
            let s: f64 = out.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
    }

    #[test]
    fn localize_masks_halo_rows() {
        let (hw, samples) = tiny_samples();
        let model = ShardedModel::gcwc(&hw.graph, 4, ModelConfig::hw_hist().with_epochs(1), 9, 2);
        for k in 0..2 {
            let view = model.partition_set().partition(k).view();
            let local = model.localize(k, &samples[0]);
            assert_eq!(local.input.rows(), view.num_local());
            for h in view.num_owned()..view.num_local() {
                assert_eq!(local.label_mask[h], 0.0, "halo row {h} must be unmasked");
            }
        }
    }
}
