//! Incremental refresh: warm-start fine-tuning on freshly sealed
//! slots, holdout validation, and atomic hot-swap into the serving
//! registry — with rollback when the candidate regresses.
//!
//! ## Protocol
//!
//! Checkpoint generations live under `dir` as
//! `{stem}.g{G}.shard{k}.ckpt`; the **manifest** (`{stem}.manifest`,
//! written by `gcwc_nn::persist::write_atomic`) names the committed
//! generation `G`. Nothing else is written there. A refresh:
//!
//! 1. builds a candidate from the factory and warm-starts it from the
//!    committed generation's checkpoints;
//! 2. scores the candidate on the holdout slots (`prev_loss` — the
//!    serving model's loss, since parameters are identical);
//! 3. fine-tunes in memory on the *fresh* train slots only (slots not
//!    consumed by an earlier refresh) under the divergence guard. It
//!    writes no training state: a crashed refresh restarts from the
//!    committed generation;
//! 4. re-scores the holdout (`cand_loss`); if the candidate regressed
//!    past the configured tolerance the refresh **rolls back**: no
//!    files change, the registry keeps serving, and the offending
//!    slots are quarantined (not retried);
//! 5. otherwise saves generation `G+1`, commits the manifest (the
//!    crash-recovery point — the `ingest.refresh.swap` failpoint sits
//!    just before it), swaps the full shard set into the registry in
//!    one generation bump, and deletes generation `G`'s files.
//!
//! A crash anywhere before the manifest commit leaves the manifest
//! naming `G` and the registry serving `G`: uncommitted `G+1` files
//! are simply overwritten by the next attempt. Determinism: building
//! the factory model with the same seed, loading the same checkpoint
//! generation, and fine-tuning on the same samples consumes the model
//! RNG exactly like one offline `try_fit`, so a refreshed server
//! answers bit-identically to an offline model trained the same way.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use gcwc::model::sharded::shard_checkpoint_path;
use gcwc::FineTunePlan;
use gcwc::{GcwcModel, ShardedModel, TrainSample};
use gcwc_nn::{persist, PersistError};
use gcwc_serve::{AnyModel, IngestStats, ModelRegistry};

use crate::window::SealedSlot;
use crate::IngestError;

const MANIFEST_MAGIC: &str = "gcwc-ingest-manifest v1";

/// Builds an untrained candidate sharded model (same partition set,
/// config, and seed every call — warm-start bit-identity depends on
/// it).
pub type ShardedFactory = Box<dyn Fn() -> ShardedModel<GcwcModel> + Send>;

/// Refresh policy knobs.
#[derive(Clone, Debug)]
pub struct RefreshConfig {
    /// Warm-start fine-tune plan (epochs + learning-rate scale).
    pub plan: FineTunePlan,
    /// Training-state checkpoint cadence for
    /// `ShardedModel::fine_tune_shards_resumable`. [`RefreshDriver`]
    /// does not read it, since it fine-tunes in memory; it stays for
    /// perfbench's live-city replay (see ROADMAP).
    pub every_epochs: usize,
    /// Newest sealed slots held out for validation (never trained on).
    pub holdout: usize,
    /// Minimum *fresh* train slots before a refresh is attempted.
    pub min_fresh_slots: usize,
    /// Relative holdout-loss regression tolerated before rollback:
    /// the swap happens only if
    /// `cand_loss <= prev_loss * (1 + max_regression)`.
    pub max_regression: f64,
    /// Directory holding checkpoints and the manifest.
    pub dir: PathBuf,
    /// File-name stem for this deployment's artifacts.
    pub stem: String,
}

impl RefreshConfig {
    /// Conservative defaults under `dir`: 2-epoch half-LR fine-tune,
    /// 2-slot holdout, refresh every 4 fresh slots, 10% regression
    /// tolerance.
    pub fn new(dir: PathBuf) -> Self {
        Self {
            plan: FineTunePlan::default(),
            every_epochs: 1,
            holdout: 2,
            min_fresh_slots: 4,
            max_regression: 0.10,
            dir,
            stem: "live".to_owned(),
        }
    }
}

/// What one [`RefreshDriver::refresh`] call did.
#[derive(Debug)]
pub enum RefreshOutcome {
    /// Not enough fresh sealed slots yet; nothing changed.
    NotReady {
        /// Fresh train slots available.
        fresh_slots: usize,
        /// Fresh train slots required.
        needed: usize,
    },
    /// The candidate validated and was hot-swapped into the registry.
    Applied {
        /// Registry generation now serving.
        registry_generation: u64,
        /// Committed checkpoint generation `G`.
        checkpoint_generation: u64,
        /// Holdout loss before fine-tuning (the previous model's).
        prev_loss: f64,
        /// Holdout loss after fine-tuning (the new model's).
        cand_loss: f64,
        /// Fresh slots the candidate was fine-tuned on.
        trained_slots: usize,
    },
    /// The candidate regressed past tolerance; the previous generation
    /// keeps serving and the offending slots are quarantined.
    RolledBack {
        /// Holdout loss of the serving model.
        prev_loss: f64,
        /// Holdout loss of the rejected candidate.
        cand_loss: f64,
    },
}

/// Drives incremental refreshes against one registry; see the module
/// docs.
pub struct RefreshDriver {
    cfg: RefreshConfig,
    factory: ShardedFactory,
    registry: Arc<ModelRegistry>,
    stats: Option<Arc<IngestStats>>,
    /// Committed checkpoint generation (0 = nothing committed yet).
    generation: u64,
    /// Slots below this index were already consumed by a refresh
    /// attempt (applied or rolled back) and are never retrained.
    trained_upto: u64,
}

impl RefreshDriver {
    /// A driver over `registry`, resuming from the manifest in
    /// `cfg.dir` when one exists (the crash-recovery path).
    pub fn new(
        cfg: RefreshConfig,
        factory: ShardedFactory,
        registry: Arc<ModelRegistry>,
    ) -> Result<Self, IngestError> {
        fs::create_dir_all(&cfg.dir)?;
        let generation = read_manifest(&cfg)?.unwrap_or(0);
        Ok(Self { cfg, factory, registry, stats: None, generation, trained_upto: 0 })
    }

    /// Mirrors refresh counters into the serving engine's stats.
    pub fn with_stats(mut self, stats: Arc<IngestStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Committed checkpoint generation (0 before the first install).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Slots below this index were already consumed by a refresh.
    pub fn trained_upto(&self) -> u64 {
        self.trained_upto
    }

    /// Bootstraps the loop with an offline-trained model: saves it as
    /// generation 1, commits the manifest, and swaps it into the
    /// registry. Returns the registry generation.
    pub fn install_initial(&mut self, model: ShardedModel<GcwcModel>) -> Result<u64, IngestError> {
        assert_eq!(self.generation, 0, "install_initial on an already-committed driver");
        model.save_shards(&self.cfg.dir, &self.stem_for(1))?;
        self.commit_manifest(1)?;
        self.generation = 1;
        Ok(self.install(model))
    }

    /// Rebuilds the committed generation from its checkpoints and
    /// swaps it into the registry — the restart path that puts a fresh
    /// process back on the last committed model.
    pub fn reinstall_current(&mut self) -> Result<u64, IngestError> {
        assert!(self.generation > 0, "no committed generation to reinstall");
        let mut model = (self.factory)();
        model.load_shards(&self.cfg.dir, &self.stem_for(self.generation))?;
        Ok(self.install(model))
    }

    /// Attempts one incremental refresh over the sealed slots
    /// (oldest-first, as produced by the window aggregator). See the
    /// module docs for the full protocol.
    pub fn refresh(&mut self, sealed: &[SealedSlot]) -> Result<RefreshOutcome, IngestError> {
        let split = sealed.len().saturating_sub(self.cfg.holdout);
        let (train, holdout) = sealed.split_at(split);
        let fresh: Vec<&SealedSlot> =
            train.iter().filter(|s| s.slot >= self.trained_upto).collect();
        if fresh.len() < self.cfg.min_fresh_slots.max(1) || holdout.is_empty() {
            return Ok(RefreshOutcome::NotReady {
                fresh_slots: fresh.len(),
                needed: self.cfg.min_fresh_slots.max(1),
            });
        }

        let mut candidate = (self.factory)();
        if self.generation > 0 {
            candidate.load_shards(&self.cfg.dir, &self.stem_for(self.generation))?;
        }
        let holdout_samples: Vec<TrainSample> =
            holdout.iter().enumerate().map(|(i, s)| s.to_sample(i)).collect();
        let prev_loss = holdout_loss(&candidate, &holdout_samples);

        let fresh_samples: Vec<TrainSample> =
            fresh.iter().enumerate().map(|(i, s)| s.to_sample(i)).collect();
        candidate.fine_tune_shards(&fresh_samples, &self.cfg.plan)?;
        let cand_loss = holdout_loss(&candidate, &holdout_samples);

        // Consumed either way: a rolled-back batch is quarantined, not
        // retried forever against the same regression.
        self.trained_upto = fresh.iter().map(|s| s.slot + 1).max().unwrap();

        if self.generation > 0 && cand_loss > prev_loss * (1.0 + self.cfg.max_regression) {
            if let Some(stats) = &self.stats {
                stats.refresh_rolled_back();
            }
            return Ok(RefreshOutcome::RolledBack { prev_loss, cand_loss });
        }

        let next = self.generation + 1;
        candidate.save_shards(&self.cfg.dir, &self.stem_for(next))?;
        // Failpoint: dying here (after the new checkpoints, before the
        // manifest commit) must leave the previous generation both
        // committed on disk and serving in the registry.
        if gcwc_failpoint::triggered(crate::failsite::REFRESH_SWAP) {
            return Err(IngestError::Injected(crate::failsite::REFRESH_SWAP));
        }
        self.commit_manifest(next)?;
        let old = self.generation;
        self.generation = next;
        let num_shards = candidate.num_shards();
        let registry_generation = self.install(candidate);
        if old > 0 {
            for k in 0..num_shards {
                let _ =
                    fs::remove_file(shard_checkpoint_path(&self.cfg.dir, &self.stem_for(old), k));
            }
        }
        if let Some(stats) = &self.stats {
            stats.refresh_applied();
        }
        Ok(RefreshOutcome::Applied {
            registry_generation,
            checkpoint_generation: next,
            prev_loss,
            cand_loss,
            trained_slots: fresh_samples.len(),
        })
    }

    fn install(&self, model: ShardedModel<GcwcModel>) -> u64 {
        let (_, shards) = model.into_shards();
        self.registry.install_set(shards.into_iter().map(AnyModel::Gcwc).collect())
    }

    fn stem_for(&self, generation: u64) -> String {
        format!("{}.g{generation}", self.cfg.stem)
    }

    fn commit_manifest(&self, generation: u64) -> Result<(), IngestError> {
        let text = format!("{MANIFEST_MAGIC}\ngeneration {generation}\n");
        persist::write_atomic(&manifest_path(&self.cfg), &text)?;
        Ok(())
    }
}

fn manifest_path(cfg: &RefreshConfig) -> PathBuf {
    cfg.dir.join(format!("{}.manifest", cfg.stem))
}

fn read_manifest(cfg: &RefreshConfig) -> Result<Option<u64>, IngestError> {
    let path = manifest_path(cfg);
    // A crashed commit leaves at most a `.tmp` sibling; the committed
    // manifest (if any) is intact. Discard the leftover.
    let _ = fs::remove_file(persist::tmp_path(&path));
    if !path.exists() {
        return Ok(None);
    }
    // A commit writes generation 1 or later, and nothing after it.
    crate::read_file(&path, |r| {
        r.expect(MANIFEST_MAGIC)?;
        r.expect("generation")?;
        match r.number("the committed generation")? {
            0 => Err(PersistError::Format("generation 0 is never committed".into())),
            generation => Ok(Some(generation)),
        }
    })
}

/// Mean masked KL divergence of the model's completions against the
/// holdout labels — the deterministic validation score of a refresh.
/// Rows without label mask are skipped; returns 0 when nothing is
/// covered.
pub fn holdout_loss(model: &ShardedModel<GcwcModel>, samples: &[TrainSample]) -> f64 {
    const EPS: f64 = 1e-6;
    let mut total = 0.0;
    let mut rows = 0usize;
    for sample in samples {
        let pred = model.predict_global(sample);
        for i in 0..pred.rows() {
            if sample.label_mask[i] <= 0.0 {
                continue;
            }
            let (p, q) = (sample.label.row(i), pred.row(i));
            total +=
                p.iter().zip(q).map(|(pi, qi)| pi * ((pi + EPS) / (qi + EPS)).ln()).sum::<f64>();
            rows += 1;
        }
    }
    if rows == 0 {
        0.0
    } else {
        total / rows as f64
    }
}
