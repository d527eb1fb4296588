//! The training fixture the training allocation gates share: GCWC with
//! the HW-HIST configuration on the one-tollgate highway, trained
//! through `run_training` itself (per batch: corrupted inputs → encoder
//! forward → KL loss → backward on one tape per part → one
//! `merge_batch` → one Adam step). Six samples under the configured
//! batch size of 20 make one batch per epoch.

use gcwc::model::Encoder;
use gcwc::task::corrupt_input_pooled;
use gcwc::train::{run_training, TrainControl};
use gcwc::{build_samples, ModelConfig, TaskKind};
use gcwc_linalg::rng::seeded;
use gcwc_nn::ParamStore;
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};

/// Trains a fresh model for `epochs` epochs inside `count`, which runs
/// the training closure it is handed once and returns the allocations
/// it saw; set-up stays outside that window.
pub fn training_allocs(epochs: usize, count: impl FnOnce(&mut dyn FnMut()) -> u64) -> u64 {
    let hw = generators::highway_tollgate(1);
    let sim = SimConfig {
        days: 2,
        intervals_per_day: 16,
        records_per_interval: 10.0,
        ..Default::default()
    };
    let data = simulate(&hw, HistogramSpec::hist8(), &sim);
    let ds = data.to_dataset(0.5, 5, 11);
    let idx: Vec<usize> = (0..ds.len()).collect();
    let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
    let samples = &samples[..6.min(samples.len())];
    let cfg = ModelConfig::hw_hist();

    let mut store = ParamStore::new();
    let mut init_rng = seeded(3);
    let enc = Encoder::new(&hw.graph, 8, &cfg, &mut store, &mut init_rng);
    let mut rng = seeded(9);
    count(&mut || {
        run_training(
            &mut store,
            cfg.optim,
            epochs,
            cfg.batch_size,
            samples,
            &mut rng,
            &TrainControl::default(),
            |tape, store, sample, rng| {
                let (input, flags) = corrupt_input_pooled(
                    &sample.input,
                    &sample.context.row_flags,
                    cfg.row_dropout,
                    rng,
                    tape.pool_mut(),
                );
                let pred = enc.output(tape, store, &input, true, rng);
                tape.pool_mut().give(input);
                tape.pool_mut().give_vec(flags);
                tape.kl_loss_masked_ref(pred, &sample.label, &sample.label_mask, 1e-6)
            },
        )
        .unwrap();
    })
}
