//! Scale sweep to 8 600 edges (`exp_runner scale-sweep [--json]`).
//!
//! The paper's §VI-D scalability protocol pushed past the Figure 6
//! table: the CI network is tiled ×10/×25/×50 (1 720 → 8 600 edges),
//! each scale trains GCWC and the partitioned "-M2" variant (the same
//! two-shard path `--shards=2` uses), and every row reports the
//! machine-readable numbers CI tracks — steady-state training-step
//! nanoseconds, serving latency percentiles, peak RSS, and heap
//! allocations per step.
//!
//! `allocs_per_step` is live only under the `count-allocs` feature
//! (or a test binary that installs [`crate::allocs::CountingAlloc`]);
//! otherwise it reads 0.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use gcwc::model::Encoder;
use gcwc::task::corrupt_input_pooled;
use gcwc::{CompletionModel, GcwcModel, ModelConfig, ShardedModel, TrainSample};
use gcwc_graph::EdgeGraph;
use gcwc_linalg::rng::seeded;
use gcwc_linalg::Matrix;
use gcwc_nn::{Adam, GradBuffer, ParamStore, Tape};
use gcwc_traffic::generators;
use rand::Rng;

use crate::allocs;
use crate::scalability::synthetic_samples;

/// Sizing knobs for one sweep run.
#[derive(Clone, Debug)]
pub struct ScaleSweepConfig {
    /// CI-network scale factors (the paper's protocol tiles ×10…×50).
    pub scales: Vec<usize>,
    /// Steady-state training steps timed per variant.
    pub steps: usize,
    /// Serving requests timed per variant.
    pub serve_reqs: usize,
    /// Base RNG seed (graph, samples, and model init).
    pub seed: u64,
}

impl ScaleSweepConfig {
    /// The full protocol: ×10/×25/×50, up to 8 600 edges.
    pub fn full() -> Self {
        Self { scales: vec![10, 25, 50], steps: 6, serve_reqs: 24, seed: 42 }
    }

    /// CI-sized downsample: the ×10 point only, fewer steps.
    pub fn smoke() -> Self {
        Self { scales: vec![10], steps: 3, serve_reqs: 6, seed: 42 }
    }
}

/// One measured (scale, variant) row.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Network scale factor.
    pub scale: usize,
    /// Road edges at this scale (nodes of the edge graph).
    pub edges: usize,
    /// `"GCWC"` or `"GCWC-M2"`.
    pub variant: &'static str,
    /// Shard count backing the variant (1, or 2 for `-M2`).
    pub shards: usize,
    /// Minimum nanoseconds per training step.
    ///
    /// GCWC rows pin the true steady state (reused tape/pool, minimum
    /// over timed steps); `-M2` rows time one full epoch through the
    /// sharded fit path and amortise it over the epoch's steps.
    pub train_step_ns: u64,
    /// Median serving latency (one `predict` call), nanoseconds.
    pub serve_p50_ns: u64,
    /// 99th-percentile serving latency, nanoseconds.
    pub serve_p99_ns: u64,
    /// Peak resident set size (`VmHWM`) after the variant ran, in kB.
    /// A process-wide high-water mark: monotone across rows, 0 where
    /// `/proc` is unavailable.
    pub peak_rss_kb: u64,
    /// Heap allocations per training step over the measured window
    /// (amortised; see [`ScaleRow::train_step_ns`] for what the window
    /// is per variant). GCWC rows must hold this at exactly 0.
    pub allocs_per_step: u64,
}

/// A full sweep: one row per (scale, variant).
#[derive(Clone, Debug)]
pub struct ScaleSweepReport {
    /// Measured rows, in scale order, GCWC before GCWC-M2.
    pub rows: Vec<ScaleRow>,
}

/// Peak resident set size (`VmHWM`) in kB; 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

/// One full GCWC training step into reused workspaces — the exact body
/// `run_training` executes per sample in its steady state (and the
/// body `alloc_regression` pins at zero allocations).
#[allow(clippy::too_many_arguments)]
fn training_step(
    enc: &Encoder,
    store: &mut ParamStore,
    adam: &mut Adam,
    tape: &mut Tape,
    buffer: &mut GradBuffer,
    sample: &TrainSample,
    row_dropout: f64,
    seed: u64,
) {
    store.zero_grads();
    tape.reset();
    buffer.reset();
    let mut rng = seeded(seed);
    let (input, flags) = corrupt_input_pooled(
        &sample.input,
        &sample.context.row_flags,
        row_dropout,
        &mut rng,
        tape.pool_mut(),
    );
    let pred = enc.output(tape, store, &input, true, &mut rng);
    tape.pool_mut().give(input);
    tape.pool_mut().give_vec(flags);
    let loss = tape.kl_loss_masked_ref(pred, &sample.label, &sample.label_mask, 1e-6);
    tape.backward(loss, buffer);
    buffer.merge_into(store);
    store.scale_grads(1.0);
    assert!(adam.step(store), "a clean training step must be applied");
}

/// Steady-state training-step time and allocations for one GCWC model:
/// two cold steps warm the tape pool, then `steps` timed steps must be
/// allocation-free. Returns `(min ns/step, allocs/step)`.
fn steady_state_gcwc(
    graph: &EdgeGraph,
    samples: &[TrainSample],
    cfg: &ModelConfig,
    steps: usize,
    seed: u64,
) -> (u64, u64) {
    let mut store = ParamStore::new();
    let mut init_rng = seeded(seed);
    let enc = Encoder::new(graph, 8, cfg, &mut store, &mut init_rng);
    let mut adam = Adam::new(&store, cfg.optim);
    let mut tape = Tape::new();
    let mut buffer = GradBuffer::new();
    let mut master = seeded(seed ^ 0xA5A5);
    for i in 0..2 {
        let s: u64 = master.random();
        let sample = &samples[i % samples.len()];
        training_step(
            &enc,
            &mut store,
            &mut adam,
            &mut tape,
            &mut buffer,
            sample,
            cfg.row_dropout,
            s,
        );
    }
    let mut best = u64::MAX;
    let a0 = allocs::alloc_count();
    for i in 0..steps {
        let s: u64 = master.random();
        let sample = &samples[(i + 2) % samples.len()];
        let t0 = Instant::now();
        training_step(
            &enc,
            &mut store,
            &mut adam,
            &mut tape,
            &mut buffer,
            sample,
            cfg.row_dropout,
            s,
        );
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    let allocs_per_step = (allocs::alloc_count() - a0) / steps as u64;
    (best, allocs_per_step)
}

/// Times `reqs` serving requests through `predict`, cycling over
/// `samples`; returns `(p50 ns, p99 ns)`. One unrecorded warm-up
/// request fills caches first.
fn serve_percentiles(
    mut predict: impl FnMut(&TrainSample) -> Matrix,
    samples: &[TrainSample],
    reqs: usize,
) -> (u64, u64) {
    black_box(predict(&samples[0]));
    let mut ns: Vec<u64> = Vec::with_capacity(reqs);
    for i in 0..reqs {
        let sample = &samples[i % samples.len()];
        let t0 = Instant::now();
        black_box(predict(sample));
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    ns.sort_unstable();
    (percentile(&ns, 0.50), percentile(&ns, 0.99))
}

/// Runs the sweep: per-scale GCWC and GCWC-M2 rows (training,
/// serving, RSS, allocations).
pub fn run(cfg: &ScaleSweepConfig) -> ScaleSweepReport {
    let base = generators::city_network(cfg.seed);
    let m = 8;
    let ipd = 48;
    let model_cfg = ModelConfig::ci_hist().with_epochs(1);
    let mut rows = Vec::new();
    for &scale in &cfg.scales {
        let graph = generators::scaled_city(&base.graph, scale);
        let n = graph.num_nodes();
        let samples = synthetic_samples(n, m, cfg.steps.max(4), ipd, cfg.seed);
        eprintln!("  [scale-sweep] scale={scale} edges={n} …");

        // GCWC: steady-state step loop, then a trained model serves.
        let (train_step_ns, allocs_per_step) =
            steady_state_gcwc(&graph, &samples, &model_cfg, cfg.steps, cfg.seed);
        let mut model = GcwcModel::new(&graph, m, model_cfg.clone(), cfg.seed);
        model.fit(&samples);
        let (p50, p99) = serve_percentiles(|s| model.predict(s), &samples, cfg.serve_reqs);
        rows.push(ScaleRow {
            scale,
            edges: n,
            variant: "GCWC",
            shards: 1,
            train_step_ns,
            serve_p50_ns: p50,
            serve_p99_ns: p99,
            peak_rss_kb: peak_rss_kb(),
            allocs_per_step,
        });

        // GCWC-M2: the two-shard partitioned path. The first fit warms
        // per-shard workspaces; the second, timed fit is one epoch, so
        // ns and allocations amortise over `samples.len()` steps.
        let mut sharded = ShardedModel::gcwc(&graph, m, model_cfg.clone(), cfg.seed, 2);
        sharded.fit_shards(&samples);
        let steps = samples.len() as u64;
        let a0 = allocs::alloc_count();
        let t0 = Instant::now();
        sharded.fit_shards(&samples);
        let m2_step_ns = (t0.elapsed().as_nanos() as u64) / steps;
        let m2_allocs = (allocs::alloc_count() - a0) / steps;
        let (p50, p99) = serve_percentiles(|s| sharded.predict_global(s), &samples, cfg.serve_reqs);
        rows.push(ScaleRow {
            scale,
            edges: n,
            variant: "GCWC-M2",
            shards: 2,
            train_step_ns: m2_step_ns,
            serve_p50_ns: p50,
            serve_p99_ns: p99,
            peak_rss_kb: peak_rss_kb(),
            allocs_per_step: m2_allocs,
        });
    }
    ScaleSweepReport { rows }
}

/// Renders the report as an aligned text table.
pub fn render(r: &ScaleSweepReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Scale sweep");
    let _ = writeln!(
        s,
        "{:>6}{:>7}{:>10}{:>8}{:>15}{:>14}{:>14}{:>13}{:>13}",
        "scale",
        "edges",
        "variant",
        "shards",
        "train ns/step",
        "serve p50 ns",
        "serve p99 ns",
        "peak RSS kB",
        "allocs/step"
    );
    for row in &r.rows {
        let _ = writeln!(
            s,
            "{:>6}{:>7}{:>10}{:>8}{:>15}{:>14}{:>14}{:>13}{:>13}",
            row.scale,
            row.edges,
            row.variant,
            row.shards,
            row.train_step_ns,
            row.serve_p50_ns,
            row.serve_p99_ns,
            row.peak_rss_kb,
            row.allocs_per_step
        );
    }
    s
}

/// Serialises the report as a JSON object (hand-rolled — every field
/// is a number or a plain identifier string, so no escaping is
/// needed).
pub fn to_json(r: &ScaleSweepReport) -> String {
    let mut s = String::from("{\n  \"rows\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scale\": {}, \"edges\": {}, \"variant\": \"{}\", \"shards\": {}, \
             \"train_step_ns\": {}, \"serve_p50_ns\": {}, \"serve_p99_ns\": {}, \
             \"peak_rss_kb\": {}, \"allocs_per_step\": {}}}",
            row.scale,
            row.edges,
            row.variant,
            row.shards,
            row.train_step_ns,
            row.serve_p50_ns,
            row.serve_p99_ns,
            row.peak_rss_kb,
            row.allocs_per_step
        );
        s.push_str(if i + 1 < r.rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> ScaleSweepReport {
        ScaleSweepReport {
            rows: vec![ScaleRow {
                scale: 10,
                edges: 1720,
                variant: "GCWC",
                shards: 1,
                train_step_ns: 5,
                serve_p50_ns: 3,
                serve_p99_ns: 4,
                peak_rss_kb: 1024,
                allocs_per_step: 0,
            }],
        }
    }

    #[test]
    fn json_shape_is_valid() {
        let j = to_json(&fake_report());
        assert!(j.starts_with("{\n") && j.ends_with("}\n"));
        for field in [
            "\"variant\": \"GCWC\"",
            "\"train_step_ns\": 5",
            "\"peak_rss_kb\": 1024",
            "\"allocs_per_step\": 0",
        ] {
            assert!(j.contains(field), "missing {field} in {j}");
        }
        assert!(!j.contains(",\n  ]"), "no trailing comma");
        assert!(!j.contains("matmul"), "no kernel timing field");
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let ns = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&ns, 0.50), 30);
        assert_eq!(percentile(&ns, 0.99), 50);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn peak_rss_reads_a_plausible_value() {
        let kb = peak_rss_kb();
        // On Linux this is at least a few MB for any test binary.
        assert!(kb == 0 || kb > 1024, "implausible VmHWM: {kb}");
    }
}
