//! Inputs and checks shared by the workloads: the fixed CI network,
//! seeded synthetic weight matrices, the histogram-row check, the
//! per-run scratch directory and capacity-phase slices.

use std::path::PathBuf;
use std::time::Instant;

use gcwc::{ModelConfig, TrainSample};
use gcwc_graph::EdgeGraph;
use gcwc_linalg::Matrix;
use gcwc_traffic::{generators, Context};
use rand::rngs::StdRng;
use rand::Rng;

use crate::stats;
use crate::sys;

/// Seed of the network, the model initialisation and the fixture
/// checkpoints. It is fixed, so every `--seed` runs the same system;
/// `--seed` varies only the inputs the workload sends.
pub const NET_SEED: u64 = 42;
/// Histogram buckets (HIST-8).
pub const M: usize = 8;
/// Slots per day (the paper's 15-minute slots).
pub const SLOTS_PER_DAY: usize = 96;
/// Share of rows an input covers.
pub const COVERAGE: f64 = 0.5;

/// The CI city's edge graph (172 edges).
pub fn ci_city() -> EdgeGraph {
    generators::city_network(NET_SEED).graph
}

/// The paper's CI model configuration (Table III).
pub fn ci_config() -> ModelConfig {
    ModelConfig::ci_hist()
}

/// Overwrites `out` with a random observed weight matrix: each row is
/// covered with probability [`COVERAGE`] and then holds a random
/// histogram; uncovered rows are zero.
pub fn fill_input(rng: &mut StdRng, out: &mut Matrix) {
    let m = out.cols();
    out.as_mut_slice().fill(0.0);
    for i in 0..out.rows() {
        if rng.random::<f64>() >= COVERAGE {
            continue;
        }
        let row = out.row_mut(i);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = rng.random::<f64>() + 1e-3;
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    debug_assert_eq!(m, out.cols());
}

/// A random input with its context.
pub fn random_request(rng: &mut StdRng, n: usize) -> (Matrix, usize, usize) {
    let mut input = Matrix::zeros(n, M);
    fill_input(rng, &mut input);
    (input, rng.random_range(0..SLOTS_PER_DAY), rng.random_range(0..7usize))
}

/// A synthetic training sample: a random input that is also its own
/// label on the covered rows.
pub fn sample(rng: &mut StdRng, n: usize, index: usize) -> TrainSample {
    let (input, time_of_day, day_of_week) = random_request(rng, n);
    let flags: Vec<f64> = (0..n).map(|i| if input.row_is_zero(i) { 0.0 } else { 1.0 }).collect();
    TrainSample {
        snapshot_index: index,
        label: input.clone(),
        input,
        label_mask: flags.clone(),
        context: Context {
            time_of_day,
            day_of_week,
            intervals_per_day: SLOTS_PER_DAY,
            row_flags: flags,
        },
        history: Vec::new(),
    }
}

/// Checks a completed matrix: `n × m`, non-negative, and every row a
/// histogram summing to 1 within 1e-9.
pub fn check_histograms(out: &Matrix, n: usize, m: usize) -> Result<(), String> {
    if out.shape() != (n, m) {
        return Err(format!("answer shape {:?}, expected ({n}, {m})", out.shape()));
    }
    for i in 0..n {
        let row = out.row(i);
        if let Some(v) = row.iter().find(|v| v.is_nan() || **v < 0.0) {
            return Err(format!("row {i} holds {v}"));
        }
        let sum: f64 = row.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("row {i} sums to {sum}"));
        }
    }
    Ok(())
}

/// A scratch directory for this run inside the checkout, removed when
/// dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    /// Creates `.perfbench/run-<workload>-<pid>` under the current
    /// directory.
    pub fn new(workload: &str) -> Self {
        let dir =
            PathBuf::from(".perfbench").join(format!("run-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run directory");
        Self(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Capacity-phase accounting per slice: each slice's throughput and
/// CPU per op are kept, and their medians reported, so a transient
/// stall on a shared host moves one slice, not the result.
#[derive(Default)]
pub struct Slices {
    rates: Vec<f64>,
    cpu_per_op: Vec<f64>,
    /// Ops completed over all slices.
    pub ops: u64,
    /// Generator-thread CPU over all slices, in ns.
    pub gen_cpu_ns: u64,
}

impl Slices {
    /// Runs one slice. `f` returns the ops it completed and the CPU
    /// (ns) the benchmark's own generator threads spent in it, which is
    /// not charged to the system under test.
    pub fn measure(&mut self, f: impl FnOnce() -> (u64, u64)) {
        let cpu0 = sys::process_cpu_ns();
        let t0 = Instant::now();
        let (ops, gen_ns) = f();
        let wall = t0.elapsed().as_secs_f64();
        let cpu = (sys::process_cpu_ns() - cpu0).saturating_sub(gen_ns);
        if ops > 0 {
            self.rates.push(ops as f64 / wall);
            self.cpu_per_op.push(cpu as f64 / 1e6 / ops as f64);
        }
        self.ops += ops;
        self.gen_cpu_ns += gen_ns;
    }

    /// `(median ops/s, median CPU ms per op, slices)`.
    pub fn medians(&self) -> (f64, f64, usize) {
        assert!(!self.rates.is_empty(), "no slice completed an op");
        (stats::median(&self.rates), stats::median(&self.cpu_per_op), self.rates.len())
    }
}
