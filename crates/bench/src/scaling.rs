//! Figure 6 (§VI-D): the scaling record, `exp_runner scaling [--json]`.
//!
//! The paper tiles the CI network ×10…×50 (up to 8 600 edges), reports
//! the training time of a 20-instance batch and the testing time of one
//! instance, and simulates distributed processing ("-M2") by splitting
//! the network in two and training the halves sequentially.
//!
//! Every row of the record is one [`Config`]: a model, a scale, a shard
//! count K and a kernel thread count. Each row runs in a child process
//! of its own, so its peak RSS and its allocation count are its own,
//! and goes through the calls the system makes:
//! `ShardedModel::{gcwc, agcwc}`, one untimed `fit_shards`, one timed
//! `fit_shards`, then `predict_global`. M2 is K = 2: shards with 1-hop
//! halos, the partitioned graph convolution. K = 1 is the unsharded
//! path: `fit_shards` runs the single shard on the calling thread, and
//! `sharded_equivalence` pins its bits.
//!
//! The thread count is the child's kernel thread count. A K = 1 fit
//! runs that many batch workers; a K > 1 fit trains each shard on a
//! thread of its own, pinned to one kernel thread, as `fit_shards`
//! always does.
//!
//! Columns:
//! * `batch_wall_s`, `batch_cpu_s`: the timed fit's wall time and the
//!   child's CPU time, each per batch. For K > 1 the CPU time sums over
//!   shards, which is the paper's "trained sequentially" M2 number.
//! * `predict_s`: the median `predict_global` time over the eval
//!   samples (too few for a tail).
//! * `peak_rss_mb`: the child's `VmHWM`, in MiB.
//! * `allocs_per_step`: heap allocations by every thread during the
//!   timed fit, per batch step. The count includes the fit's set-up
//!   (localized samples, fresh tapes, gradient buffers, Adam moments),
//!   so it is not the steady state `alloc_regression` pins at zero.
//! * `tv_all`, `tv_boundary` (K > 1 only): the mean total-variation
//!   distance from the K = 1 row's completions of the same eval
//!   samples, over all rows and over boundary rows. The parent runs
//!   every child in a temporary directory, where a K = 1 child leaves
//!   its completions; they read `-` where the K = 1 row did not run.

use std::fmt::{self, Write as _};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Command, Stdio};
use std::str::FromStr;
use std::time::Instant;

use gcwc::{ModelConfig, ShardModel, ShardedModel, TrainSample};
use gcwc_linalg::rng::seeded;
use gcwc_linalg::Matrix;
use gcwc_traffic::{generators, Context};
use rand::Rng;

use crate::allocs;
use crate::profile::Profile;

/// Histogram buckets of every row's model (HIST-8).
const BUCKETS: usize = 8;
/// Held-out samples every row completes after training.
const EVAL_SAMPLES: usize = 5;

/// The model a row trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// GCWC.
    Gcwc,
    /// A-GCWC.
    AGcwc,
}

impl Model {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Model::Gcwc => "GCWC",
            Model::AGcwc => "A-GCWC",
        }
    }
}

/// One configuration of the grid: what one row measures.
///
/// It prints as `model,scale,shards,threads`, the form a child is
/// handed and parses back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// The model trained.
    pub model: Model,
    /// CI-network scale factor.
    pub scale: usize,
    /// Shard count K.
    pub shards: usize,
    /// Kernel thread count of the child.
    pub threads: usize,
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{},{},{}", self.model.name(), self.scale, self.shards, self.threads)
    }
}

impl FromStr for Config {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let bad = || format!("not a scaling configuration: {s}");
        let parts: Vec<&str> = s.split(',').collect();
        let [model, scale, shards, threads] = parts[..] else { return Err(bad()) };
        let model =
            [Model::Gcwc, Model::AGcwc].into_iter().find(|m| m.name() == model).ok_or_else(bad)?;
        let count = |v: &str| v.parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(bad);
        Ok(Config { model, scale: count(scale)?, shards: count(shards)?, threads: count(threads)? })
    }
}

/// What one child measured.
///
/// It prints as one line of space-separated values, `-` for an absent
/// distance, which is how a child hands it back.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// Road edges at this scale (nodes of the edge graph).
    pub edges: usize,
    /// Wall seconds of the timed fit, per batch.
    pub batch_wall_s: f64,
    /// CPU seconds of the child during the timed fit, per batch.
    pub batch_cpu_s: f64,
    /// Median `predict_global` seconds over the eval samples.
    pub predict_s: f64,
    /// The child's peak resident set size (`VmHWM`) in MiB; 0 where
    /// `/proc` is unavailable.
    pub peak_rss_mb: f64,
    /// Heap allocations by every thread during the timed fit, per batch.
    pub allocs_per_step: f64,
    /// Mean total-variation distance from the K = 1 completions.
    pub tv_all: Option<f64>,
    /// The same over boundary rows only.
    pub tv_boundary: Option<f64>,
}

impl fmt::Display for Measured {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opt = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
        write!(
            f,
            "{} {} {} {} {} {} {} {}",
            self.edges,
            self.batch_wall_s,
            self.batch_cpu_s,
            self.predict_s,
            self.peak_rss_mb,
            self.allocs_per_step,
            opt(self.tv_all),
            opt(self.tv_boundary)
        )
    }
}

impl FromStr for Measured {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let bad = || format!("not a scaling result: {s}");
        let parts: Vec<&str> = s.split_whitespace().collect();
        let [edges, wall, cpu, predict, rss, allocs, tv_all, tv_boundary] = parts[..] else {
            return Err(bad());
        };
        let num = |v: &str| v.parse::<f64>().map_err(|_| bad());
        let opt = |v: &str| if v == "-" { Ok(None) } else { num(v).map(Some) };
        Ok(Measured {
            edges: edges.parse().map_err(|_| bad())?,
            batch_wall_s: num(wall)?,
            batch_cpu_s: num(cpu)?,
            predict_s: num(predict)?,
            peak_rss_mb: num(rss)?,
            allocs_per_step: num(allocs)?,
            tv_all: opt(tv_all)?,
            tv_boundary: opt(tv_boundary)?,
        })
    }
}

/// One row of the record: a configuration and what its child measured,
/// or how the child ended.
#[derive(Clone, Debug)]
pub struct Row {
    /// The configuration.
    pub config: Config,
    /// The measurement, or the failed child's status.
    pub result: Result<Measured, String>,
}

/// The configurations `profile` asks for: both models, every scale,
/// each thread count, then K ∈ {1, 2, 4} ascending, so each K = 1 row
/// runs before the K > 1 rows that compare against it. `shards` pins K;
/// `profile.threads` (0 = unpinned) pins the thread count, which is
/// otherwise 1 and the ambient count.
pub fn grid(profile: &Profile, shards: Option<usize>) -> Vec<Config> {
    let ks = shards.map_or_else(|| vec![1, 2, 4], |k| vec![k]);
    let mut thread_counts = match profile.threads {
        0 => vec![1, gcwc_linalg::parallel::current_threads()],
        n => vec![n],
    };
    thread_counts.dedup();
    let mut grid = Vec::new();
    for model in [Model::Gcwc, Model::AGcwc] {
        for &scale in &profile.scales {
            for &threads in &thread_counts {
                for &shards in &ks {
                    grid.push(Config { model, scale, shards, threads });
                }
            }
        }
    }
    grid
}

/// Runs every configuration, one at a time, each in a child process:
/// `exe` re-invoked with `args` and `--child=<config>`, inside a
/// temporary directory removed afterwards. A child that exits non-zero,
/// is killed, or prints no result gives a failed row, and the grid goes
/// on.
pub fn run(exe: &Path, args: &[String], grid: &[Config]) -> Vec<Row> {
    let dir = std::env::temp_dir().join(format!("gcwc-scaling-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scaling directory");
    let rows = grid
        .iter()
        .map(|&config| {
            eprintln!("  [scaling] {config} …");
            Row { config, result: run_child(exe, args, config, &dir) }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

fn run_child(exe: &Path, args: &[String], config: Config, dir: &Path) -> Result<Measured, String> {
    let out = Command::new(exe)
        .args(args)
        .arg(format!("--child={config}"))
        .current_dir(dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("not started: {e}"))?;
    if !out.status.success() {
        return Err(out.status.to_string());
    }
    String::from_utf8_lossy(&out.stdout).lines().last().ok_or("no result")?.parse()
}

/// The child's side: trains and completes one configuration in this
/// process. A K = 1 row writes its eval completions to the working
/// directory, and a K > 1 row of the same model and scale reads them.
pub fn measure(profile: &Profile, config: Config) -> Measured {
    gcwc_linalg::parallel::set_global_threads(config.threads);
    let base = generators::city_network(profile.seed).graph;
    let graph = generators::scaled_city(&base, config.scale);
    // One epoch over `scal_batches` batches is the timed fit.
    let cfg = ModelConfig::ci_hist().with_epochs(1);
    let (seed, ipd, k) = (profile.seed, profile.intervals_per_day, config.shards);
    let train = cfg.batch_size * profile.scal_batches;
    let mut samples = synthetic_samples(graph.num_nodes(), train + EVAL_SAMPLES, ipd, seed);
    let eval = samples.split_off(train);
    let reference = format!("{}-x{}.k1", config.model.name(), config.scale);
    let (reference, batches) = (Path::new(&reference), profile.scal_batches);
    match config.model {
        Model::Gcwc => {
            let model = ShardedModel::gcwc(&graph, BUCKETS, cfg, seed, k);
            measure_sharded(model, &samples, &eval, batches, reference)
        }
        Model::AGcwc => {
            let model = ShardedModel::agcwc(&graph, BUCKETS, ipd, cfg, seed, k);
            measure_sharded(model, &samples, &eval, batches, reference)
        }
    }
}

fn measure_sharded<M: ShardModel>(
    mut model: ShardedModel<M>,
    samples: &[TrainSample],
    eval: &[TrainSample],
    batches: usize,
    reference: &Path,
) -> Measured {
    model.fit_shards(samples);
    let (cpu0, allocs0, t0) = (process_cpu_s(), allocs::alloc_count(), Instant::now());
    model.fit_shards(samples);
    let wall = t0.elapsed().as_secs_f64();
    let allocs = allocs::alloc_count() - allocs0;
    let cpu = process_cpu_s() - cpu0;

    let mut secs = Vec::with_capacity(eval.len());
    let completions: Vec<Matrix> = eval
        .iter()
        .map(|s| {
            let t0 = Instant::now();
            let out = model.predict_global(s);
            secs.push(t0.elapsed().as_secs_f64());
            out
        })
        .collect();
    secs.sort_by(f64::total_cmp);

    let (tv_all, tv_boundary) = if model.num_shards() == 1 {
        let bytes: Vec<u8> =
            completions.iter().flat_map(|c| c.as_slice()).flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(reference, bytes).expect("write the K = 1 completions");
        (None, None)
    } else if let Ok(bytes) = std::fs::read(reference) {
        let want: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect();
        let boundary = model.partition_set().boundary_nodes();
        let (all, edge) = total_variation(&completions, &want, &boundary);
        (Some(all), Some(edge))
    } else {
        (None, None)
    };
    let per_batch = batches as f64;
    Measured {
        edges: model.num_edges(),
        batch_wall_s: wall / per_batch,
        batch_cpu_s: cpu / per_batch,
        predict_s: secs[secs.len() / 2],
        peak_rss_mb: peak_rss_mb(),
        allocs_per_step: allocs as f64 / per_batch,
        tv_all,
        tv_boundary,
    }
}

/// Mean total-variation distance between `got` and the flattened
/// `want`, over all rows and over the rows listed in `boundary`
/// (ascending).
fn total_variation(got: &[Matrix], want: &[f64], boundary: &[usize]) -> (f64, f64) {
    let values: usize = got.iter().map(|c| c.as_slice().len()).sum();
    assert_eq!(want.len(), values, "the K = 1 completions cover other samples");
    let mut want_rows = want.chunks_exact(got[0].cols());
    let (mut all, mut rows, mut edge, mut edge_rows) = (0.0, 0usize, 0.0, 0usize);
    for c in got {
        for i in 0..c.rows() {
            let w = want_rows.next().expect("one reference row per row");
            let tv = 0.5 * c.row(i).iter().zip(w).map(|(a, b)| (a - b).abs()).sum::<f64>();
            all += tv;
            rows += 1;
            if boundary.binary_search(&i).is_ok() {
                edge += tv;
                edge_rows += 1;
            }
        }
    }
    (all / rows.max(1) as f64, edge / edge_rows.max(1) as f64)
}

/// `count` random sparse histogram samples over `n` edges: about half
/// the rows carry a normalised `BUCKETS`-bucket histogram, the rest are
/// missing. Input and label are the same matrix.
fn synthetic_samples(n: usize, count: usize, ipd: usize, seed: u64) -> Vec<TrainSample> {
    let mut rng = seeded(seed);
    (0..count)
        .map(|i| {
            let mut mat = Matrix::zeros(n, BUCKETS);
            let mut flags = vec![0.0; n];
            for e in 0..n {
                if rng.random::<f64>() < 0.5 {
                    flags[e] = 1.0;
                    let mut sum = 0.0;
                    for j in 0..BUCKETS {
                        let v = rng.random::<f64>();
                        mat[(e, j)] = v;
                        sum += v;
                    }
                    for j in 0..BUCKETS {
                        mat[(e, j)] /= sum;
                    }
                }
            }
            TrainSample {
                snapshot_index: i,
                input: mat.clone(),
                label: mat,
                label_mask: flags.clone(),
                context: Context {
                    time_of_day: i % ipd,
                    day_of_week: (i / ipd) % 7,
                    intervals_per_day: ipd,
                    row_flags: flags,
                },
                history: vec![],
            }
        })
        .collect()
}

#[repr(C)]
struct TimeVal {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two `timeval`s, then 14
/// `long` counters this module does not read.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    _rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// User + system CPU seconds of this process: every thread, live or
/// exited.
fn process_cpu_s() -> f64 {
    const RUSAGE_SELF: c_int = 0;
    let mut usage = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        _rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // kernel's layout, and `RUSAGE_SELF` is a value the kernel accepts.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where unavailable.
fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
    });
    kb.unwrap_or(0.0) / 1024.0
}

/// Renders the record as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from(
        "Figure 6 scaling record: per 20-instance batch (wall s; CPU s, summed over shards), \
         per completed instance (predict s)\n  \
         model scale  edges  K threads    wall s     cpu s  predict s  RSS MiB allocs/step   \
         tv(all)   tv(bnd)\n",
    );
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |v| format!("{v:.2e}"));
    for row in rows {
        let c = row.config;
        let _ = write!(s, "{:>7}{:>6}", c.model.name(), c.scale);
        let _ = match &row.result {
            Ok(m) => writeln!(
                s,
                "{:>7}{:>3}{:>8}{:>10.4}{:>10.4}{:>11.5}{:>9.1}{:>12.1}{:>10}{:>10}",
                m.edges,
                c.shards,
                c.threads,
                m.batch_wall_s,
                m.batch_cpu_s,
                m.predict_s,
                m.peak_rss_mb,
                m.allocs_per_step,
                opt(m.tv_all),
                opt(m.tv_boundary)
            ),
            Err(status) => {
                writeln!(s, "{:>7}{:>3}{:>8}  failed: {status}", "-", c.shards, c.threads)
            }
        };
    }
    s
}

/// Serialises the record as JSON: one object per row with every
/// column, `null` where a row has no value, and `failed` holding a
/// failed child's status.
pub fn to_json(rows: &[Row]) -> String {
    let num = |v: Option<f64>, digits: usize| {
        v.map_or_else(|| "null".to_owned(), |v| format!("{v:.digits$}"))
    };
    let mut s = String::from("{\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let c = row.config;
        let m = row.result.as_ref().ok();
        let failed = row.result.as_ref().err().map_or_else(
            || "null".to_owned(),
            |e| format!("\"{}\"", e.replace('\\', "\\\\").replace('"', "\\\"")),
        );
        let _ = write!(
            s,
            "    {{\"model\": \"{}\", \"scale\": {}, \"edges\": {}, \"shards\": {}, \"threads\": {}, \
             \"batch_wall_s\": {}, \"batch_cpu_s\": {}, \"predict_s\": {}, \"peak_rss_mb\": {}, \
             \"allocs_per_step\": {}, \"tv_all\": {}, \"tv_boundary\": {}, \"failed\": {failed}}}",
            c.model.name(),
            c.scale,
            num(m.map(|m| m.edges as f64), 0),
            c.shards,
            c.threads,
            num(m.map(|m| m.batch_wall_s), 6),
            num(m.map(|m| m.batch_cpu_s), 6),
            num(m.map(|m| m.predict_s), 6),
            num(m.map(|m| m.peak_rss_mb), 1),
            num(m.map(|m| m.allocs_per_step), 1),
            num(m.and_then(|m| m.tv_all), 8),
            num(m.and_then(|m| m.tv_boundary), 8),
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_samples_are_valid() {
        let samples = synthetic_samples(10, 3, 48, 1);
        assert_eq!(samples.len(), 3);
        for s in &samples {
            for e in 0..10 {
                let sum: f64 = s.input.row(e).iter().sum();
                if s.label_mask[e] > 0.0 {
                    assert!((sum - 1.0).abs() < 1e-9);
                } else {
                    assert_eq!(sum, 0.0);
                }
            }
        }
    }

    #[test]
    fn peak_rss_reads_a_plausible_value() {
        let mb = peak_rss_mb();
        // On Linux this is at least a few MiB for any test binary.
        assert!(mb == 0.0 || mb > 1.0, "implausible VmHWM: {mb} MiB");
    }

    #[test]
    fn configs_and_results_round_trip_through_their_text() {
        let config = Config { model: Model::AGcwc, scale: 25, shards: 2, threads: 1 };
        assert_eq!(config.to_string().parse::<Config>(), Ok(config));
        assert!("GCWC,10,0,1".parse::<Config>().is_err(), "K = 0 is refused");
        assert!("GCWC-M2,10,2,1".parse::<Config>().is_err(), "M2 is K = 2, not a model");
        let measured = Measured {
            edges: 1720,
            batch_wall_s: 1.25,
            batch_cpu_s: 1.875,
            predict_s: 0.046875,
            peak_rss_mb: 139.5,
            allocs_per_step: 133.0,
            tv_all: Some(1e-3),
            tv_boundary: None,
        };
        assert_eq!(measured.to_string().parse::<Measured>(), Ok(measured));
        assert!("1720 1.25".parse::<Measured>().is_err());
    }

    #[test]
    fn json_shape_is_valid() {
        let config = Config { model: Model::Gcwc, scale: 10, shards: 2, threads: 1 };
        let measured = Measured {
            edges: 1720,
            batch_wall_s: 1.25,
            batch_cpu_s: 1.875,
            predict_s: 0.05,
            peak_rss_mb: 139.0,
            allocs_per_step: 133.0,
            tv_all: Some(0.01),
            tv_boundary: Some(0.02),
        };
        let rows = [
            Row { config, result: Ok(measured) },
            Row { config: Config { shards: 1, ..config }, result: Err("signal: 9".into()) },
        ];
        let j = to_json(&rows);
        assert!(j.starts_with("{\n") && j.ends_with("}\n"));
        assert!(!j.contains(",\n  ]"), "no trailing comma");
        for field in [
            "\"model\": \"GCWC\"",
            "\"batch_wall_s\": 1.250000",
            "\"peak_rss_mb\": 139.0",
            "\"allocs_per_step\": 133.0",
            "\"tv_boundary\": 0.02000000",
            "\"failed\": null",
            "\"edges\": null",
            "\"failed\": \"signal: 9\"",
        ] {
            assert!(j.contains(field), "missing {field} in {j}");
        }
        assert!(render(&rows).contains("failed: signal: 9"));
    }

    #[test]
    fn total_variation_separates_boundary_rows() {
        let got = Matrix::from_fn(3, 2, |i, j| if i == 1 { [1.0, 0.0][j] } else { 0.5 });
        let want = [0.5; 6];
        let (all, boundary) = total_variation(&[got], &want, &[1]);
        assert!((all - 0.5 / 3.0).abs() < 1e-15);
        assert_eq!(boundary, 0.5);
    }
}
