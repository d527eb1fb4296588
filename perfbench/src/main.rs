//! One-command benchmark of the GCWC serving, training and live-refresh
//! paths.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hit --seed 1 --seconds 28 --trace 0
//! ```
//!
//! Each run executes one workload in a child process of its own (so
//! `peak_rss_mb` is that workload's own high-water mark), checks every
//! output, prints a table, a full JSON record and, as the last line,
//! the result object. `--trace 1` adds the traced replay and reports
//! the per-layer metrics instead of the end-to-end ones. The workloads
//! and the reasons behind their sizes are described in `WORKLOADS.md`.

mod alloc;
mod fixture;
mod live;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod train;

use std::io::Read as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::Report;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["serve-hit", "serve-miss", "train-m2", "live-city"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does
/// not call a layer reports its metrics as 0 and says why in the record.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("server.overhead_us", "us"),
    ("quota.admit_us", "us"),
    ("engine.inproc_us", "us"),
    ("engine.batch_mean", "count"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.rejected", "count"),
    ("engine.expired", "count"),
    ("engine.degraded", "count"),
    ("engine.restarts", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("partition.select_us", "us"),
    ("partition.scatter_us", "us"),
    ("forward.agcwc_ms", "ms"),
    ("forward.agcwc_batch_ms", "ms"),
    ("forward.encoder_ms", "ms"),
    ("forward.context_ms", "ms"),
    ("setup.ckpt_load_ms", "ms"),
    ("setup.ckpt_mb", "MB"),
    ("setup.plan_ms", "ms"),
    ("setup.partition_ms", "ms"),
    ("train.localize_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("train.loss_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.merge_ms", "ms"),
    ("train.optimizer_ms", "ms"),
    ("train.parts_cpu_ratio", "ratio"),
    ("train.loss_final", "nats"),
    ("train.cheb_ms", "ms"),
    ("train.pool_ms", "ms"),
    ("train.fc_decoder_ms", "ms"),
    ("train.fc_param_mb", "MB"),
    ("train.step_mb", "MB"),
    ("ingest.append_ns", "ns"),
    ("ingest.fold_ns", "ns"),
    ("ingest.seal_ms", "ms"),
    ("ingest.late_dropped", "count"),
    ("refresh.finetune_ms", "ms"),
    ("refresh.validate_ms", "ms"),
    ("refresh.save_ms", "ms"),
    ("refresh.load_ms", "ms"),
    ("refresh.install_ms", "ms"),
    ("refresh.applied", "count"),
    ("refresh.rolled_back", "count"),
    ("gen.cpu_ms_per_op", "ms"),
    ("latency.p99_ms", "ms"),
    ("allocs_per_op", "count"),
    ("output.digest", "hash"),
    ("trace.overhead_pct", "%"),
    ("account.parts_ratio", "ratio"),
];

/// How a run splits `--seconds` between its measured phases.
#[derive(Clone, Copy)]
pub struct Budget {
    secs: f64,
}

impl Budget {
    /// `share` (0–1) of the measured time.
    pub fn share(self, share: f64) -> Duration {
        Duration::from_secs_f64(self.secs * share)
    }

    /// The whole measured time.
    pub fn total(self) -> Duration {
        Duration::from_secs_f64(self.secs)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(28);
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=120"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false), child })
}

/// The range the traced run's parts must cover of their whole
/// (`account.parts_ratio`; see `WORKLOADS.md`).
const ACCOUNT_TOLERANCE: (f64, f64) = (0.75, 1.25);

/// A child that has not finished by then is killed and the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        run_child(&args);
        return ExitCode::SUCCESS;
    }
    run_parent()
}

/// Re-runs this binary with `--child` and relays its output, so the
/// workload's memory high-water mark is its own.
fn run_parent() -> ExitCode {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let mut child = Command::new(exe)
        .args(std::env::args().skip(1))
        .arg("--child")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn the workload process");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = stdout.read_to_string(&mut out);
        out
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the workload process") {
            break Some(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = reader.join().expect("join the output reader");
    let has_result = out.lines().last().is_some_and(|l| l.starts_with("{\"correct\""));
    match status {
        Some(s) if s.success() && has_result => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        other => {
            eprint!("{out}");
            match other {
                None => eprintln!("perfbench: workload timed out after {CHILD_TIMEOUT:?}"),
                Some(s) => eprintln!("perfbench: workload process ended with {s}"),
            }
            ExitCode::FAILURE
        }
    }
}

fn run_child(args: &Args) {
    let mut report = Report::new(&args.workload, args.seed, args.trace);
    report.note("seed", args.seed);
    report.note("nproc", sys::nproc());
    report.note("GCWC_THREADS", sys::env_or_unset("GCWC_THREADS"));
    report.note("GCWC_KERNEL_TIER", sys::env_or_unset("GCWC_KERNEL_TIER"));
    report.note("kernel_threads", gcwc_linalg::parallel::current_threads());
    report.note("source_tree", sys::source_tree());
    report.note("seconds", args.seconds);
    let budget = Budget { secs: args.seconds as f64 };
    let t0 = Instant::now();
    match args.workload.as_str() {
        "serve-hit" => serve::run(serve::Kind::Hit, args.seed, budget, &mut report),
        "serve-miss" => serve::run(serve::Kind::Miss, args.seed, budget, &mut report),
        "train-m2" => train::run(args.seed, budget, &mut report),
        "live-city" => live::run(args.seed, budget, &mut report),
        other => unreachable!("workload {other} was validated"),
    }
    report.note("wall_s", t0.elapsed().as_secs_f64());
    if let Some(ratio) = report.get("account.parts_ratio") {
        let (lo, hi) = ACCOUNT_TOLERANCE;
        let verdict = if (lo..=hi).contains(&ratio) { "within" } else { "OUTSIDE" };
        report.note("account", format!("parts/whole {ratio:.3}, {verdict} {lo}..{hi}"));
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            if report.get(name).is_none() {
                report.absent(name, unit, "layer not called by this workload");
            }
        }
        report.print(&PER_LAYER);
    } else {
        report.print(&END_TO_END);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics this binary
    /// prints, with the same units, and every workload it accepts.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics this binary does not print"
        );
        for w in WORKLOADS {
            assert!(compact.contains(&format!("{{\"name\":\"{w}\"")), "workload {w} missing");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
