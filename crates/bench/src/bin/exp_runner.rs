//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! exp_runner [--fast|--full|--smoke] [--threads=N] [--shards=K]
//!            [--epochs=N] [--state=DIR] [--resume] [--json] <command>
//!
//! Commands:
//!   table3             Table III  (model constructions, #Para)
//!   table4 … table13   Tables IV–XIII (MKLR / FLR / MAPE sweeps)
//!   tables             all of Tables IV–XIII
//!   ablations          design-choice ablations (Chebyshev order, pooling,
//!                      context subsets, HIST-4/8, LSM missing handling)
//!   scaling            Figure 6 (§VI-D): one row per model (GCWC,
//!                      A-GCWC) × scale × K ∈ {1,2,4} × thread count
//!                      (1 and the ambient count), each trained through
//!                      `ShardedModel::fit_shards` and completed through
//!                      `predict_global` in a child process of its own:
//!                      seconds per batch (wall; CPU, summed over
//!                      shards), seconds per instance, peak RSS,
//!                      allocations per step, and for K > 1 the
//!                      accuracy delta from K = 1; `--shards=K` and
//!                      `--threads=N` pin K and the thread count; with
//!                      `--json`, also writes `BENCH_scaling.json`
//!   tenant-bench       multi-tenant serving benchmark: a victim
//!                      tenant's p50/p99 solo vs under a quota-capped
//!                      noisy neighbor (responses asserted
//!                      bit-identical, fault counters zero),
//!                      delta-repair wall time vs a full post-delta
//!                      rebuild (strictly fewer than K shards
//!                      repaired), and allocs/request on the cached
//!                      path; with `--json`, also writes
//!                      `BENCH_tenant.json`
//!   train              resumable sharded training: checkpoints the
//!                      per-shard training state under `--state=DIR`
//!                      every few epochs; re-running with `--resume`
//!                      continues a killed run bit-identically
//!                      (`--shards=K` and `--epochs=N` set the scale)
//!   all                table3, tables, ablations and scaling
//! ```
//!
//! The default profile is `--fast` (minutes on CPU; reduced days/epochs
//! but the full protocol structure). `--full` runs the paper-scale
//! protocol. `--threads=N` pins the worker-thread count for every
//! experiment (results are bit-identical for any value; only wall-clock
//! time changes). Run with `cargo run --release -p gcwc-bench --bin
//! exp_runner -- <command>`.
//!
//! Serving, training-step and live-loop throughput and latency are
//! measured by the `perfbench` package that `BENCHMARK.json` declares,
//! not by this runner.

use gcwc_bench::{ablations, params_table, resumable, run_table, scaling, tenantbench, Profile};

/// Counts every heap allocation, so `scaling` and `tenant-bench` report
/// allocation counts.
#[global_allocator]
static ALLOC: gcwc_bench::allocs::CountingAlloc = gcwc_bench::allocs::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = Profile::fast();
    let mut commands: Vec<String> = Vec::new();
    let mut threads = 0usize;
    let mut json = false;
    let mut shards: Option<usize> = None;
    let mut state_dir: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut epochs: Option<usize> = None;
    let mut child: Option<scaling::Config> = None;
    for a in &args {
        match a.as_str() {
            "--fast" => profile = Profile::fast(),
            "--full" => profile = Profile::full(),
            "--smoke" => profile = Profile::smoke(),
            "--json" => json = true,
            "--resume" => resume = true,
            flag if flag.starts_with("--state=") => {
                state_dir = Some(std::path::PathBuf::from(&flag["--state=".len()..]));
            }
            flag if flag.starts_with("--epochs=") => {
                epochs = match flag["--epochs=".len()..].parse() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("--epochs=N takes a positive integer, got {flag:?}");
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with("--threads=") => {
                threads = match flag["--threads=".len()..].parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--threads=N takes a non-negative integer, got {flag:?}");
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with("--shards=") => {
                shards = match flag["--shards=".len()..].parse() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("--shards=K takes a positive integer, got {flag:?}");
                        std::process::exit(2);
                    }
                };
            }
            // Internal: one row of `scaling`, run by its parent.
            flag if flag.starts_with("--child=") => match flag["--child=".len()..].parse() {
                Ok(config) => child = Some(config),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            },
            cmd => commands.push(cmd.to_owned()),
        }
    }
    profile.threads = threads;
    if let Some(config) = child {
        println!("{}", scaling::measure(&profile, config));
        return;
    }
    // Training workers and kernels both follow the process-wide count.
    gcwc_linalg::parallel::set_global_threads(threads);
    if commands.is_empty() {
        eprintln!("usage: exp_runner [--fast|--full|--smoke] [--threads=N] [--shards=K] [--epochs=N] [--state=DIR] [--resume] [--json] <table3|table4..table13|tables|ablations|scaling|tenant-bench|train|all>");
        std::process::exit(2);
    }

    for cmd in commands {
        match cmd.as_str() {
            "table3" => {
                println!("{}", params_table::render(&params_table::table3(&profile)));
            }
            "tables" => {
                gcwc_bench::tables::for_each_table(&profile, |t| {
                    println!("{}", t.render());
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                });
            }
            "ablations" => {
                println!("{}", ablations::render(&ablations::run_all(&profile)));
            }
            "scaling" => run_scaling(&profile, shards, &args, json),
            "tenant-bench" => {
                let report = tenantbench::run();
                print!("{}", tenantbench::render(&report));
                if json {
                    let path = "BENCH_tenant.json";
                    if let Err(e) = std::fs::write(path, tenantbench::to_json(&report)) {
                        eprintln!("failed to write {path}: {e}");
                        std::process::exit(1);
                    }
                    println!("wrote {path}");
                }
            }
            "train" => {
                let dir = state_dir.clone().unwrap_or_else(|| "gcwc-train-state".into());
                let k = shards.unwrap_or(2);
                let e = epochs.unwrap_or(6);
                match resumable::run(k, e, &dir, resume) {
                    Ok(report) => print!("{}", resumable::render(&report)),
                    Err(err) => {
                        eprintln!("training failed: {err}");
                        eprintln!(
                            "state under {} is intact; re-run with --resume to continue",
                            dir.display()
                        );
                        std::process::exit(1);
                    }
                }
            }
            "all" => {
                println!("{}", params_table::render(&params_table::table3(&profile)));
                gcwc_bench::tables::for_each_table(&profile, |t| {
                    println!("{}", t.render());
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                });
                println!("{}", ablations::render(&ablations::run_all(&profile)));
                {
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                }
                run_scaling(&profile, shards, &args, json);
            }
            id => run_and_print(id, &profile),
        }
    }
}

fn run_and_print(id: &str, profile: &Profile) {
    match run_table(id, profile) {
        Some(t) => println!("{}", t.render()),
        None => {
            eprintln!("unknown command: {id}");
            std::process::exit(2);
        }
    }
}

/// Runs the scaling grid, prints it, writes `BENCH_scaling.json` when
/// asked, and exits non-zero once the grid is done if any row failed.
fn run_scaling(profile: &Profile, shards: Option<usize>, args: &[String], json: bool) {
    let exe = std::env::current_exe().expect("locate exp_runner");
    let rows = scaling::run(&exe, args, &scaling::grid(profile, shards));
    print!("{}", scaling::render(&rows));
    if json {
        let path = "BENCH_scaling.json";
        if let Err(e) = std::fs::write(path, scaling::to_json(&rows)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if rows.iter().any(|r| r.result.is_err()) {
        eprintln!("scaling: a row failed");
        std::process::exit(1);
    }
}
