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
//!   fig6a              Figure 6(a): training time per 20-instance batch
//!   fig6b              Figure 6(b): testing time per instance
//!   threads            serial-vs-parallel training throughput sweep
//!   ablations          design-choice ablations (Chebyshev order, pooling,
//!                      context subsets, HIST-4/8, LSM missing handling)
//!   shard-sweep        partitioned completion over the synthetic city,
//!                      K ∈ {1,2,4} (or just `--shards=K`): training
//!                      throughput + accuracy delta vs the unsharded
//!                      model, K=1 asserted bit-identical; with
//!                      `--json`, also writes `BENCH_partition.json`
//!   scale-sweep        the paper's scalability protocol at ×10/×25/×50
//!                      (up to 8 600 edges): steady-state training-step
//!                      time, serving p50/p99, peak RSS and allocs/step
//!                      for GCWC and the two-shard GCWC-M2; `--smoke`
//!                      downsamples to the ×10 point; with `--json`,
//!                      also writes `BENCH_scale.json`
//!   tenant-bench       multi-tenant serving benchmark: a victim
//!                      tenant's p50/p99 solo vs under a quota-capped
//!                      noisy neighbor (responses asserted
//!                      bit-identical, fault counters zero),
//!                      delta-repair wall time vs a full post-delta
//!                      rebuild (strictly fewer than K shards
//!                      repaired), and allocs/request on the cached
//!                      path (0 under `--features count-allocs`);
//!                      with `--json`, also writes `BENCH_tenant.json`
//!   train              resumable sharded training: checkpoints the
//!                      per-shard training state under `--state=DIR`
//!                      every few epochs; re-running with `--resume`
//!                      continues a killed run bit-identically
//!                      (`--shards=K` and `--epochs=N` set the scale)
//!   all                everything above
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

use gcwc_bench::{
    ablations, params_table, resumable, run_table, scalability, scalesweep, shardsweep,
    tenantbench, Profile, ScalModel,
};

/// Counts every heap allocation so `scale-sweep` and `tenant-bench`
/// can report allocation counts. Build with `--features count-allocs`
/// to activate.
#[cfg(feature = "count-allocs")]
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
    let mut smoke = false;
    for a in &args {
        match a.as_str() {
            "--fast" => profile = Profile::fast(),
            "--full" => profile = Profile::full(),
            "--smoke" => {
                profile = Profile::smoke();
                smoke = true;
            }
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
            cmd => commands.push(cmd.to_owned()),
        }
    }
    profile.threads = threads;
    // Models built outside run_training (prediction paths, baselines)
    // follow the process-wide kernel default.
    gcwc_linalg::parallel::set_global_threads(threads);
    if commands.is_empty() {
        eprintln!("usage: exp_runner [--fast|--full|--smoke] [--threads=N] [--shards=K] [--epochs=N] [--state=DIR] [--resume] [--json] <table3|table4..table13|tables|fig6a|fig6b|threads|ablations|shard-sweep|scale-sweep|tenant-bench|train|all>");
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
            "fig6a" => run_fig6(&profile, true, false),
            "fig6b" => run_fig6(&profile, false, true),
            "threads" => run_thread_sweep(&profile),
            "ablations" => {
                println!("{}", ablations::render(&ablations::run_all(&profile)));
            }
            "shard-sweep" => {
                let counts: Vec<usize> = match shards {
                    Some(k) => vec![k],
                    None => vec![1, 2, 4],
                };
                let report = shardsweep::run(&counts);
                print!("{}", shardsweep::render(&report));
                if json {
                    let path = "BENCH_partition.json";
                    if let Err(e) = std::fs::write(path, shardsweep::to_json(&report)) {
                        eprintln!("failed to write {path}: {e}");
                        std::process::exit(1);
                    }
                    println!("wrote {path}");
                }
            }
            "scale-sweep" => {
                let cfg = if smoke {
                    scalesweep::ScaleSweepConfig::smoke()
                } else {
                    scalesweep::ScaleSweepConfig::full()
                };
                let report = scalesweep::run(&cfg);
                print!("{}", scalesweep::render(&report));
                if json {
                    let path = "BENCH_scale.json";
                    if let Err(e) = std::fs::write(path, scalesweep::to_json(&report)) {
                        eprintln!("failed to write {path}: {e}");
                        std::process::exit(1);
                    }
                    println!("wrote {path}");
                }
            }
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
                run_fig6(&profile, true, true);
                run_thread_sweep(&profile);
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

fn run_thread_sweep(profile: &Profile) {
    let ambient = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&ambient) {
        counts.push(ambient);
    }
    let points = scalability::thread_sweep(profile, &counts);
    println!("Serial vs. parallel training throughput (GCWC, CI scale 1)");
    println!("{:>8}{:>16}{:>10}", "threads", "batch secs", "speedup");
    for p in &points {
        println!("{:>8}{:>16.4}{:>10.2}", p.threads, p.train_batch_secs, p.speedup);
    }
    println!();
}

fn run_fig6(profile: &Profile, show_train: bool, show_test: bool) {
    // Measure every (model, scale) point once; print whichever views
    // were requested.
    let mut points: Vec<(usize, usize, Vec<gcwc_bench::ScalPoint>)> = Vec::new();
    for &scale in &profile.scales {
        let mut row = Vec::new();
        let mut edges = 0;
        for m in ScalModel::all() {
            let p = scalability::measure(m, scale, profile);
            edges = p.edges;
            row.push(p);
            eprintln!("  [fig6] scale={scale} {} done", m.name());
        }
        points.push((scale, edges, row));
    }
    let views: [(bool, &str, fn(&gcwc_bench::ScalPoint) -> f64); 2] = [
        (show_train, "Figure 6(a): avg training time per 20-instance batch (s)", |p| {
            p.train_batch_secs
        }),
        (show_test, "Figure 6(b): avg testing time per instance (s)", |p| p.test_instance_secs),
    ];
    for (enabled, title, extract) in views {
        if !enabled {
            continue;
        }
        println!("{title}");
        print!("{:>8}{:>8}", "scale", "edges");
        for m in ScalModel::all() {
            print!("{:>12}", m.name());
        }
        println!();
        for (scale, edges, row) in &points {
            print!("{scale:>8}{edges:>8}");
            for p in row {
                print!("{:>12.4}", extract(p));
            }
            println!();
        }
        println!();
    }
}
