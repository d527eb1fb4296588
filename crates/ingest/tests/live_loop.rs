//! End-to-end live-loop test: stream → log → seal → warm-start
//! fine-tune → atomic hot-swap — and the served completions after the
//! swap are bit-identical to a model trained offline on the same
//! data, with no old-generation cache entry ever served.

use gcwc::{GcwcModel, ModelConfig, ShardedModel};
use gcwc_ingest::{
    Aggregator, Intake, Pipeline, RecordLog, RefreshConfig, RefreshDriver, RefreshOutcome,
    SpeedRecord, WindowConfig,
};
use gcwc_serve::{AnyModel, Engine, EngineConfig, IngestStats, ModelRegistry};
use gcwc_traffic::{generators, HistogramSpec};
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const M: usize = 4;
const SLOT_SECS: u64 = 100;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcwc-ingest-live-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn window_cfg(num_edges: usize) -> WindowConfig {
    WindowConfig {
        num_edges,
        spec: HistogramSpec::hist4(),
        slot_secs: SLOT_SECS,
        slots_per_day: 8,
        grace_secs: SLOT_SECS,
        min_records: 2,
        retain_slots: 64,
    }
}

/// Streams `slots` worth of synthetic probe records through the
/// intake queue into the pipeline, sealing as the watermark advances.
fn stream_slots(pipe: &mut Pipeline, num_edges: usize, slots: std::ops::Range<u64>, seed: u64) {
    let intake = Intake::new(256);
    let handle = intake.handle();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for slot in slots {
        for edge in 0..num_edges as u32 {
            for _ in 0..4 {
                let rec = SpeedRecord {
                    edge,
                    timestamp: slot * SLOT_SECS + rng.random_range(0u64..SLOT_SECS),
                    speed: rng.random_range(0.5f64..30.0),
                };
                handle.send(rec).unwrap();
            }
        }
        intake.drain(|r| {
            pipe.ingest(r).unwrap();
        });
        pipe.seal_ready().unwrap();
    }
}

/// No write without a reader: a refresh directory holds the manifest
/// and the committed generation's `shards` checkpoints, and nothing
/// else — no training state, no `.tmp` leftover, no older generation.
fn assert_holds_only_committed(dir: &Path, generation: u64, shards: usize) {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut expected: Vec<String> =
        (0..shards).map(|k| format!("live.g{generation}.shard{k}.ckpt")).collect();
    expected.push("live.manifest".to_owned());
    expected.sort();
    assert_eq!(names, expected, "files left in {}", dir.display());
}

fn complete_bits(engine: &Engine, input: &gcwc_linalg::Matrix) -> (Vec<u64>, u64, bool) {
    let mut client = engine.client();
    let mut buf = client.input_buffer();
    buf.copy_from(input);
    client.send(buf, 1, 0).unwrap();
    engine.process_queued();
    let c = client.recv().unwrap();
    let bits = c.output.as_slice().iter().map(|v| v.to_bits()).collect();
    (bits, c.generation, c.cache_hit)
}

#[test]
fn live_loop_streams_refreshes_and_serves_bit_identically() {
    let hw = generators::highway_tollgate(1);
    let graph = hw.graph.clone();
    let n = graph.num_nodes();
    let cfg = ModelConfig::hw_hist().with_epochs(1);
    let seed = 42u64;

    let mk = {
        let (graph, cfg) = (graph.clone(), cfg.clone());
        move || ShardedModel::gcwc(&graph, M, cfg.clone(), seed, 1)
    };
    let registry = Arc::new(ModelRegistry::new(Box::new({
        let (graph, cfg) = (graph.clone(), cfg.clone());
        move || AnyModel::Gcwc(GcwcModel::new(&graph, M, cfg.clone(), seed))
    })));
    let engine = Engine::new(
        Arc::clone(&registry),
        EngineConfig { workers: 0, cache_capacity: 64, ..Default::default() },
    );
    let stats = Arc::new(IngestStats::new());
    engine.attach_ingest(Arc::clone(&stats));

    let dir = tmpdir("loop");
    let log_dir = dir.join("log");
    let mut pipe =
        Pipeline::new(RecordLog::open(&log_dir, 64).unwrap(), Aggregator::new(window_cfg(n)))
            .with_stats(Arc::clone(&stats));

    let mut rcfg = RefreshConfig::new(dir.join("ckpt"));
    rcfg.holdout = 2;
    rcfg.min_fresh_slots = 4;
    let plan = rcfg.plan;
    let mut driver = RefreshDriver::new(rcfg, Box::new(mk.clone()), Arc::clone(&registry))
        .unwrap()
        .with_stats(Arc::clone(&stats));

    // ---- Phase 1: bootstrap from the first streamed batch. ----
    stream_slots(&mut pipe, n, 0..8, 7);
    pipe.seal_all().unwrap();
    let sealed = pipe.take_sealed();
    assert_eq!(sealed.len(), 8);
    let outcome = driver.refresh(&sealed).unwrap();
    let gen_a = match outcome {
        RefreshOutcome::Applied { registry_generation, checkpoint_generation, .. } => {
            assert_eq!(checkpoint_generation, 1);
            registry_generation
        }
        other => panic!("bootstrap refresh not applied: {other:?}"),
    };
    assert_holds_only_committed(&dir.join("ckpt"), 1, 1);

    // Stash generation 1's checkpoint before the next refresh
    // garbage-collects it; the offline replication warm-starts from it
    // exactly like the driver does.
    let off_dir = tmpdir("loop-off");
    std::fs::copy(dir.join("ckpt").join("live.g1.shard0.ckpt"), off_dir.join("g1.shard0.ckpt"))
        .unwrap();

    // Prime the cache on generation A with a fixed request.
    let probe = sealed[0].weights.matrix().clone();
    let (bits_a, g1, hit1) = complete_bits(&engine, &probe);
    let (bits_a2, g2, hit2) = complete_bits(&engine, &probe);
    assert_eq!(g1, gen_a);
    assert_eq!(g2, gen_a);
    assert!(!hit1 && hit2, "second identical request must hit the cache");
    assert_eq!(bits_a, bits_a2);

    // ---- Phase 2: stream more traffic; refresh warm-starts. ----
    // Continue streaming where slot 8 begins. The window already
    // sealed everything below 8, so only fresh slots accumulate.
    stream_slots(&mut pipe, n, 8..16, 8);
    pipe.seal_all().unwrap();
    let fresh = pipe.take_sealed();
    assert_eq!(fresh.iter().map(|s| s.slot).min().unwrap(), 8);
    let outcome = driver.refresh(&fresh).unwrap();
    let gen_b = match outcome {
        RefreshOutcome::Applied { registry_generation, checkpoint_generation, .. } => {
            assert_eq!(checkpoint_generation, 2);
            registry_generation
        }
        other => panic!("incremental refresh not applied: {other:?}"),
    };
    assert!(gen_b > gen_a);
    assert_holds_only_committed(&dir.join("ckpt"), 2, 1);

    // Old-generation cache entries are never served: the primed
    // request misses (recomputed on the new set) and carries the new
    // generation.
    let (bits_b, g3, hit3) = complete_bits(&engine, &probe);
    assert_eq!(g3, gen_b, "post-swap completion must come from the new generation");
    assert!(!hit3, "a cache entry from the old generation was served");
    assert_ne!(bits_a, bits_b, "refresh changed parameters; outputs must change");

    // ---- Offline replication: same data, same warm start. ----
    // factory → load committed g1 → one fine-tune on the same fresh
    // samples = the exact RNG path the refresh took.
    let split = fresh.len() - 2;
    let samples: Vec<_> = fresh[..split].iter().enumerate().map(|(i, s)| s.to_sample(i)).collect();
    let mut offline = mk();
    offline.load_shards(&off_dir, "g1").unwrap();
    offline.fine_tune_shards_resumable(&samples, &off_dir, "p2", 1, false, &plan).unwrap();

    let off_registry = Arc::new(ModelRegistry::new(Box::new({
        let (graph, cfg) = (graph.clone(), cfg.clone());
        move || AnyModel::Gcwc(GcwcModel::new(&graph, M, cfg.clone(), seed))
    })));
    let (_, shards) = offline.into_shards();
    off_registry.install_set(shards.into_iter().map(AnyModel::Gcwc).collect());
    let off_engine = Engine::new(
        Arc::clone(&off_registry),
        EngineConfig { workers: 0, cache_capacity: 0, ..Default::default() },
    );
    let (bits_off, _, _) = complete_bits(&off_engine, &probe);
    assert_eq!(
        bits_b, bits_off,
        "refreshed serving diverged from offline training on the same data"
    );

    // ---- Stats surfaced through the engine. ----
    let snap = engine.stats();
    assert_eq!(snap.records_ingested, (n as u64) * 16 * 4);
    assert_eq!(snap.slots_sealed, 16);
    assert_eq!(snap.refreshes_applied, 2);
    assert_eq!(snap.refreshes_rolled_back, 0);
    assert_eq!(snap.generation_age, 0, "age resets on a fresh swap");

    // The durable log holds every streamed record.
    pipe.flush().unwrap();
    assert_eq!(pipe.log().replay().unwrap().len(), n * 16 * 4);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&off_dir);
}

#[test]
fn crash_recovery_restores_committed_generation() {
    // A restart (new driver over the same dir) resumes from the
    // manifest and reinstalls the committed checkpoints.
    let hw = generators::highway_tollgate(2);
    let graph = hw.graph.clone();
    let n = graph.num_nodes();
    let cfg = ModelConfig::hw_hist().with_epochs(1);
    let mk = {
        let (graph, cfg) = (graph.clone(), cfg.clone());
        move || ShardedModel::gcwc(&graph, M, cfg.clone(), 9, 1)
    };
    let registry = Arc::new(ModelRegistry::new(Box::new({
        let (graph, cfg) = (graph.clone(), cfg.clone());
        move || AnyModel::Gcwc(GcwcModel::new(&graph, M, cfg.clone(), 9))
    })));

    let dir = tmpdir("recover");
    let mut agg = Aggregator::new(window_cfg(n));
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for slot in 0..8u64 {
        for edge in 0..n as u32 {
            for _ in 0..4 {
                agg.offer(SpeedRecord {
                    edge,
                    timestamp: slot * SLOT_SECS + rng.random_range(0u64..SLOT_SECS),
                    speed: rng.random_range(0.5f64..30.0),
                });
            }
        }
    }
    let mut sealed = Vec::new();
    agg.seal_all(&mut sealed).unwrap();

    let mut rcfg = RefreshConfig::new(dir.clone());
    rcfg.holdout = 2;
    rcfg.min_fresh_slots = 4;
    let mut driver =
        RefreshDriver::new(rcfg.clone(), Box::new(mk.clone()), Arc::clone(&registry)).unwrap();
    driver.refresh(&sealed).unwrap();
    assert_eq!(driver.generation(), 1);
    let gen_before = registry.generation();
    drop(driver);

    // "Restart": a new driver picks the manifest up and reinstalls.
    let mut revived = RefreshDriver::new(rcfg, Box::new(mk), Arc::clone(&registry)).unwrap();
    assert_eq!(revived.generation(), 1, "manifest must survive the restart");
    let gen_after = revived.reinstall_current().unwrap();
    assert!(gen_after > gen_before);
    let _ = std::fs::remove_dir_all(&dir);
}
