//! Per-tenant ingest lanes: two tenants streaming through their own
//! [`IngestLane`]s refresh independently, and each lane's refreshed
//! model is bit-identical to a single-tenant process fed the same
//! stream — interleaving with another tenant changes nothing.

use gcwc::{GcwcModel, ModelConfig, ShardedModel};
use gcwc_ingest::{
    Aggregator, IngestLane, Pipeline, RecordLog, RefreshConfig, RefreshDriver, RefreshOutcome,
    SpeedRecord, WindowConfig,
};
use gcwc_serve::{AnyModel, Engine, EngineConfig, ModelRegistry};
use gcwc_traffic::{generators, HistogramSpec};
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const M: usize = 4;
const SLOT_SECS: u64 = 100;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcwc-ingest-tenant-{tag}-{}", std::process::id()));
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

/// One tenant's lane over its own graph, registry, log, and driver.
fn make_lane(
    graph: &gcwc_graph::EdgeGraph,
    dir: &Path,
    seed: u64,
) -> (IngestLane, Arc<ModelRegistry>) {
    let cfg = ModelConfig::hw_hist().with_epochs(1);
    let registry = Arc::new(ModelRegistry::new(Box::new({
        let (graph, cfg) = (graph.clone(), cfg.clone());
        move || AnyModel::Gcwc(GcwcModel::new(&graph, M, cfg.clone(), seed))
    })));
    let mk = {
        let (graph, cfg) = (graph.clone(), cfg.clone());
        move || ShardedModel::gcwc(&graph, M, cfg.clone(), seed, 1)
    };
    let pipeline = Pipeline::new(
        RecordLog::open(&dir.join("log"), 64).unwrap(),
        Aggregator::new(window_cfg(graph.num_nodes())),
    );
    let mut rcfg = RefreshConfig::new(dir.join("ckpt"));
    rcfg.holdout = 2;
    rcfg.min_fresh_slots = 4;
    let driver = RefreshDriver::new(rcfg, Box::new(mk), Arc::clone(&registry)).unwrap();
    (IngestLane::new(pipeline, driver), registry)
}

/// Deterministic synthetic probe records for one tenant's slot range.
fn records(num_edges: usize, slots: std::ops::Range<u64>, seed: u64) -> Vec<SpeedRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for slot in slots {
        for edge in 0..num_edges as u32 {
            for _ in 0..4 {
                out.push(SpeedRecord {
                    edge,
                    timestamp: slot * SLOT_SECS + rng.random_range(0u64..SLOT_SECS),
                    speed: rng.random_range(0.5f64..30.0),
                });
            }
        }
    }
    out
}

fn complete_bits(registry: &Arc<ModelRegistry>, input: &gcwc_linalg::Matrix) -> Vec<u64> {
    let engine = Engine::new(
        Arc::clone(registry),
        EngineConfig { workers: 0, cache_capacity: 0, ..Default::default() },
    );
    let mut client = engine.client();
    let mut buf = client.input_buffer();
    buf.copy_from(input);
    client.send(buf, 1, 0).unwrap();
    engine.process_queued();
    let c = client.recv().unwrap();
    let bits = c.output.as_slice().iter().map(|v| v.to_bits()).collect();
    client.recycle(c);
    engine.shutdown();
    bits
}

#[test]
fn interleaved_tenants_refresh_independently_and_bit_identically() {
    let hw_a = generators::highway_tollgate(1);
    let hw_b = generators::city_network_sized(2, 48);
    let (na, nb) = (hw_a.graph.num_nodes(), hw_b.graph.num_nodes());

    let dir_a = tmpdir("a");
    let dir_b = tmpdir("b");
    let (mut lane_a, reg_a) = make_lane(&hw_a.graph, &dir_a, 42);
    let (mut lane_b, reg_b) = make_lane(&hw_b.graph, &dir_b, 43);

    // Interleave the two tenants' streams record by record: each record
    // goes to its own tenant's lane, whatever arrives in between.
    let recs_a = records(na, 0..8, 7);
    let recs_b = records(nb, 0..8, 8);
    let mut ia = recs_a.iter();
    let mut ib = recs_b.iter();
    loop {
        match (ia.next(), ib.next()) {
            (None, None) => break,
            (ra, rb) => {
                if let Some(&r) = ra {
                    lane_a.ingest(r).unwrap();
                }
                if let Some(&r) = rb {
                    lane_b.ingest(r).unwrap();
                }
            }
        }
    }
    for (name, lane) in [("A", &mut lane_a), ("B", &mut lane_b)] {
        lane.pipeline_mut().seal_all().unwrap();
        match lane.poll_refresh() {
            Ok(RefreshOutcome::Applied { checkpoint_generation, .. }) => {
                assert_eq!(checkpoint_generation, 1, "tenant {name}");
            }
            other => panic!("tenant {name}: first refresh must apply, got {other:?}"),
        }
    }
    // Each lane committed exactly its own generation.
    assert_eq!(lane_a.driver().generation(), 1);
    assert_eq!(lane_b.driver().generation(), 1);
    // Each lane logged exactly its own records.
    lane_a.pipeline_mut().flush().unwrap();
    lane_b.pipeline_mut().flush().unwrap();
    assert_eq!(lane_a.pipeline().log().replay().unwrap().len(), recs_a.len());
    assert_eq!(lane_b.pipeline().log().replay().unwrap().len(), recs_b.len());

    // A second poll with no new traffic is NotReady for both lanes and
    // changes no generation.
    for (name, lane) in [("A", &mut lane_a), ("B", &mut lane_b)] {
        match lane.poll_refresh() {
            Ok(RefreshOutcome::NotReady { .. }) => {}
            other => panic!("tenant {name}: idle poll must be NotReady, got {other:?}"),
        }
    }
    assert_eq!(lane_a.driver().generation(), 1);
    assert_eq!(lane_b.driver().generation(), 1);

    // Bit-identity: a single-tenant process fed exactly tenant A's
    // stream produces the same refreshed model — B's interleaved
    // traffic changed nothing in A's lane.
    let dir_solo = tmpdir("solo");
    let (mut solo, reg_solo) = make_lane(&hw_a.graph, &dir_solo, 42);
    for &r in &recs_a {
        solo.ingest(r).unwrap();
    }
    match solo.finish_refresh().unwrap() {
        RefreshOutcome::Applied { checkpoint_generation, .. } => {
            assert_eq!(checkpoint_generation, 1)
        }
        other => panic!("solo refresh must apply, got {other:?}"),
    }
    let probe = gcwc_linalg::Matrix::zeros(na, M);
    assert_eq!(
        complete_bits(&reg_a, &probe),
        complete_bits(&reg_solo, &probe),
        "tenant A's refreshed model diverged from the single-tenant run"
    );

    // The two tenants' models are genuinely distinct artifacts (B's
    // graph differs), not aliases of shared state.
    assert_eq!(reg_b.generation(), reg_a.generation());
    assert_ne!(na, nb, "fixture tenants must have different graphs");

    for dir in [dir_a, dir_b, dir_solo] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
