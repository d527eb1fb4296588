//! Pins the zero-allocation steady state of the serving hot path.
//!
//! Installs the counting global allocator and drives a `workers: 0`
//! engine through its deterministic inline path (send → process_queued
//! → recv → recycle). After warm-up — which fills the worker's
//! inference workspace, the client's spare buffers, and the cache —
//! every request must perform **zero** heap allocations, both on the
//! cache-hit path and on the pure-inference path (cache disabled).
//! `serve_miss_alloc` pins sharded misses, whose forwards can run on
//! pool threads.

use gcwc::{build_samples, AGcwcModel, CompletionModel, ModelConfig, TaskKind, TrainSample};
use gcwc_bench::allocs::{count_allocs, CountingAlloc};
use gcwc_serve::{AnyModel, Client, Engine, EngineConfig, ModelRegistry};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn tiny_setup() -> (gcwc_traffic::NetworkInstance, Vec<TrainSample>, AGcwcModel) {
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
    let mut model = AGcwcModel::new(&hw.graph, 8, 16, ModelConfig::hw_hist().with_epochs(2), 42);
    model.fit(&samples[..8]);
    (hw, samples, model)
}

fn make_engine(cache_capacity: usize) -> (Arc<Engine>, Vec<TrainSample>) {
    gcwc_linalg::parallel::set_global_threads(1);
    let (hw, samples, model) = tiny_setup();
    let hw = Arc::new(hw);
    let factory_hw = Arc::clone(&hw);
    let registry = Arc::new(ModelRegistry::new(Box::new(move || {
        AnyModel::AGcwc(AGcwcModel::new(
            &factory_hw.graph,
            8,
            16,
            ModelConfig::hw_hist().with_epochs(2),
            0,
        ))
    })));
    registry.install(AnyModel::AGcwc(model));
    let engine = Arc::new(Engine::new(
        registry,
        EngineConfig { workers: 0, max_batch: 4, cache_capacity, ..Default::default() },
    ));
    (engine, samples)
}

/// One inline round trip: the exact steady-state serving step.
fn request(engine: &Engine, client: &mut Client, sample: &TrainSample) {
    let mut input = client.input_buffer();
    input.copy_from(&sample.input);
    client.send(input, sample.context.time_of_day, sample.context.day_of_week).expect("send");
    engine.process_queued();
    let completion = client.recv().expect("recv");
    client.recycle(completion);
}

fn assert_steady_state_is_alloc_free(cache_capacity: usize, label: &str) {
    let (engine, samples) = make_engine(cache_capacity);
    let mut client = engine.client();
    let pool = &samples[..4.min(samples.len())];

    // Warm-up: fill the inference workspace, the client's spare
    // buffers, and (when enabled) the cache entries for every context
    // this test replays.
    for _ in 0..3 {
        for s in pool {
            request(&engine, &mut client, s);
        }
    }

    for (step, s) in pool.iter().cycle().take(16).enumerate() {
        let (_, allocs) = count_allocs(|| request(&engine, &mut client, s));
        assert_eq!(
            allocs, 0,
            "steady-state {label} request {step} performed {allocs} heap allocations"
        );
    }
    engine.shutdown();
}

#[test]
fn steady_state_cache_hit_requests_perform_zero_allocations() {
    assert_steady_state_is_alloc_free(256, "cache-hit");
}

#[test]
fn steady_state_inference_requests_perform_zero_allocations() {
    // cache_capacity 0 disables the cache entirely: every request runs
    // the tape-free batched forward pass.
    assert_steady_state_is_alloc_free(0, "pure-inference");
}

#[test]
fn cold_requests_do_allocate() {
    // Sanity check that the counter is live: the first request through
    // a fresh engine pays for the workspace and buffers.
    let (engine, samples) = make_engine(0);
    let mut client = engine.client();
    let (_, allocs) = count_allocs(|| request(&engine, &mut client, &samples[0]));
    assert!(allocs >= 5, "cold request allocated only {allocs} times — counter not active?");
    engine.shutdown();
}
