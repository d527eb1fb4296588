//! End-to-end tests of the serving stack: batched responses must be
//! bit-identical to direct single-request inference, the cache must
//! stay correct under eviction, bad checkpoints must be rejected, and
//! shutdown must drain in-flight requests.

use gcwc::CompletionModel;
use gcwc::{build_samples, AGcwcModel, InferWorkspace, ModelConfig, TaskKind, TrainSample};
use gcwc_linalg::Matrix;
use gcwc_serve::{
    derive_row_flags, AnyModel, BinClient, Engine, EngineConfig, ModelRegistry, ServeError, Server,
    TenantId,
};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

struct Fixture {
    hw: gcwc_traffic::NetworkInstance,
    samples: Vec<TrainSample>,
    ckpt: PathBuf,
    model: AGcwcModel,
}

fn model_config() -> ModelConfig {
    ModelConfig::hw_hist().with_epochs(2)
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
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
        let mut model = AGcwcModel::new(&hw.graph, 8, 16, model_config(), 42);
        model.fit(&samples[..8]);
        let dir = std::env::temp_dir().join("gcwc_serve_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("agcwc_fixture.ckpt");
        model.save(&ckpt).unwrap();
        Fixture { hw, samples, ckpt, model }
    })
}

fn make_registry() -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new(Box::new(|| {
        AnyModel::AGcwc(AGcwcModel::new(&fixture().hw.graph, 8, 16, model_config(), 0))
    })));
    registry.load(&fixture().ckpt).unwrap();
    registry
}

/// What the engine must reproduce: a direct tape-free single pass with
/// the server's own flag derivation.
fn direct_completion(input: &Matrix, time_of_day: usize, day_of_week: usize) -> Matrix {
    let mut flags = Vec::new();
    derive_row_flags(input, &mut flags);
    let mut ws = InferWorkspace::new();
    fixture().model.infer(&mut ws, input, time_of_day, day_of_week, &flags)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A coalesced batch of B requests answers every request with the
    /// exact bits a lone request would have produced.
    #[test]
    fn batched_responses_match_single_requests(picks in collection::vec(0usize..12, 1..7)) {
        let f = fixture();
        let engine = Engine::new(
            make_registry(),
            EngineConfig { workers: 0, max_batch: 8, cache_capacity: 0, ..Default::default() },
        );
        let mut clients: Vec<_> = picks.iter().map(|_| engine.client()).collect();
        for (client, &p) in clients.iter_mut().zip(&picks) {
            let s = &f.samples[p];
            let mut input = client.input_buffer();
            input.copy_from(&s.input);
            client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
        }
        engine.process_queued();
        for (client, &p) in clients.iter_mut().zip(&picks) {
            let s = &f.samples[p];
            let completion = client.recv().unwrap();
            let expected = direct_completion(&s.input, s.context.time_of_day, s.context.day_of_week);
            prop_assert_eq!(bits(&expected), bits(&completion.output));
            client.recycle(completion);
        }
        engine.shutdown();
    }
}

#[test]
fn responses_match_tape_predict_bitwise() {
    // The serving path composes infer + cache + batching; anchor it all
    // the way back to the tape forward used during training.
    let f = fixture();
    let engine = Engine::new(make_registry(), EngineConfig { workers: 0, ..Default::default() });
    let mut client = engine.client();
    let s = &f.samples[2];
    let mut input = client.input_buffer();
    input.copy_from(&s.input);
    client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
    engine.process_queued();
    let completion = client.recv().unwrap();
    // predict() uses the sample's own row flags; they agree with the
    // derived ones because covered histogram rows carry mass.
    assert_eq!(bits(&f.model.predict(s)), bits(&completion.output));
    engine.shutdown();
}

#[test]
fn cache_stays_correct_under_eviction() {
    let f = fixture();
    let engine = Engine::new(
        make_registry(),
        EngineConfig { workers: 0, max_batch: 1, cache_capacity: 2, ..Default::default() },
    );
    let mut client = engine.client();
    let ask = |client: &mut gcwc_serve::Client, p: usize| {
        let s = &f.samples[p];
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
        engine.process_queued();
        let completion = client.recv().unwrap();
        let out = (bits(&completion.output), completion.cache_hit);
        client.recycle(completion);
        out
    };
    let (first, hit0) = ask(&mut client, 0);
    assert!(!hit0, "cold request must miss");
    let (again, hit1) = ask(&mut client, 0);
    assert!(hit1, "repeat must hit");
    assert_eq!(first, again, "cache must return the exact bits");
    // Fill past capacity 2 → sample 0 is evicted.
    ask(&mut client, 1);
    ask(&mut client, 2);
    let (after_evict, hit2) = ask(&mut client, 0);
    assert!(!hit2, "evicted entry must miss");
    assert_eq!(first, after_evict, "recomputation must be bit-identical");
    let stats = engine.stats();
    assert!(stats.cache_hits >= 1, "stats: {stats:?}");
    assert!(stats.cache_evictions >= 1, "stats: {stats:?}");
    engine.shutdown();
}

#[test]
fn corrupt_and_mismatched_checkpoints_are_rejected() {
    let f = fixture();
    let registry = make_registry();
    let generation_before = registry.generation();
    let dir = std::env::temp_dir().join("gcwc_serve_tests");

    // Truncated: drop the tail of the file.
    let full = std::fs::read_to_string(&f.ckpt).unwrap();
    let truncated_path = dir.join("truncated.ckpt");
    std::fs::write(&truncated_path, &full[..full.len() / 2]).unwrap();
    assert!(matches!(registry.load(&truncated_path), Err(ServeError::Checkpoint(_))));

    // Corrupted: break a hex token.
    let corrupt_path = dir.join("corrupt.ckpt");
    std::fs::write(&corrupt_path, full.replacen("3f", "zz", 1)).unwrap();
    assert!(matches!(registry.load(&corrupt_path), Err(ServeError::Checkpoint(_))));

    // Wrong architecture: a GCWC checkpoint offered to an A-GCWC registry.
    let gcwc_path = dir.join("wrong_arch.ckpt");
    let gcwc = gcwc::GcwcModel::new(&f.hw.graph, 8, model_config(), 1);
    gcwc.save(&gcwc_path).unwrap();
    match registry.load(&gcwc_path) {
        Err(ServeError::Checkpoint(gcwc_nn::PersistError::Mismatch(msg))) => {
            assert!(msg.contains("agcwc") || msg.contains("gcwc"), "message: {msg}");
        }
        other => panic!("expected Mismatch, got {:?}", other.map(|_| ())),
    }

    // Every failure left the serving snapshot untouched.
    assert_eq!(registry.generation(), generation_before);
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let f = fixture();
    let engine = Engine::new(
        make_registry(),
        EngineConfig { workers: 1, max_batch: 4, ..Default::default() },
    );
    let mut clients: Vec<_> = (0..8).map(|_| engine.client()).collect();
    for (k, client) in clients.iter_mut().enumerate() {
        let s = &f.samples[k % 4];
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
    }
    engine.shutdown(); // must serve all 8, not drop them
    for (k, client) in clients.iter_mut().enumerate() {
        let s = &f.samples[k % 4];
        let completion = client.recv().expect("queued request must be served");
        let expected = direct_completion(&s.input, s.context.time_of_day, s.context.day_of_week);
        assert_eq!(bits(&expected), bits(&completion.output));
    }
    assert_eq!(engine.stats().completed, 8);

    // After shutdown, new sends are refused.
    let mut late = engine.client();
    let input = late.input_buffer();
    assert!(matches!(late.send(input, 0, 0), Err(ServeError::ShuttingDown)));
}

#[test]
fn expired_deadline_is_reported() {
    let f = fixture();
    let engine = Engine::new(make_registry(), EngineConfig { workers: 0, ..Default::default() });
    let mut client = engine.client();
    let s = &f.samples[0];
    let mut input = client.input_buffer();
    input.copy_from(&s.input);
    client
        .send_with_deadline(
            input,
            s.context.time_of_day,
            s.context.day_of_week,
            Some(Instant::now() + Duration::from_millis(2)),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    engine.process_queued();
    assert!(matches!(client.recv(), Err(ServeError::DeadlineExceeded)));
    assert_eq!(engine.stats().expired, 1);
    engine.shutdown();
}

#[test]
fn full_queue_applies_backpressure() {
    let f = fixture();
    let engine = Engine::new(
        make_registry(),
        EngineConfig { workers: 0, queue_capacity: 2, ..Default::default() },
    );
    let mut clients: Vec<_> = (0..3).map(|_| engine.client()).collect();
    let s = &f.samples[0];
    for client in &mut clients[..2] {
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
    }
    let mut input = clients[2].input_buffer();
    input.copy_from(&s.input);
    assert!(matches!(
        clients[2].send(input, s.context.time_of_day, s.context.day_of_week),
        Err(ServeError::Overloaded)
    ));
    engine.process_queued();
    for client in &mut clients[..2] {
        client.recv().unwrap();
    }
    assert_eq!(engine.stats().rejected, 1);
    engine.shutdown();
}

#[test]
fn malformed_requests_get_bad_request() {
    let engine = Engine::new(make_registry(), EngineConfig { workers: 0, ..Default::default() });
    let mut client = engine.client();
    client.send(Matrix::zeros(3, 3), 0, 0).unwrap(); // wrong shape
    engine.process_queued();
    assert!(matches!(client.recv(), Err(ServeError::BadRequest(_))));
    engine.shutdown();
}

#[test]
fn tcp_end_to_end_matches_direct_inference() {
    let f = fixture();
    let engine = Arc::new(Engine::new(make_registry(), EngineConfig::default()));
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut tcp = BinClient::connect(server.addr()).unwrap();
    assert!(tcp.ping().unwrap());
    let tenant = TenantId::DEFAULT.0;

    let s = &f.samples[1];
    let expected = direct_completion(&s.input, s.context.time_of_day, s.context.day_of_week);
    let first =
        tcp.tcomplete(tenant, &s.input, s.context.time_of_day, s.context.day_of_week).unwrap();
    assert_eq!(first.tenant, tenant);
    assert_eq!(bits(&expected), bits(&first.body.output), "wire transfer must be bit-exact");
    assert!(!first.body.cache_hit);
    let second =
        tcp.tcomplete(tenant, &s.input, s.context.time_of_day, s.context.day_of_week).unwrap();
    assert!(second.body.cache_hit, "repeat request must be served from cache");
    assert_eq!(bits(&expected), bits(&second.body.output));

    // The counters read over the wire, matched by name, are the
    // engine's own (both are counted before an answer is sent).
    let wire_stats = tcp.tstats(tenant).unwrap();
    let local = engine.stats();
    assert_eq!((wire_stats.completed, wire_stats.cache_hits), (2, 1));
    assert_eq!(wire_stats.completed, local.completed);
    assert_eq!(wire_stats.cache_hits, local.cache_hits);
    tcp.quit().unwrap();
    server.stop();
    engine.shutdown();
}

#[test]
fn hot_swap_invalidates_cached_completions() {
    let f = fixture();
    let registry = make_registry();
    let engine =
        Engine::new(Arc::clone(&registry), EngineConfig { workers: 0, ..Default::default() });
    let mut client = engine.client();
    let s = &f.samples[3];

    let mut input = client.input_buffer();
    input.copy_from(&s.input);
    client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
    engine.process_queued();
    let first = client.recv().unwrap();
    assert!(!first.cache_hit);
    let old_generation = first.generation;
    client.recycle(first);

    // Swap in a differently-trained model; the repeat request must be
    // recomputed by it, not served from the old model's cache entry.
    let mut swapped = AGcwcModel::new(&f.hw.graph, 8, 16, model_config(), 7);
    swapped.fit(&f.samples[..4]);
    let mut flags = Vec::new();
    derive_row_flags(&s.input, &mut flags);
    let mut ws = InferWorkspace::new();
    let expected =
        swapped.infer(&mut ws, &s.input, s.context.time_of_day, s.context.day_of_week, &flags);
    let new_generation = registry.install(AnyModel::AGcwc(swapped));
    assert!(new_generation > old_generation);

    let mut input = client.input_buffer();
    input.copy_from(&s.input);
    client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
    engine.process_queued();
    let after = client.recv().unwrap();
    assert!(!after.cache_hit, "hot-swap must invalidate cached completions");
    assert_eq!(after.generation, new_generation);
    assert_eq!(
        bits(&expected),
        bits(&after.output),
        "post-swap completion must come from the new model"
    );
    engine.shutdown();
}
