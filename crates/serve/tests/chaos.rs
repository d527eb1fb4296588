//! Chaos tests: fault injection through `gcwc-failpoint` against the
//! serving stack. Only compiled with `--features failpoints`.
//!
//! Covered here: a worker killed mid-dispatch answers its in-flight
//! request `ShardRestarting`, is restarted by its supervisor, and the
//! client's bounded retry succeeds; a shard whose forward pass keeps
//! failing trips its circuit breaker and is served degraded (prior
//! rows, healthy shards bit-identical) until a half-open probe closes
//! the breaker again; and a property test drives randomized failpoint
//! schedules through the engine asserting every request terminates
//! with a completion (exact or degraded) or a typed error — never a
//! hang, never corrupt healthy rows.
//!
//! The binary front end is covered too: reactor-tick faults (dropped
//! event batches, injected stalls) must delay but never hang or
//! corrupt pipelined binary requests, a connection-read fault must
//! surface as a typed I/O error with a clean reconnect, and with
//! every front-end site unarmed the binary protocol must serve
//! bit-identically to the reference.
//!
//! The registry's publish path is covered as well: an injected load
//! error or install panic leaves the previous snapshot serving and the
//! next publish succeeding, a checkpoint load that a topology change
//! overtook is refused, and a wire answer carries the graph generation
//! of the snapshot that computed it.
//!
//! The failpoint registry is process-global, so every test serialises
//! on [`chaos_lock`] and disarms its sites before releasing it.

#![cfg(feature = "failpoints")]

mod growing_city;

use gcwc::{build_samples, GcwcModel, ModelConfig, ShardedModel, TaskKind, TrainSample};
use gcwc_graph::PartitionSet;
use gcwc_linalg::Matrix;
use gcwc_nn::PersistError;
use gcwc_serve::{
    failsite, AnyModel, BinClient, BreakerConfig, Engine, EngineConfig, ModelRegistry, QuotaConfig,
    RetryPolicy, ServeError, Server, ServerConfig, TenantId, TenantRegistry,
};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};
use growing_city::GrowingCity;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn model_config() -> ModelConfig {
    ModelConfig::hw_hist().with_epochs(2)
}

struct Fixture {
    samples: Vec<TrainSample>,
    partition: Arc<PartitionSet>,
    ckpts: Vec<std::path::PathBuf>,
    /// `predict_global` of the trained sharded model on `samples[..4]`.
    reference: Vec<Matrix>,
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
        let partition = Arc::new(PartitionSet::build(&hw.graph, 2));
        let mut sharded = ShardedModel::gcwc_on(Arc::clone(&partition), 8, model_config(), 42);
        sharded.fit_shards(&samples[..8]);
        let reference = samples[..4].iter().map(|s| sharded.predict_global(s)).collect();
        let dir = std::env::temp_dir().join("gcwc_serve_chaos");
        std::fs::create_dir_all(&dir).unwrap();
        let (_, shards) = sharded.into_shards();
        let ckpts: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(k, shard)| {
                let path = dir.join(format!("chaos.shard{k}.ckpt"));
                shard.save(&path).unwrap();
                path
            })
            .collect();
        Fixture { samples, partition, ckpts, reference }
    })
}

/// A fresh K=2 registry loaded with the fixture's trained shards.
fn make_registry() -> Arc<ModelRegistry> {
    let f = fixture();
    let factories = (0..f.partition.num_partitions())
        .map(|k| {
            let graph = f.partition.partition(k).graph().clone();
            let fac: Box<dyn Fn() -> AnyModel + Send + Sync> =
                Box::new(move || AnyModel::Gcwc(GcwcModel::new(&graph, 8, model_config(), 0)));
            fac
        })
        .collect();
    let registry = Arc::new(ModelRegistry::sharded(factories, &f.partition));
    for (k, ckpt) in f.ckpts.iter().enumerate() {
        registry.load_shard(k, ckpt).unwrap();
    }
    registry
}

/// The tenant [`Server::start`] serves its engine as.
const DEFAULT: u64 = TenantId::DEFAULT.0;

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn disarm_all() {
    gcwc_failpoint::remove(failsite::WORKER_LOOP);
    gcwc_failpoint::remove(failsite::REACTOR_TICK);
    gcwc_failpoint::remove(failsite::CONN_READ);
    gcwc_failpoint::remove(failsite::ACCEPT);
    gcwc_failpoint::remove(failsite::WRITE);
    gcwc_failpoint::remove(failsite::TENANT_QUOTA);
    gcwc_failpoint::remove(failsite::REGISTRY_LOAD);
    gcwc_failpoint::remove(failsite::REGISTRY_INSTALL);
    for k in 0..2 {
        gcwc_failpoint::remove(&failsite::shard_forward(k));
        for t in 1..=2 {
            gcwc_failpoint::remove(&failsite::tenant_shard_forward(t, k));
        }
    }
}

/// Disarms every chaos site when dropped, so an assertion failure (an
/// early return out of a test body) can never leak an armed site into
/// the next test.
struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Arms the sites `GCWC_FAILPOINTS` names (a no-op once read) and
/// disarms every site, for the registry tests below: they time their
/// own sites against each other, so no ambient fault may join in.
fn quiet() {
    gcwc_failpoint::init_from_env();
    disarm_all();
}

/// A fresh checkpoint file for a growing-city test.
fn city_checkpoint(name: &str, model: &GcwcModel) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("gcwc_serve_chaos_city");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    model.save(&path).unwrap();
    path
}

#[test]
fn worker_death_answers_in_flight_and_bounded_retry_succeeds() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    disarm_all();
    let f = fixture();
    let engine = Engine::new(make_registry(), EngineConfig { workers: 1, ..Default::default() });
    let mut client = engine.client();
    client.set_retry_policy(Some(RetryPolicy::default()));

    // The worker panics between dequeue and service exactly once: the
    // in-flight job answers `ShardRestarting` through its Drop guard,
    // the supervisor restarts the loop, and the client's retry lands
    // on the recovered worker.
    gcwc_failpoint::configure(failsite::WORKER_LOOP, "1*panic->off").unwrap();
    let s = &f.samples[0];
    let mut input = client.input_buffer();
    input.copy_from(&s.input);
    let result = client.complete(input, s.context.time_of_day, s.context.day_of_week);
    disarm_all();

    let completion = result.expect("retry must succeed after the worker restart");
    assert!(!completion.degraded);
    assert_eq!(bits(&f.reference[0]), bits(&completion.output));
    client.recycle(completion);

    let stats = engine.stats();
    assert!(stats.worker_restarts >= 1, "stats: {stats:?}");
    assert!(stats.retries >= 1, "stats: {stats:?}");
    engine.shutdown();
}

#[test]
fn failing_shard_degrades_trips_breaker_and_recovers_via_probe() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    disarm_all();
    let f = fixture();
    let engine = Engine::new(
        make_registry(),
        EngineConfig {
            workers: 0,
            cache_capacity: 0,
            breaker: BreakerConfig { failure_threshold: 2, cooldown: Duration::from_millis(50) },
            ..Default::default()
        },
    );
    let mut client = engine.client();
    let s = &f.samples[1];
    let want = &f.reference[1];
    let ask = |client: &mut gcwc_serve::Client| {
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
        engine.process_queued();
        client.recv().unwrap()
    };

    // Shard 1's forward pass fails persistently.
    let site1 = failsite::shard_forward(1);
    gcwc_failpoint::configure(&site1, "err").unwrap();

    // Two failures reach the threshold; each response is degraded but
    // shard 0's owned rows stay bit-identical and shard 1's owned rows
    // carry the uniform histogram prior.
    let prior = 1.0 / 8.0;
    for round in 0..2 {
        let completion = ask(&mut client);
        assert!(completion.degraded, "round {round} must be degraded");
        for &g in f.partition.partition(0).view().owned() {
            assert_eq!(
                bits(&Matrix::from_fn(1, 8, |_, c| want[(g, c)])),
                bits(&Matrix::from_fn(1, 8, |_, c| completion.output[(g, c)])),
                "healthy shard row {g} must be exact in round {round}"
            );
        }
        for &g in f.partition.partition(1).view().owned() {
            for c in 0..8 {
                assert_eq!(completion.output[(g, c)], prior, "row {g} col {c}");
            }
        }
        client.recycle(completion);
    }
    assert!(engine.shard_breaker_open(1), "threshold reached → breaker open");
    assert!(engine.stats().breaker_open >= 1);

    // While open, requests degrade without attempting the forward.
    let batches_before = engine.stats().batches;
    let completion = ask(&mut client);
    assert!(completion.degraded);
    client.recycle(completion);
    // Only shard 0's forward ran for that request.
    assert_eq!(engine.stats().batches, batches_before + 1);

    // Heal the shard and wait out the cooldown: the next request is
    // admitted as the half-open probe, succeeds, and closes the
    // breaker — the response is exact again.
    disarm_all();
    std::thread::sleep(Duration::from_millis(60));
    let healed = ask(&mut client);
    assert!(!healed.degraded, "post-probe response must be exact");
    assert_eq!(bits(want), bits(&healed.output));
    assert!(!engine.shard_breaker_open(1));
    client.recycle(healed);

    assert_eq!(engine.stats().degraded_responses, 3);
    engine.shutdown();
}

#[test]
fn open_breaker_never_caches_prior_rows() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    disarm_all();
    let f = fixture();
    let engine = Engine::new(
        make_registry(),
        EngineConfig {
            workers: 0,
            cache_capacity: 64,
            breaker: BreakerConfig { failure_threshold: 1, cooldown: Duration::from_millis(20) },
            ..Default::default()
        },
    );
    let mut client = engine.client();
    let s = &f.samples[2];
    let ask = |client: &mut gcwc_serve::Client| {
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        client.send(input, s.context.time_of_day, s.context.day_of_week).unwrap();
        engine.process_queued();
        client.recv().unwrap()
    };

    let site1 = failsite::shard_forward(1);
    gcwc_failpoint::configure(&site1, "err").unwrap();
    let degraded = ask(&mut client);
    assert!(degraded.degraded);
    client.recycle(degraded);
    disarm_all();
    std::thread::sleep(Duration::from_millis(30));

    // The degraded rows were never cached: after the probe heals the
    // shard, the same request recomputes shard 1 and returns the exact
    // completion (shard 0's rows may come from its cache — they were
    // computed exactly and are bit-identical either way).
    let healed = ask(&mut client);
    assert!(!healed.degraded);
    assert_eq!(bits(&f.reference[2]), bits(&healed.output));
    client.recycle(healed);
    engine.shutdown();
}

/// One randomized chaos schedule: which site, which spec, how many
/// requests to push through it.
#[derive(Clone, Debug)]
struct Schedule {
    site: usize,
    spec: &'static str,
    requests: usize,
}

const SPECS: [&str; 4] = ["1*panic->off", "2*err->off", "1*delay(5)->off", "50%err"];

fn schedules() -> impl Strategy<Value = Schedule> {
    (0usize..3, 0usize..SPECS.len(), 1usize..5).prop_map(|(site, spec, requests)| Schedule {
        site,
        spec: SPECS[spec],
        requests,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under any armed schedule every request terminates promptly with
    /// a completion (exact or degraded) or a typed retryable error —
    /// and exact completions are bit-identical to the reference.
    #[test]
    fn chaos_schedules_never_hang_or_corrupt(schedule in schedules()) {
        let _guard = chaos_lock();
        let _disarm = DisarmOnDrop;
        disarm_all();
        let f = fixture();
        let engine = Engine::new(
            make_registry(),
            EngineConfig {
                workers: 1,
                cache_capacity: 0,
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_millis(10),
                },
                ..Default::default()
            },
        );
        let mut client = engine.client();
        client.set_retry_policy(Some(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            jitter_seed: 7,
        }));

        let site = match schedule.site {
            0 => failsite::WORKER_LOOP.to_owned(),
            k => failsite::shard_forward(k - 1),
        };
        gcwc_failpoint::configure(&site, schedule.spec).unwrap();
        for r in 0..schedule.requests {
            let s = &f.samples[r % 4];
            let mut input = client.input_buffer();
            input.copy_from(&s.input);
            match client.complete(input, s.context.time_of_day, s.context.day_of_week) {
                Ok(completion) => {
                    if !completion.degraded {
                        prop_assert_eq!(
                            bits(&f.reference[r % 4]),
                            bits(&completion.output),
                            "exact completion diverged under {:?}", schedule
                        );
                    }
                    client.recycle(completion);
                }
                // Exhausted retries against a dying worker: typed, not
                // a hang, and the next request may still succeed.
                Err(ServeError::ShardRestarting | ServeError::Overloaded) => {}
                Err(e) => return Err(TestCaseError::fail(format!(
                    "unexpected error under {schedule:?}: {e}"
                ))),
            }
        }
        disarm_all();

        // After disarming, the engine always serves exactly again
        // (cooldowns are far shorter than the retry budget).
        std::thread::sleep(Duration::from_millis(15));
        let s = &f.samples[0];
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        let healed = client
            .complete(input, s.context.time_of_day, s.context.day_of_week)
            .expect("healed engine must serve");
        if !healed.degraded {
            prop_assert_eq!(bits(&f.reference[0]), bits(&healed.output));
        }
        client.recycle(healed);
        engine.shutdown();
    }
}

/// Reactor-tick faults (skipped event batches, injected delays) slow
/// the binary front end down but never hang it or corrupt a response:
/// level-triggered epoll re-delivers everything a skipped tick
/// dropped.
#[test]
fn reactor_tick_faults_never_hang_or_corrupt_the_binary_front_end() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    disarm_all();
    let f = fixture();
    let engine = Arc::new(Engine::new(
        make_registry(),
        EngineConfig { workers: 1, cache_capacity: 0, ..Default::default() },
    ));
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = BinClient::connect(server.addr()).unwrap();

    // A mix of dropped ticks and injected stalls, bounded so the
    // reactor always recovers (an always-on err would spin, which is
    // exactly why ambient chaos arms this site probabilistically).
    gcwc_failpoint::configure(failsite::REACTOR_TICK, "4*err->2*delay(5)->off").unwrap();
    for (i, want) in f.reference.iter().enumerate() {
        let s = &f.samples[i];
        let resp = client
            .tcomplete(DEFAULT, &s.input, s.context.time_of_day, s.context.day_of_week)
            .expect("tick faults must delay, not fail, requests");
        assert!(!resp.body.degraded);
        assert_eq!(bits(want), bits(&resp.body.output), "request {i} under tick chaos");
    }
    disarm_all();
    server.stop();
    engine.shutdown();
}

/// A read fault tears the binary connection down mid-session: the
/// client observes a typed I/O error (EOF), never a hang — and a
/// reconnect serves bit-identically.
#[test]
fn conn_read_fault_closes_typed_and_reconnect_serves_exactly() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    disarm_all();
    let f = fixture();
    let engine = Arc::new(Engine::new(
        make_registry(),
        EngineConfig { workers: 1, cache_capacity: 0, ..Default::default() },
    ));
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();

    // Connect while the site is quiet, then arm it: the very next
    // readable event on this connection kills it.
    let mut doomed = BinClient::connect(server.addr()).unwrap();
    assert!(doomed.ping().unwrap());
    gcwc_failpoint::configure(failsite::CONN_READ, "1*err->off").unwrap();
    let s = &f.samples[0];
    let torn = doomed.tcomplete(DEFAULT, &s.input, s.context.time_of_day, s.context.day_of_week);
    match torn {
        Err(ServeError::Io(_)) => {} // typed: the peer sees EOF/reset
        Err(other) => panic!("expected a typed I/O error from the torn connection, got {other}"),
        Ok(_) => panic!("expected a typed I/O error from the torn connection, got a response"),
    }
    disarm_all();

    let mut fresh = BinClient::connect(server.addr()).unwrap();
    let resp = fresh
        .tcomplete(DEFAULT, &s.input, s.context.time_of_day, s.context.day_of_week)
        .expect("reconnect must serve");
    assert!(!resp.body.degraded);
    assert_eq!(bits(&f.reference[0]), bits(&resp.body.output), "post-reconnect response");
    server.stop();
    engine.shutdown();
}

/// With failpoints compiled in but every front-end site unarmed, the
/// binary protocol serves bit-identically to the reference — the
/// chaos instrumentation itself is a no-op.
#[test]
fn unarmed_binary_front_end_serves_bit_identically() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    disarm_all();
    let f = fixture();
    let engine = Arc::new(Engine::new(
        make_registry(),
        EngineConfig { workers: 1, cache_capacity: 0, ..Default::default() },
    ));
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = BinClient::connect(server.addr()).unwrap();
    for (i, want) in f.reference.iter().enumerate() {
        let s = &f.samples[i];
        let resp = client
            .tcomplete(DEFAULT, &s.input, s.context.time_of_day, s.context.day_of_week)
            .unwrap();
        assert!(!resp.body.degraded);
        assert_eq!(bits(want), bits(&resp.body.output), "request {i}");
    }
    let stats = engine.stats();
    assert_eq!(stats.worker_restarts, 0, "stats: {stats:?}");
    assert_eq!(stats.degraded_responses, 0, "stats: {stats:?}");
    server.stop();
    engine.shutdown();
}

/// The multi-tenant isolation guarantee under chaos: with tenant A's
/// breakers forced open by its tenant-tagged forward failpoints AND
/// its quota exhausted (both organically and via the quota failpoint),
/// tenant B — sharing the same process, reactor, and listener — serves
/// every request bit-identical to its unarmed baseline with zero
/// degraded / retry / quota / breaker counters. Also pins that an
/// unregistered tenant id — the default id 0 included — answers
/// `unknown_tenant`.
#[test]
fn tenant_chaos_never_leaks_across_tenants() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    disarm_all();
    let f = fixture();

    let tenants = Arc::new(TenantRegistry::new());
    let engine_cfg = EngineConfig {
        workers: 1,
        cache_capacity: 0,
        breaker: BreakerConfig { failure_threshold: 1, cooldown: Duration::from_secs(3600) },
        ..Default::default()
    };
    // Tenant A: hard burst budget of 2, no refill — deterministic
    // exhaustion. Tenant B: no quota at all.
    let a = TenantId(1);
    let b = TenantId(2);
    tenants.register(
        a,
        make_registry(),
        engine_cfg,
        Some(QuotaConfig { burst: 2, refill_per_sec: 0 }),
    );
    tenants.register(b, make_registry(), engine_cfg, None);
    let mut server =
        Server::start_tenants(&tenants, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = BinClient::connect(server.addr()).unwrap();

    // No default tenant registered: id 0 answers unknown_tenant, as
    // does any other unregistered tenant id.
    let s0 = &f.samples[0];
    match client.tcomplete(DEFAULT, &s0.input, s0.context.time_of_day, s0.context.day_of_week) {
        Err(ServeError::UnknownTenant(0)) => {}
        other => panic!("tcomplete for tenant 0 without a default tenant: {other:?}"),
    }
    match client.tcomplete(99, &s0.input, s0.context.time_of_day, s0.context.day_of_week) {
        Err(ServeError::UnknownTenant(99)) => {}
        other => panic!("tcomplete for an unregistered tenant: {other:?}"),
    }

    // Unarmed baseline for tenant B: exact, bit-identical to the
    // fixture reference, graph generation 0.
    let baseline: Vec<Vec<u64>> = f
        .reference
        .iter()
        .enumerate()
        .map(|(i, want)| {
            let s = &f.samples[i];
            let r = client
                .tcomplete(b.0, &s.input, s.context.time_of_day, s.context.day_of_week)
                .unwrap();
            assert!(!r.body.degraded, "baseline request {i}");
            assert_eq!(r.graph_generation, 0);
            assert_eq!(bits(want), bits(&r.body.output), "baseline request {i}");
            bits(&r.body.output)
        })
        .collect();

    // Arm tenant A only: both of its shard forwards fail persistently
    // (its tenant-tagged sites), so its first request trips both
    // breakers (threshold 1) and degrades.
    for k in 0..2 {
        gcwc_failpoint::configure(&failsite::tenant_shard_forward(a.0, k), "err").unwrap();
    }
    let ra =
        client.tcomplete(a.0, &s0.input, s0.context.time_of_day, s0.context.day_of_week).unwrap();
    assert!(ra.body.degraded, "tenant A with every shard failing must degrade");
    // Second request spends A's last quota token (still degraded), the
    // third hits the empty bucket, and with the quota failpoint armed
    // the rejection path is exercised both organically and injected.
    let ra2 =
        client.tcomplete(a.0, &s0.input, s0.context.time_of_day, s0.context.day_of_week).unwrap();
    assert!(ra2.body.degraded);
    match client.tcomplete(a.0, &s0.input, s0.context.time_of_day, s0.context.day_of_week) {
        Err(ServeError::QuotaExceeded) => {}
        other => panic!("tenant A past its burst budget: {other:?}"),
    }
    gcwc_failpoint::configure(failsite::TENANT_QUOTA, "err").unwrap();
    match client.tcomplete(a.0, &s0.input, s0.context.time_of_day, s0.context.day_of_week) {
        Err(ServeError::QuotaExceeded) => {}
        other => panic!("tenant A with the quota failpoint armed: {other:?}"),
    }

    // Tenant A's counters show the carnage.
    let sa = client.tstats(a.0).unwrap();
    assert!(sa.breaker_open >= 1, "A stats: {sa:?}");
    assert_eq!(sa.degraded_responses, 2, "A stats: {sa:?}");
    assert_eq!(sa.quota_rejected, 2, "A stats: {sa:?}");

    // Tenant B, same process, while A is broken AND the quota
    // failpoint is globally armed (B carries no quota, so it must not
    // even evaluate that site): every response bit-identical to the
    // unarmed baseline.
    for (i, want) in baseline.iter().enumerate() {
        let s = &f.samples[i];
        let r =
            client.tcomplete(b.0, &s.input, s.context.time_of_day, s.context.day_of_week).unwrap();
        assert!(!r.body.degraded, "B request {i} under A's chaos");
        assert_eq!(r.graph_generation, 0);
        assert_eq!(want, &bits(&r.body.output), "B request {i} under A's chaos");
    }
    let sb = client.tstats(b.0).unwrap();
    assert_eq!(sb.degraded_responses, 0, "B stats: {sb:?}");
    assert_eq!(sb.retries, 0, "B stats: {sb:?}");
    assert_eq!(sb.quota_rejected, 0, "B stats: {sb:?}");
    assert_eq!(sb.breaker_open, 0, "B stats: {sb:?}");
    assert_eq!(sb.worker_restarts, 0, "B stats: {sb:?}");

    disarm_all();
    server.stop();
    tenants.shutdown();
}

#[test]
fn unarmed_sites_serve_bit_identically_with_zero_fault_counters() {
    // Satellite of the no-op guarantee: with the feature *compiled in*
    // but no site armed, serving is bit-identical to the reference and
    // none of the containment machinery fires.
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    disarm_all();
    let f = fixture();
    let engine = Engine::new(
        make_registry(),
        EngineConfig { workers: 1, cache_capacity: 0, ..Default::default() },
    );
    let mut client = engine.client();
    client.set_retry_policy(Some(RetryPolicy::default()));
    for (i, want) in f.reference.iter().enumerate() {
        let s = &f.samples[i];
        let mut input = client.input_buffer();
        input.copy_from(&s.input);
        let completion =
            client.complete(input, s.context.time_of_day, s.context.day_of_week).unwrap();
        assert!(!completion.degraded);
        assert_eq!(bits(want), bits(&completion.output), "request {i}");
        client.recycle(completion);
    }
    let stats = engine.stats();
    assert_eq!(stats.worker_restarts, 0, "stats: {stats:?}");
    assert_eq!(stats.breaker_open, 0, "stats: {stats:?}");
    assert_eq!(stats.degraded_responses, 0, "stats: {stats:?}");
    assert_eq!(stats.retries, 0, "stats: {stats:?}");
    engine.shutdown();
}

/// An injected load error is typed, and the previous snapshot and
/// generation keep serving exactly; the next load publishes.
#[test]
fn registry_load_err_keeps_the_previous_snapshot_serving() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    quiet();
    let f = fixture();
    let registry = make_registry();
    let before = registry.snapshot();

    gcwc_failpoint::configure(failsite::REGISTRY_LOAD, "1*err->off").unwrap();
    let failed = registry.load_shard(0, &f.ckpts[0]);
    assert!(matches!(failed, Err(ServeError::Io(_))), "got {failed:?}");
    assert!(Arc::ptr_eq(&before, &registry.snapshot()), "a failed load must not publish");
    assert_eq!(registry.generation(), before.generation);

    let engine = Engine::new(
        Arc::clone(&registry),
        EngineConfig { workers: 1, cache_capacity: 0, ..Default::default() },
    );
    let mut client = engine.client();
    let s = &f.samples[0];
    let mut input = client.input_buffer();
    input.copy_from(&s.input);
    let c = client.complete(input, s.context.time_of_day, s.context.day_of_week).unwrap();
    assert_eq!(c.generation, before.generation);
    assert!(!c.degraded);
    assert_eq!(bits(&f.reference[0]), bits(&c.output), "the previous snapshot serves exactly");
    engine.shutdown();

    assert_eq!(registry.load_shard(0, &f.ckpts[0]).unwrap(), before.generation + 1);
}

/// A panic injected at the install site of `install_shard`, of
/// `install_set` (a refresh's swap) and of `install_topology` leaves
/// the previous snapshot serving, and the next publish of every kind
/// succeeds: no lock is left poisoned.
#[test]
fn registry_install_panic_keeps_the_previous_snapshot_and_the_next_publish_succeeds() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    quiet();
    let city = GrowingCity::new();
    let registry = city.registry();
    let shard_model =
        |k: usize| AnyModel::Gcwc(growing_city::model(city.partition.partition(k).graph()));
    let engine =
        Engine::new(Arc::clone(&registry), EngineConfig { workers: 1, ..Default::default() });
    let mut client = engine.client();

    let publishes: [(&str, Box<dyn Fn() -> u64 + '_>); 3] = [
        ("install_shard", Box::new(|| registry.install_shard(1, shard_model(1)))),
        ("install_set", Box::new(|| registry.install_set(vec![shard_model(0), shard_model(1)]))),
        (
            "install_topology",
            Box::new(|| {
                let (updates, views) = city.grow();
                registry.install_topology(updates, views)
            }),
        ),
    ];
    for (name, publish) in &publishes {
        let before = registry.snapshot();
        gcwc_failpoint::configure(failsite::REGISTRY_INSTALL, "1*panic->off").unwrap();
        assert!(catch_unwind(AssertUnwindSafe(publish)).is_err(), "{name}: the site must fire");
        assert!(Arc::ptr_eq(&before, &registry.snapshot()), "{name}: nothing was published");
        let c = client.complete(growing_city::input(64), 0, 0).unwrap();
        assert_eq!((c.generation, c.graph_generation, c.degraded), (before.generation, 0, false));
        client.recycle(c);

        // Every kind of publish goes through after the injected panic.
        assert_eq!(registry.install_shard(0, shard_model(0)), before.generation + 1, "{name}");
        let generation = registry.install_set(vec![shard_model(0), shard_model(1)]);
        assert_eq!(generation, before.generation + 2, "{name}");
    }
    let (updates, views) = city.grow();
    registry.install_topology(updates, views);
    let path = city_checkpoint(
        "grown.shard0.ckpt",
        &growing_city::model(city.grown().partition(0).graph()),
    );
    registry.load_shard(0, &path).unwrap();
    let c = client.complete(growing_city::input(65), 0, 0).unwrap();
    assert_eq!((c.output.rows(), c.graph_generation, c.degraded), (65, 1, false));
    engine.shutdown();
}

/// A checkpoint load holds its model in the install site's delay while
/// a topology change appends an edge to its shard. The load read the
/// file into the old 64-edge architecture, so publishing it would set
/// a model beside a view it does not fit: it is refused, and every
/// shard's model keeps fitting its view.
#[test]
fn registry_refuses_a_load_that_a_topology_change_overtook() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    quiet();
    let city = GrowingCity::new();
    let registry = city.registry();
    let stale = city_checkpoint(
        "stale.shard0.ckpt",
        &growing_city::model(city.partition.partition(0).graph()),
    );
    let (updates, views) = city.grow();

    gcwc_failpoint::configure(failsite::REGISTRY_INSTALL, "1*delay(400)->off").unwrap();
    let load = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || registry.load_shard(0, &stale))
    };
    std::thread::sleep(Duration::from_millis(150));
    let started = Instant::now();
    registry.install_topology(updates, views);
    assert!(
        started.elapsed() < Duration::from_millis(200),
        "the load, not the topology change, must hold the delay"
    );
    let loaded = load.join().unwrap();
    assert!(
        matches!(loaded, Err(ServeError::Checkpoint(PersistError::Mismatch(_)))),
        "got {loaded:?}"
    );

    let snapshot = registry.snapshot();
    assert_eq!((snapshot.generation, snapshot.graph_generation), (1, 1));
    for k in 0..snapshot.num_shards() {
        assert_eq!(snapshot.shard(k).model.num_edges(), snapshot.view(k).num_local(), "shard {k}");
    }
    let engine =
        Engine::new(Arc::clone(&registry), EngineConfig { workers: 1, ..Default::default() });
    let mut client = engine.client();
    let c = client.complete(growing_city::input(65), 0, 0).unwrap();
    assert_eq!((c.output.rows(), c.degraded), (65, false));
    engine.shutdown();
}

/// A request computed before a topology change but encoded after it
/// (the reactor's ticks are slowed) is answered with the graph
/// generation it was computed under, beside its 64-row completion.
#[test]
fn wire_answer_carries_the_graph_generation_it_was_computed_under() {
    let _guard = chaos_lock();
    let _disarm = DisarmOnDrop;
    quiet();
    let city = GrowingCity::new();
    let registry = city.registry();
    let tenants = Arc::new(TenantRegistry::new());
    let tenant = TenantId(3);
    tenants.register(
        tenant,
        Arc::clone(&registry),
        EngineConfig { workers: 1, ..Default::default() },
        None,
    );
    let mut server =
        Server::start_tenants(&tenants, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = BinClient::connect(server.addr()).unwrap();
    assert!(client.ping().unwrap(), "the reactor is idle before the site is armed");
    let (updates, views) = city.grow();

    // Tick 1 (≈ 300 ms) reads the request and the worker computes it;
    // tick 2 (≈ 600 ms) encodes the answer; the change lands between.
    gcwc_failpoint::configure(failsite::REACTOR_TICK, "delay(300)").unwrap();
    let id = client.send_tcomplete(tenant.0, &growing_city::input(64), 0, 0).unwrap();
    std::thread::sleep(Duration::from_millis(450));
    registry.install_topology(updates, views);
    let (answered, result) = client.recv_response().unwrap();
    disarm_all();
    let r = result.expect("computed before the change, so the 64-row input was served");
    assert_eq!(answered, id);
    assert_eq!((r.graph_generation, r.body.output.rows()), (0, 64));

    let r = client.tcomplete(tenant.0, &growing_city::input(65), 0, 0).unwrap();
    assert_eq!((r.graph_generation, r.body.output.rows()), (1, 65));
    assert_eq!(client.tstats(tenant.0).unwrap().graph_generation, 1);
    server.stop();
    tenants.shutdown();
}
