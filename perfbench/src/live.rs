//! The `live-city` workload: GCWC K = 2 on the CI city behind an
//! `IngestLane` — durable record log, watermark aggregator and refresh
//! driver — replaying a seeded record stream slot by slot, as a
//! restarted city catching up on its log does.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gcwc::{FineTunePlan, GcwcModel, ShardedModel, TrainSample};
use gcwc_graph::PartitionSet;
use gcwc_ingest::refresh::holdout_loss;
use gcwc_ingest::{
    Aggregator, IngestLane, Pipeline, RecordLog, RefreshConfig, RefreshDriver, RefreshOutcome,
    SealedSlot, SpeedRecord, WindowConfig,
};
use gcwc_linalg::Matrix;
use gcwc_serve::{AnyModel, Engine, EngineConfig, IngestStats, ModelRegistry};
use gcwc_traffic::HistogramSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture::{self, RunDir, Slices, M, NET_SEED};
use crate::report::{Phase, Report};
use crate::trace::{Overhead, Tracer};
use crate::{alloc, stats, sys, Budget};

/// Partitions of the served model.
pub const SHARDS: usize = 2;
/// Records per edge per slot.
pub const PER_EDGE: usize = 24;
/// Share of records delivered one slot late: inside the grace window,
/// so they must still be accepted.
pub const REORDER_SHARE: f64 = 0.05;
/// Share of records delivered three slots late: their slot has sealed,
/// so they must be dropped.
pub const LATE_SHARE: f64 = 0.01;
/// Bring-ups per run; `setup_s` is their median.
pub const BRING_UPS: usize = 15;
/// Records per log segment.
const SEGMENT: usize = 1 << 16;
/// Refresh cycles the traced replay runs (twice: untraced and traced).
const REPLAY_REFRESHES: usize = 8;
/// Slots the traced intake replay feeds.
const REPLAY_SLOTS: usize = 24;
/// Replay slots before allocations are counted: until slots have sealed,
/// every new slot allocates its per-edge buffers.
const WARM_SLOTS: u64 = 4;
/// Slots per capacity slice (four refresh cycles).
const SLICE_SLOTS: u64 = 16;

/// How a generated record is delivered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Delivery {
    /// In its own slot's feed.
    OnTime,
    /// In the next slot's feed (inside the grace window).
    Reordered,
    /// Three slots later, after its slot sealed.
    Late,
}

/// The seeded record stream. Slot `s`'s records depend only on the
/// seed and `s`, so every run with one seed replays the same stream.
struct Stream {
    seed: u64,
    n: usize,
    slot_secs: u64,
    /// Per-edge mean speed, so the stream carries something to learn.
    means: Vec<f64>,
}

impl Stream {
    fn new(seed: u64, n: usize, slot_secs: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(NET_SEED);
        let means = (0..n).map(|_| rng.random_range(6.0..30.0)).collect();
        Self { seed, n, slot_secs, means }
    }

    fn slot(&self, s: u64, out: &mut Vec<(SpeedRecord, Delivery)>) {
        out.clear();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9) ^ s);
        for edge in 0..self.n {
            for _ in 0..PER_EDGE {
                let speed = (self.means[edge] + rng.random_range(-6.0..6.0)).clamp(0.5, 39.5);
                let rec = SpeedRecord {
                    edge: edge as u32,
                    timestamp: s * self.slot_secs + rng.random_range(0..self.slot_secs),
                    speed,
                };
                let u: f64 = rng.random();
                let how = if u < LATE_SHARE {
                    Delivery::Late
                } else if u < LATE_SHARE + REORDER_SHARE {
                    Delivery::Reordered
                } else {
                    Delivery::OnTime
                };
                out.push((rec, how));
            }
        }
    }

    /// The records fed while processing slot `s`: the slot's on-time
    /// records, the previous slot's reordered ones, and the records of
    /// slot `s - 3` held back past the grace window.
    fn feed(
        &self,
        s: u64,
        scratch: &mut Vec<(SpeedRecord, Delivery)>,
        out: &mut Vec<SpeedRecord>,
    ) -> u64 {
        out.clear();
        if s >= 1 {
            self.slot(s - 1, scratch);
            out.extend(scratch.iter().filter(|r| r.1 == Delivery::Reordered).map(|r| r.0));
        }
        let mut late = 0;
        if s >= 3 {
            self.slot(s - 3, scratch);
            let before = out.len();
            out.extend(scratch.iter().filter(|r| r.1 == Delivery::Late).map(|r| r.0));
            late = (out.len() - before) as u64;
        }
        self.slot(s, scratch);
        out.extend(scratch.iter().filter(|r| r.1 == Delivery::OnTime).map(|r| r.0));
        late
    }
}

fn window_config(n: usize) -> WindowConfig {
    WindowConfig::paper(n, HistogramSpec::hist8())
}

fn factory(ps: &Arc<PartitionSet>) -> impl Fn() -> ShardedModel<GcwcModel> + Send + Clone {
    let ps = Arc::clone(ps);
    move || ShardedModel::gcwc_on(Arc::clone(&ps), M, fixture::ci_config(), NET_SEED)
}

fn registry(ps: &PartitionSet) -> Arc<ModelRegistry> {
    let factories = (0..ps.num_partitions())
        .map(|k| {
            let graph = ps.partition(k).graph().clone();
            let f: Box<dyn Fn() -> AnyModel + Send + Sync> = Box::new(move || {
                AnyModel::Gcwc(GcwcModel::new(&graph, M, fixture::ci_config(), NET_SEED))
            });
            f
        })
        .collect();
    Arc::new(ModelRegistry::sharded(factories, ps))
}

/// A bring-up's products: the lane, the registry it refreshes and the
/// engine answering completions from it.
struct Live {
    lane: IngestLane,
    registry: Arc<ModelRegistry>,
    engine: Engine,
    stats: Arc<IngestStats>,
}

/// One bring-up: `RefreshDriver::install_initial`, then the lane opens.
/// The registry, engine and the offline-trained initial model are made
/// first and are not part of the timed set-up.
fn bring_up(
    ps: &Arc<PartitionSet>,
    fixture_dir: &Path,
    dir: &Path,
    n: usize,
    tracer: &mut Tracer,
    op: u64,
) -> (Live, f64) {
    let registry = registry(ps);
    let stats = Arc::new(IngestStats::new());
    let engine = Engine::new(Arc::clone(&registry), EngineConfig::default());
    engine.attach_ingest(Arc::clone(&stats));
    let mut initial = factory(ps)();
    initial.load_shards(fixture_dir, "initial").expect("load the initial model");

    let t0 = Instant::now();
    let whole = tracer.begin("setup", op);
    let mut driver = RefreshDriver::new(
        RefreshConfig::new(dir.join("ckpt")),
        Box::new(factory(ps)),
        Arc::clone(&registry),
    )
    .expect("open the refresh driver")
    .with_stats(Arc::clone(&stats));
    tracer
        .time("setup.install_initial", op, || driver.install_initial(initial))
        .expect("install the initial model");
    let log = RecordLog::open(&dir.join("log"), SEGMENT).expect("open the record log");
    let pipeline =
        Pipeline::new(log, Aggregator::new(window_config(n))).with_stats(Arc::clone(&stats));
    let lane = IngestLane::new(pipeline, driver);
    tracer.end(whole);
    (Live { lane, registry, engine, stats }, t0.elapsed().as_secs_f64())
}

/// Runs live-city for `budget` and fills `report`.
pub fn run(seed: u64, budget: Budget, report: &mut Report) {
    let mut tracer = Tracer::new(report.traced());
    let dir = RunDir::new("live-city");
    let graph = fixture::ci_city();
    let n = graph.num_nodes();
    let ps = Arc::new(PartitionSet::build(&graph, SHARDS));

    // The offline-trained initial model, saved once per run.
    let fixture_dir = dir.0.join("fixture");
    std::fs::create_dir_all(&fixture_dir).expect("create the fixture directory");
    {
        let mut initial = factory(&ps)();
        let mut rng = StdRng::seed_from_u64(NET_SEED);
        let samples: Vec<TrainSample> = (0..20).map(|i| fixture::sample(&mut rng, n, i)).collect();
        initial.fit_shards(&samples);
        initial.save_shards(&fixture_dir, "initial").expect("save the initial model");
    }

    // Setup: BRING_UPS bring-ups, the median reported. The first lane
    // serves the replay; the others are spread evenly over the run, so a
    // slow spell of a shared host moves a few of them rather than all.
    let mut setup_s = Vec::new();
    let mut timed_bring_up = |tracer: &mut Tracer| {
        let b = setup_s.len();
        let run_dir = dir.0.join(format!("b{b}"));
        let (l, secs) = bring_up(&ps, &fixture_dir, &run_dir, n, tracer, b as u64);
        setup_s.push(secs);
        l
    };
    let mut live = timed_bring_up(&mut tracer);

    // The closed-loop replay: one op per slot.
    let stream = Stream::new(seed, n, window_config(n).slot_secs);
    let mut client = live.engine.client();
    let mut probe = Matrix::zeros(n, M);
    fixture::fill_input(&mut StdRng::seed_from_u64(seed ^ 0x11), &mut probe);
    let mut scratch = Vec::new();
    let mut feed = Vec::new();
    let mut injected_late = 0u64;
    let mut refresh_ms = Vec::new();
    let (mut applied, mut rolled_back) = (0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digest = stats::Fnv::new();
    let mut slices = Slices::default();
    let start = Instant::now();
    let end = start + budget.total();
    let mut slot = 0u64;
    let mut peak_rss = None;
    let mut bring_ups = 1;
    while Instant::now() < end || refresh_ms.len() < stats::min_samples(0.9) {
        slices.measure(|| {
            let mut gen_ns = 0u64;
            for _ in 0..SLICE_SLOTS {
                let g0 = sys::thread_cpu_ns();
                injected_late += stream.feed(slot, &mut scratch, &mut feed);
                gen_ns += sys::thread_cpu_ns() - g0;
                attempted += 1;
                let mut ok = Ok(());
                for &rec in &feed {
                    if let Err(e) = live.lane.ingest(rec) {
                        ok = Err(format!("slot {slot}: ingest failed: {e}"));
                        break;
                    }
                }
                let t0 = Instant::now();
                match live.lane.poll_refresh() {
                    Ok(RefreshOutcome::NotReady { .. }) => {}
                    Ok(RefreshOutcome::Applied { registry_generation: want, .. }) => {
                        applied += 1;
                        // The new generation must answer a completion.
                        let mut input = client.input_buffer();
                        input.copy_from(&probe);
                        match client.complete(input, (slot % 96) as usize, 0) {
                            Ok(c) => {
                                refresh_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                                if c.generation != want {
                                    let got = c.generation;
                                    ok = Err(format!("slot {slot}: answered by {got}, not {want}"));
                                } else if let Err(e) = fixture::check_histograms(&c.output, n, M) {
                                    ok = Err(format!("slot {slot}: {e}"));
                                }
                                if applied == 1 {
                                    digest.f64s(c.output.as_slice());
                                }
                                client.recycle(c);
                            }
                            Err(e) => ok = Err(format!("slot {slot}: completion failed: {e}")),
                        }
                    }
                    Ok(RefreshOutcome::RolledBack { .. }) => {
                        rolled_back += 1;
                        refresh_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    Err(e) => ok = Err(format!("slot {slot}: refresh failed: {e}")),
                }
                if let Err(e) = ok {
                    failed += 1;
                    report.fail(e);
                }
                slot += 1;
            }
            (SLICE_SLOTS, gen_ns)
        });
        // The peak RSS is read before any further bring-up, whose lane
        // would otherwise count toward the workload's high-water mark
        // beside its own; by then the run's memory has reached its peak.
        if peak_rss.is_none() {
            peak_rss = Some(sys::peak_rss_mb());
        }
        if bring_ups < BRING_UPS
            && start.elapsed() >= budget.total() * bring_ups as u32 / BRING_UPS as u32
        {
            timed_bring_up(&mut tracer).engine.shutdown();
            bring_ups += 1;
        }
    }
    while bring_ups < BRING_UPS {
        timed_bring_up(&mut tracer).engine.shutdown();
        bring_ups += 1;
    }
    report.phase(Phase {
        name: "setup",
        attempted: BRING_UPS as u64,
        succeeded: BRING_UPS as u64,
        failed: 0,
    });
    report.metric_n("setup_s", stats::median(&setup_s), "s", Some(setup_s.len()));
    let (ops_per_s, cpu_per_op, nwin) = slices.medians();
    report.phase(Phase { name: "replay", attempted, succeeded: attempted - failed, failed });
    report.metric_n("ops_per_s", ops_per_s, "op/s", Some(nwin));
    report.metric_n("cpu_ms_per_op", cpu_per_op, "ms", Some(nwin));
    let sorted = report.latency(&refresh_ms);
    report.note("slots", slot);
    report.note("refreshes_applied", applied);
    report.note("refreshes_rolled_back", rolled_back);

    // Late records: exactly the injected ones were dropped.
    let dropped = live.lane.pipeline().window().late_dropped();
    let counted = live.stats.snapshot()[2];
    if dropped != injected_late || counted != injected_late {
        report.fail(format!(
            "late drops: window {dropped}, stats {counted}, injected {injected_late}"
        ));
    }
    if applied == 0 {
        report.fail("no refresh was applied");
    }
    for s in live.lane.pipeline().window().sealed().iter().take(4) {
        digest.f64s(s.to_sample(0).input.as_slice());
    }

    if report.traced() {
        report.metric("ingest.late_dropped", dropped as f64, "count");
        report.metric("refresh.applied", applied as f64, "count");
        report.metric("refresh.rolled_back", rolled_back as f64, "count");
        report.metric(
            "gen.cpu_ms_per_op",
            slices.gen_cpu_ns as f64 / 1e6 / slot.max(1) as f64,
            "ms",
        );
        report.metric("output.digest", digest.finish48(), "hash");
        match stats::percentile(&sorted, 0.99) {
            Some(p99) => report.metric_n("latency.p99_ms", p99, "ms", Some(sorted.len())),
            None => report.absent(
                "latency.p99_ms",
                "ms",
                format!("{} refreshes; p99 needs {}", sorted.len(), stats::min_samples(0.99)),
            ),
        }
        let sealed: Vec<SealedSlot> = live.lane.pipeline().window().sealed().to_vec();
        replay(
            &stream,
            &ps,
            &live,
            &sealed,
            &dir.0,
            n,
            &mut tracer,
            report,
            stats::median(&sorted),
        );
        let path = PathBuf::from(".perfbench/traces").join(format!("live-city-seed{seed}.jsonl"));
        tracer.write_jsonl(&path).expect("write the trace");
        report.note("trace_file", path.display());
    }
    drop(client);
    live.engine.shutdown();
    report.metric("peak_rss_mb", peak_rss.expect("at least one slice"), "MB");
}

/// The traced replay: the intake calls per slot on a separate log,
/// window and pipeline, then the refresh's five steps on the lane's own
/// sealed slots against the live registry.
#[allow(clippy::too_many_arguments)]
fn replay(
    stream: &Stream,
    ps: &Arc<PartitionSet>,
    live: &Live,
    sealed: &[SealedSlot],
    dir: &Path,
    n: usize,
    tracer: &mut Tracer,
    report: &mut Report,
    refresh_p50_ms: f64,
) {
    // Intake: append, fold and seal, one op per slot.
    let rdir = dir.join("replay");
    let mut log = RecordLog::open(&rdir.join("log"), SEGMENT).expect("open the replay log");
    let mut window = Aggregator::new(window_config(n));
    let mut pipeline = Pipeline::new(
        RecordLog::open(&rdir.join("pipe"), SEGMENT).expect("open the replay pipeline log"),
        Aggregator::new(window_config(n)),
    );
    let (mut scratch, mut feed, mut sink) = (Vec::new(), Vec::new(), Vec::new());
    let mut records = 0usize;
    let mut allocs = 0u64;
    for s in 0..REPLAY_SLOTS as u64 {
        stream.feed(s, &mut scratch, &mut feed);
        records += feed.len();
        let a0 = alloc::thread_allocs();
        tracer.time("ingest.append", s, || {
            for &r in &feed {
                log.append(r).expect("replay append");
            }
        });
        tracer.time("ingest.fold", s, || {
            for &r in &feed {
                window.offer(r);
            }
        });
        if s >= WARM_SLOTS {
            allocs += alloc::thread_allocs() - a0;
        }
        // The timed window seals as the pipeline's own does, so it
        // recycles slot buffers as a running window does.
        window.seal_ready(&mut sink).expect("seal the replay window");
        sink.clear();
        for &r in &feed {
            pipeline.ingest(r).expect("replay ingest");
        }
        tracer.time("ingest.seal", s, || pipeline.seal_ready()).expect("replay seal");
    }
    let per_record = records as f64 / REPLAY_SLOTS as f64;
    let per_slot = |name: &str| tracer.op_median_ms(name);
    let append_ns = per_slot("ingest.append") * 1e6 / per_record;
    report.metric_n("ingest.append_ns", append_ns, "ns", Some(REPLAY_SLOTS));
    let fold_ns = per_slot("ingest.fold") * 1e6 / per_record;
    report.metric_n("ingest.fold_ns", fold_ns, "ns", Some(REPLAY_SLOTS));
    report.metric_n("ingest.seal_ms", per_slot("ingest.seal"), "ms", Some(REPLAY_SLOTS));
    let counted = (REPLAY_SLOTS as u64 - WARM_SLOTS) as f64;
    report.metric("allocs_per_op", allocs as f64 / counted, "count");

    // Refresh: load, validate, fine-tune, validate, save, install —
    // the driver's own sequence, on its newest sealed slots (four to
    // train on, two held out).
    let cfg = RefreshConfig::new(rdir.join("ckpt"));
    std::fs::create_dir_all(&cfg.dir).expect("create the replay checkpoint directory");
    let take = (cfg.min_fresh_slots + cfg.holdout).min(sealed.len());
    let window_slots = &sealed[sealed.len() - take..];
    let (train, holdout) = window_slots.split_at(take - cfg.holdout.min(take));
    let train: Vec<TrainSample> = train.iter().enumerate().map(|(i, s)| s.to_sample(i)).collect();
    let holdout: Vec<TrainSample> =
        holdout.iter().enumerate().map(|(i, s)| s.to_sample(i)).collect();
    let make = factory(ps);
    make().save_shards(&cfg.dir, "replay.g0").expect("seed the replay checkpoints");
    let plan = FineTunePlan::default();
    let mut overhead = Overhead::default();
    let mut off = Tracer::new(false);
    let mut cycle = 0u64;
    // Two passes trace alternate cycles, so every cycle position is
    // measured once traced and once not.
    for pass in 1..=2u64 {
        for position in 0..REPLAY_REFRESHES as u64 {
            let op = 10_000 + position;
            let traced = Overhead::traced(op, pass);
            let t: &mut Tracer = if traced { &mut *tracer } else { &mut off };
            let started = Instant::now();
            let whole = t.begin("refresh", op);
            let mut cand = make();
            t.time("refresh.load", op, || cand.load_shards(&cfg.dir, &format!("replay.g{cycle}")))
                .expect("replay load");
            let prev = t.time("refresh.validate", op, || holdout_loss(&cand, &holdout));
            t.time("refresh.finetune", op, || {
                cand.fine_tune_shards_resumable(
                    &train,
                    &cfg.dir,
                    "replay.finetune",
                    cfg.every_epochs,
                    false,
                    &plan,
                )
            })
            .expect("replay fine-tune");
            let next = t.time("refresh.validate", op, || holdout_loss(&cand, &holdout));
            std::hint::black_box((prev, next));
            t.time("refresh.save", op, || {
                cand.save_shards(&cfg.dir, &format!("replay.g{}", cycle + 1))
            })
            .expect("replay save");
            t.time("refresh.install", op, || {
                let (_, shards) = cand.into_shards();
                live.registry.install_set(shards.into_iter().map(AnyModel::Gcwc).collect())
            });
            t.end(whole);
            overhead.record(op, traced, started.elapsed().as_secs_f64() * 1e3);
            cycle += 1;
        }
    }
    let per = |name: &str| tracer.op_median_ms(name);
    let parts =
        ["refresh.finetune", "refresh.validate", "refresh.save", "refresh.load", "refresh.install"];
    let values: Vec<f64> = parts.iter().map(|p| per(p)).collect();
    for ((name, unit), v) in [
        ("refresh.finetune_ms", "ms"),
        ("refresh.validate_ms", "ms"),
        ("refresh.save_ms", "ms"),
        ("refresh.load_ms", "ms"),
        ("refresh.install_ms", "ms"),
    ]
    .into_iter()
    .zip(&values)
    {
        report.metric_n(name, *v, unit, Some(REPLAY_REFRESHES));
    }
    report.metric("account.parts_ratio", values.iter().sum::<f64>() / refresh_p50_ms, "ratio");
    report.metric("trace.overhead_pct", overhead.pct(), "%");
    report.metric_n("setup.ckpt_load_ms", per("refresh.load"), "ms", Some(REPLAY_REFRESHES));
    let ckpt_bytes: u64 = (0..SHARDS)
        .map(|k| {
            std::fs::metadata(cfg.dir.join(format!("replay.g{cycle}.shard{k}.ckpt")))
                .map_or(0, |m| m.len())
        })
        .sum();
    report.metric("setup.ckpt_mb", ckpt_bytes as f64 / (1 << 20) as f64, "MB");
}
