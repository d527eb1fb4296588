//! The serving workloads, `serve-hit` and `serve-miss`: A-GCWC on the
//! CI city behind the binary tenant protocol, driven over loopback by
//! the benchmark's own wire client.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcwc::{AGcwcModel, GcwcModel, InferRequest, InferWorkspace, ShardedModel};
use gcwc_graph::{PartitionSet, RowView, StageSpec};
use gcwc_linalg::Matrix;
use gcwc_serve::cache::input_signature;
use gcwc_serve::protocol::TokResponse;
use gcwc_serve::wire::{self, Opcode};
use gcwc_serve::{
    AnyModel, CacheKey, CompletionCache, Engine, EngineConfig, ModelRegistry, ModelSnapshot,
    QuotaConfig, Server, ServerConfig, StatsSnapshot, Tenant, TenantId, TenantRegistry,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture::{self, RunDir, Slices, M, NET_SEED, SLOTS_PER_DAY};
use crate::report::{Phase, Report};
use crate::trace::{Overhead, Tracer};
use crate::{alloc, stats, sys, Budget};

/// Distinct (input, time, day) keys serve-hit cycles through.
pub const HOT_SET: usize = 64;
/// Requests kept in flight in the capacity phases (= `max_batch`).
pub const PIPELINE: usize = 8;
/// Every this many measured answers, one is kept for the bit-identity
/// check against a separately loaded in-process engine.
const IDENTITY_EVERY: u64 = 97;
/// Most answers kept for the identity check per run.
const IDENTITY_MAX: usize = 64;
/// Answers folded into `output.digest`: the first this many of the
/// latency phase, which depend only on the seed.
const DIGEST_OPS: usize = 64;
/// Slices the measured phases alternate in. It is also the number of
/// bring-ups per run (`setup_s` is their median): the first serves the
/// measured phases, and one more runs after each slice but the first.
const SLICES: usize = 20;
/// Ops the traced replay runs through each public call.
const REPLAY_OPS: usize = 96;
/// Depth-1 round trips (and in-process completions) serve-hit's
/// replay times.
const HIT_PROBES: usize = 1_000;

/// A quota that admits every request at these rates, so admission runs
/// its token-bucket path on every request without ever refusing.
const QUOTA: QuotaConfig = QuotaConfig { burst: 1 << 40, refill_per_sec: 1 << 40 };
const TENANT: u64 = 0;

/// Which serving workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every measured lookup hits the cache.
    Hit,
    /// No input repeats, so every lookup misses.
    Miss,
}

impl Kind {
    fn shards(self) -> usize {
        match self {
            Kind::Hit => 1,
            Kind::Miss => 2,
        }
    }
}

/// One request's content.
#[derive(Clone)]
struct Req {
    input: Matrix,
    tod: usize,
    dow: usize,
}

/// The inputs a run sends: serve-hit draws from a fixed hot set,
/// serve-miss generates a fresh input per request and proves no
/// coverage pattern repeats. Capacity slices, and bring-ups with the
/// warm-up, draw from streams of their own, so how many requests they
/// send never shifts the inputs of the latency phase (whose first
/// answers are digested).
struct Source {
    kind: Kind,
    rng: StdRng,
    capacity_rng: StdRng,
    setup_rng: StdRng,
    hot: Vec<Req>,
    seen: HashSet<u64>,
    n: usize,
}

impl Source {
    fn new(kind: Kind, seed: u64, n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let hot = match kind {
            Kind::Hit => (0..HOT_SET).map(|_| request(&mut rng, n)).collect(),
            Kind::Miss => Vec::new(),
        };
        let capacity_rng = StdRng::seed_from_u64(seed ^ 0xca9a_c17e);
        let setup_rng = StdRng::seed_from_u64(seed ^ 0x05e7_0b0b);
        Self { kind, rng, capacity_rng, setup_rng, hot, seen: HashSet::new(), n }
    }

    fn next(&mut self) -> Req {
        Self::draw(self.kind, &mut self.rng, &self.hot, &mut self.seen, self.n)
    }

    fn next_capacity(&mut self) -> Req {
        Self::draw(self.kind, &mut self.capacity_rng, &self.hot, &mut self.seen, self.n)
    }

    fn next_setup(&mut self) -> Req {
        Self::draw(self.kind, &mut self.setup_rng, &self.hot, &mut self.seen, self.n)
    }

    fn draw(kind: Kind, rng: &mut StdRng, hot: &[Req], seen: &mut HashSet<u64>, n: usize) -> Req {
        match kind {
            Kind::Hit => hot[rng.random_range(0..HOT_SET)].clone(),
            Kind::Miss => loop {
                let r = request(rng, n);
                if seen.insert(coverage_signature(&r.input)) {
                    return r;
                }
            },
        }
    }
}

fn request(rng: &mut StdRng, n: usize) -> Req {
    let (input, tod, dow) = fixture::random_request(rng, n);
    Req { input, tod, dow }
}

/// Signature of an input's coverage pattern (which rows are observed).
/// Distinct patterns imply distinct cache keys.
fn coverage_signature(input: &Matrix) -> u64 {
    let mut h = stats::Fnv::new();
    for i in 0..input.rows() {
        h.bytes(&[u8::from(!input.row_is_zero(i))]);
    }
    h.finish()
}

/// The benchmark's wire client: the tenant request form over one TCP
/// connection, as a writer and a reader half.
struct Writer {
    stream: TcpStream,
    buf: Vec<u8>,
    next_id: u64,
}

struct Reader {
    stream: TcpStream,
    head: [u8; wire::HEADER_LEN],
    payload: Vec<u8>,
}

fn connect(addr: SocketAddr) -> (Writer, Reader) {
    let stream = TcpStream::connect(addr).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let read = stream.try_clone().expect("clone the connection");
    (
        Writer { stream, buf: Vec::new(), next_id: 1 },
        Reader { stream: read, head: [0; wire::HEADER_LEN], payload: Vec::new() },
    )
}

impl Writer {
    fn send(&mut self, r: &Req) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.buf.clear();
        wire::encode_tcomplete_request(&mut self.buf, id, TENANT, r.tod, r.dow, &r.input);
        self.stream.write_all(&self.buf).expect("send a request");
        id
    }

    /// Sends every request of `round` in one write; returns the first
    /// request id (the rest follow consecutively).
    fn send_all(&mut self, round: &[Req]) -> u64 {
        let first = self.next_id;
        self.buf.clear();
        for r in round {
            wire::encode_tcomplete_request(
                &mut self.buf,
                self.next_id,
                TENANT,
                r.tod,
                r.dow,
                &r.input,
            );
            self.next_id += 1;
        }
        self.stream.write_all(&self.buf).expect("send a round of requests");
        first
    }
}

impl Reader {
    fn recv(&mut self) -> (u64, Result<TokResponse, String>) {
        self.stream.read_exact(&mut self.head).expect("read a frame header");
        let header = wire::decode_header(&self.head)
            .expect("valid frame header")
            .expect("a whole header was read");
        self.payload.resize(header.payload_len, 0);
        self.stream.read_exact(&mut self.payload).expect("read a frame payload");
        let answer = match header.opcode {
            Opcode::RespTComplete => {
                wire::decode_tcomplete_ok(&self.payload).map_err(|e| format!("decode: {e}"))
            }
            Opcode::RespErr => Err(match wire::decode_err(&self.payload) {
                Ok(e) => format!("error answer: {}", e.code()),
                Err(e) => format!("undecodable error answer: {e}"),
            }),
            other => Err(format!("unexpected opcode {:#04x}", other as u8)),
        };
        (header.request_id, answer)
    }
}

/// The checks every serving answer must pass.
fn check(answer: &Result<TokResponse, String>, n: usize, want_hit: bool) -> Result<(), String> {
    let tok = answer.as_ref().map_err(Clone::clone)?;
    fixture::check_histograms(&tok.body.output, n, M)?;
    if tok.body.degraded {
        return Err("degraded answer".into());
    }
    if tok.tenant != TENANT {
        return Err(format!("answered by tenant {}", tok.tenant));
    }
    if tok.body.cache_hit != want_hit {
        return Err(format!("cache_hit {} where {want_hit} was expected", tok.body.cache_hit));
    }
    Ok(())
}

/// Op accounting of one phase.
struct Tally {
    name: &'static str,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn new(name: &'static str) -> Self {
        Self { name, attempted: 0, failed: 0 }
    }

    fn record(&mut self, report: &mut Report, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                report.fail(format!("{} op {}: {e}", self.name, self.attempted));
                false
            }
        }
    }

    fn phase(&self) -> Phase {
        Phase {
            name: self.name,
            attempted: self.attempted,
            succeeded: self.attempted - self.failed,
            failed: self.failed,
        }
    }
}

/// Checkpoints trained once per run, loaded by every bring-up.
struct Fixture {
    _dir: RunDir,
    ckpts: Vec<PathBuf>,
    ckpt_bytes: u64,
}

fn prepare(kind: Kind) -> Fixture {
    let dir = RunDir::new(match kind {
        Kind::Hit => "serve-hit",
        Kind::Miss => "serve-miss",
    });
    let graph = fixture::ci_city();
    // Freshly initialised weights: serving cost does not depend on their
    // values, and even a short fit here left ≈ 20 MB of freed training
    // memory resident, counted in the workload's peak RSS.
    let cfg = fixture::ci_config();
    let model = ShardedModel::agcwc(&graph, M, SLOTS_PER_DAY, cfg, NET_SEED, kind.shards());
    let ckpts = model.save_shards(&dir.0, "agcwc").expect("save the fixture checkpoints");
    let ckpt_bytes = ckpts.iter().map(|p| std::fs::metadata(p).map_or(0, |m| m.len())).sum();
    Fixture { _dir: dir, ckpts, ckpt_bytes }
}

fn factories(ps: &PartitionSet) -> Vec<Box<dyn Fn() -> AnyModel + Send + Sync>> {
    (0..ps.num_partitions())
        .map(|k| {
            let graph = ps.partition(k).graph().clone();
            let f: Box<dyn Fn() -> AnyModel + Send + Sync> = Box::new(move || {
                AnyModel::AGcwc(AGcwcModel::new(
                    &graph,
                    M,
                    SLOTS_PER_DAY,
                    fixture::ci_config(),
                    NET_SEED,
                ))
            });
            f
        })
        .collect()
}

/// A running serving stack.
struct Stack {
    tenants: Arc<TenantRegistry>,
    tenant: Arc<Tenant>,
    partition: Arc<PartitionSet>,
    server: Server,
    writer: Writer,
    reader: Reader,
}

impl Stack {
    fn stop(mut self) {
        self.server.stop();
        self.tenants.shutdown();
    }
}

/// One complete bring-up: graph, partition, checkpoint loads through
/// `ModelRegistry::load_shard`, engine and server start, connect, and
/// the first correct answer. Layer calls are spanned in the traced run.
fn bring_up(
    kind: Kind,
    fx: &Fixture,
    first: &Req,
    tracer: &mut Tracer,
    op: u64,
) -> (Stack, Result<(), String>) {
    let whole = tracer.begin("setup", op);
    let graph = fixture::ci_city();
    let partition =
        Arc::new(tracer.time("setup.partition", op, || PartitionSet::build(&graph, kind.shards())));
    let registry = Arc::new(ModelRegistry::sharded(factories(&partition), &partition));
    for (k, path) in fx.ckpts.iter().enumerate() {
        tracer
            .time("setup.ckpt_load", op, || registry.load_shard(k, path))
            .expect("load a fixture checkpoint");
    }
    let tenants = Arc::new(TenantRegistry::new());
    let tenant = tenants.register(TenantId(TENANT), registry, EngineConfig::default(), Some(QUOTA));
    let server = Server::start_tenants(&tenants, "127.0.0.1:0", ServerConfig::default())
        .expect("start the server");
    let (mut writer, mut reader) = connect(server.addr());
    writer.send(first);
    let (_, answer) = reader.recv();
    let ok = check(&answer, graph.num_nodes(), false);
    tracer.end(whole);
    (Stack { tenants, tenant, partition, server, writer, reader }, ok)
}

/// Runs a serving workload for `budget` and fills `report`.
pub fn run(kind: Kind, seed: u64, budget: Budget, report: &mut Report) {
    let n = fixture::ci_city().num_nodes();
    let fx = prepare(kind);
    let mut tracer = Tracer::new(report.traced());
    let mut src = Source::new(kind, seed, n);

    // Setup: SLICES complete bring-ups, the median reported. The first
    // serves the measured phases; the others are spread over the run,
    // one after each slice but the first, so a slow spell of a shared
    // host moves a few of them rather than all.
    let mut setup = Tally::new("setup");
    let mut setup_s = Vec::new();
    let mut timed_bring_up = |src: &mut Source, tracer: &mut Tracer, report: &mut Report| {
        let first = src.next_setup();
        let t0 = Instant::now();
        let (s, ok) = bring_up(kind, &fx, &first, tracer, setup_s.len() as u64);
        setup_s.push(t0.elapsed().as_secs_f64());
        setup.record(report, ok);
        s
    };
    let mut stack = timed_bring_up(&mut src, &mut tracer, report);

    // Untimed warm-up: fill the hot set (serve-hit), or warm the worker
    // workspace at every batch size and fill every shard's cache to
    // capacity (serve-miss), so the first slice holds as much memory as
    // the last.
    let mut warm = Tally::new("warmup");
    match kind {
        Kind::Hit => {
            for pass in 0..2 {
                for r in src.hot.clone() {
                    stack.writer.send(&r);
                    let (_, a) = stack.reader.recv();
                    // The first pass fills the cache (the bring-up's
                    // first request may already have cached one key);
                    // the second must hit.
                    let res = if pass == 0 { check_any(&a, n) } else { check(&a, n, true) };
                    warm.record(report, res);
                }
            }
        }
        Kind::Miss => {
            // The workspace pool keeps buffers per batch size, so which
            // sizes a run's timing happens to form would decide its
            // memory. Each size is formed twice here: a lone request
            // occupies the worker, and the `b` sent while its forward
            // runs queue up and are served as one batch.
            let mut sent = 0;
            for b in (1..=PIPELINE).chain(1..=PIPELINE) {
                stack.writer.send(&src.next_setup());
                std::thread::sleep(Duration::from_millis(2));
                let round: Vec<Req> = (0..b).map(|_| src.next_setup()).collect();
                stack.writer.send_all(&round);
                for _ in 0..=b {
                    let (_, a) = stack.reader.recv();
                    warm.record(report, check(&a, n, false));
                }
                sent += 1 + b;
            }
            let capacity = EngineConfig::default().cache_capacity;
            let mut round = Vec::with_capacity(PIPELINE);
            while sent < capacity {
                round.clear();
                round.extend((0..PIPELINE).map(|_| src.next_setup()));
                stack.writer.send_all(&round);
                for _ in 0..PIPELINE {
                    let (_, a) = stack.reader.recv();
                    warm.record(report, check(&a, n, false));
                }
                sent += PIPELINE;
            }
        }
    }
    report.phase(warm.phase());

    let before = stack.tenant.stats();
    let mut kept = Kept::default();
    let mut digest = stats::Fnv::new();
    let want_hit = kind == Kind::Hit;

    // The measured phases alternate in SLICES slices, so a slow spell
    // of a shared host lands in both phases and moves one slice, not a
    // whole phase. Latency: one connection, one outstanding request (a
    // closed loop: a routing client waits for its answer).
    let mut lat = Tally::new("latency");
    let mut cap = Tally::new("capacity");
    let mut latencies = Vec::new();
    let mut slices = Slices::default();
    let lat_slice = budget.share(0.4) / SLICES as u32;
    let cap_slice = budget.share(0.5) / SLICES as u32;
    let mut peak_rss = 0.0;
    for s in 0..SLICES {
        let end = Instant::now() + lat_slice;
        while Instant::now() < end {
            let r = src.next();
            let t = Instant::now();
            stack.writer.send(&r);
            let (_, a) = stack.reader.recv();
            let dt = t.elapsed().as_secs_f64() * 1e3;
            let i = lat.attempted;
            if lat.record(report, check(&a, n, want_hit)) {
                latencies.push(dt);
                keep_answer(i, &r, &a, &mut kept, &mut digest);
            }
        }
        // Capacity slice: one connection, PIPELINE requests per round
        // sent in one write; answers may come back in any order and are
        // matched by request id.
        slices.measure(|| {
            let cpu0 = sys::thread_cpu_ns();
            let end = Instant::now() + cap_slice;
            let mut ops = 0;
            let mut round: Vec<Req> = Vec::with_capacity(PIPELINE);
            while Instant::now() < end {
                round.clear();
                round.extend((0..PIPELINE).map(|_| src.next_capacity()));
                let first = stack.writer.send_all(&round);
                for _ in 0..PIPELINE {
                    let (id, a) = stack.reader.recv();
                    let idx = id.wrapping_sub(first) as usize;
                    let res = if idx < PIPELINE {
                        check(&a, n, want_hit)
                    } else {
                        Err(format!("answer id {id} outside the round starting at {first}"))
                    };
                    let i = cap.attempted;
                    if cap.record(report, res) {
                        ops += 1;
                        kept.offer(i, &round[idx], &a.expect("checked").body.output);
                    }
                }
            }
            (ops, sys::thread_cpu_ns() - cpu0)
        });
        // The peak RSS is read once both phases have run at full shape
        // and before any further bring-up, whose stack would otherwise
        // count toward the workload's high-water mark beside its own.
        if s == 0 {
            peak_rss = sys::peak_rss_mb();
        } else {
            Stack::stop(timed_bring_up(&mut src, &mut tracer, report));
        }
    }
    report.phase(lat.phase());
    report.phase(cap.phase());
    report.phase(setup.phase());
    report.metric_n("setup_s", stats::median(&setup_s), "s", Some(setup_s.len()));
    report.metric("peak_rss_mb", peak_rss, "MB");
    let lat_sorted = report.latency(&latencies);
    let (ops_per_s, cpu_per_op, nslices) = slices.medians();
    report.metric_n("ops_per_s", ops_per_s, "op/s", Some(nslices));
    report.metric_n("cpu_ms_per_op", cpu_per_op, "ms", Some(nslices));
    let gen_cpu_ms = slices.gen_cpu_ns as f64 / 1e6 / slices.ops.max(1) as f64;

    // Engine counters over the measured phases.
    let after = stack.tenant.stats();
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let expect_ratio = if want_hit { 1.0 } else { 0.0 };
    if hit_ratio != expect_ratio {
        report.fail(format!("cache hit ratio {hit_ratio} where {expect_ratio} was expected"));
    }
    check_faults(report, &after);
    let batch_mean = misses as f64 / (after.batches - before.batches).max(1) as f64;

    // A fixed sample of answers must be bit-identical to in-process
    // `Client::complete` on a separately loaded engine (its own cache,
    // so every reference is a fresh forward pass).
    verify_identity(kind, &fx, &kept, report);

    if report.traced() {
        let ctx = ReplayCtx {
            kind,
            n,
            seed,
            fx: &fx,
            lat_p50_ms: stats::median(&lat_sorted),
            lat_sorted: &lat_sorted,
            batch_mean,
            hit_ratio,
            gen_cpu_ms,
            digest: digest.finish48(),
            stats: after,
        };
        replay(&mut stack, &ctx, &mut tracer, report);
        let path = PathBuf::from(".perfbench/traces").join(format!(
            "{}-seed{seed}.jsonl",
            if want_hit { "serve-hit" } else { "serve-miss" }
        ));
        tracer.write_jsonl(&path).expect("write the trace");
        report.note("trace_file", path.display());
    }
    Stack::stop(stack);
}

/// A fixed sample of answers for the bit-identity check: every
/// IDENTITY_EVERY-th answer of a phase, at most IDENTITY_MAX, each kept
/// as its request and a digest of the answer's bits.
#[derive(Default)]
struct Kept(Vec<(Req, u64)>);

impl Kept {
    fn offer(&mut self, i: u64, r: &Req, output: &Matrix) {
        if i.is_multiple_of(IDENTITY_EVERY) && self.0.len() < IDENTITY_MAX {
            self.0.push((r.clone(), bits_digest(output)));
        }
    }
}

fn bits_digest(m: &Matrix) -> u64 {
    let mut h = stats::Fnv::new();
    h.f64s(m.as_slice());
    h.finish()
}

/// Answers of the first DIGEST_OPS latency-phase requests go into the
/// digest; a sample is kept for the identity check.
fn keep_answer(
    i: u64,
    r: &Req,
    a: &Result<TokResponse, String>,
    kept: &mut Kept,
    digest: &mut stats::Fnv,
) {
    let Ok(tok) = a else { return };
    if (i as usize) < DIGEST_OPS {
        digest.f64s(tok.body.output.as_slice());
    }
    kept.offer(i, r, &tok.body.output);
}

fn check_any(answer: &Result<TokResponse, String>, n: usize) -> Result<(), String> {
    let hit = answer.as_ref().map(|t| t.body.cache_hit).unwrap_or(false);
    check(answer, n, hit)
}

fn check_faults(report: &mut Report, s: &StatsSnapshot) {
    for (name, v) in [
        ("rejected", s.rejected),
        ("expired", s.expired),
        ("degraded", s.degraded_responses),
        ("worker restarts", s.worker_restarts),
        ("quota rejections", s.quota_rejected),
    ] {
        if v != 0 {
            report.fail(format!("engine {name} = {v}, must be 0"));
        }
    }
}

/// Re-serves every kept request through in-process `Client::complete`
/// on a separately loaded engine and compares bits.
fn verify_identity(kind: Kind, fx: &Fixture, kept: &Kept, report: &mut Report) {
    let graph = fixture::ci_city();
    let ps = PartitionSet::build(&graph, kind.shards());
    let registry = Arc::new(ModelRegistry::sharded(factories(&ps), &ps));
    for (k, path) in fx.ckpts.iter().enumerate() {
        registry.load_shard(k, path).expect("load a fixture checkpoint");
    }
    let engine = Engine::new(registry, EngineConfig::default());
    let mut client = engine.client();
    for (r, want) in &kept.0 {
        let mut input = client.input_buffer();
        input.copy_from(&r.input);
        match client.complete(input, r.tod, r.dow) {
            Ok(c) => {
                if bits_digest(&c.output) != *want {
                    report.fail("a served answer differs in bits from in-process Client::complete");
                }
                client.recycle(c);
            }
            Err(e) => report.fail(format!("in-process reference failed: {e}")),
        }
    }
    report.note("identity_checked", kept.0.len());
    engine.shutdown();
}

/// What the replay needs from the measured phases.
struct ReplayCtx<'a> {
    kind: Kind,
    n: usize,
    seed: u64,
    fx: &'a Fixture,
    lat_p50_ms: f64,
    lat_sorted: &'a [f64],
    batch_mean: f64,
    hit_ratio: f64,
    gen_cpu_ms: f64,
    digest: f64,
    stats: StatsSnapshot,
}

/// The traced replay: the workload's own inputs through each public
/// call the serving path makes, one span per call.
fn replay(stack: &mut Stack, ctx: &ReplayCtx<'_>, tracer: &mut Tracer, report: &mut Report) {
    let n = ctx.n;
    // serve-hit replays its own hot set; serve-miss needs inputs the
    // measured phases never sent, so it draws from another stream.
    let stream = match ctx.kind {
        Kind::Hit => ctx.seed,
        Kind::Miss => ctx.seed ^ 0x7e9a,
    };
    let mut src = Source::new(ctx.kind, stream, n);
    let reqs: Vec<Req> = (0..REPLAY_OPS).map(|_| src.next()).collect();
    let engine = Arc::clone(stack.tenant.engine());
    let snapshot = engine.registry().snapshot();
    let shards = snapshot.num_shards();
    let mut replay_tally = Tally::new("replay");

    // Depth-1 round trips through the running server, then the same
    // requests in process; for serve-hit both hit, for serve-miss the
    // in-process pass uses the next fresh inputs so it misses too.
    // A hit costs tens of microseconds, so serve-hit probes many more
    // requests (after a warm-up) to pin the two medians down.
    let (probe_reqs, inproc_reqs): (Vec<Req>, Vec<Req>) = match ctx.kind {
        Kind::Hit => {
            let probes: Vec<Req> = reqs.iter().cycle().take(HIT_PROBES).cloned().collect();
            for r in &probes[..HIT_PROBES / 10] {
                stack.writer.send(r);
                let (_, a) = stack.reader.recv();
                replay_tally.record(report, check(&a, n, true));
            }
            (probes.clone(), probes)
        }
        Kind::Miss => (reqs.clone(), (0..REPLAY_OPS).map(|_| src.next()).collect()),
    };
    let want_hit = ctx.kind == Kind::Hit;
    for (i, r) in probe_reqs.iter().enumerate() {
        let s = tracer.begin("server.roundtrip", 1_000_000 + i as u64);
        stack.writer.send(r);
        let (_, a) = stack.reader.recv();
        tracer.end(s);
        replay_tally.record(report, check(&a, n, want_hit));
    }
    let mut client = engine.client();
    for (i, r) in inproc_reqs.iter().enumerate() {
        let mut input = client.input_buffer();
        input.copy_from(&r.input);
        let s = tracer.begin("engine.inproc", 2_000_000 + i as u64);
        let res = client.complete(input, r.tod, r.dow);
        tracer.end(s);
        match res {
            Ok(c) => {
                let ok = fixture::check_histograms(&c.output, n, M);
                replay_tally.record(report, ok);
                client.recycle(c);
            }
            Err(e) => {
                replay_tally.record(report, Err(e.to_string()));
            }
        }
    }

    // The per-call replay on this thread: the calls the engine makes
    // for one request, each in its own span under an `op` span. After
    // the codec and admission, each shard looks the request up in its
    // own cache, as the engine does; a hit scatters the cached rows, a
    // miss selects, runs the A-GCWC forward, scatters and inserts.
    // serve-hit's caches hold its hot set's answers, so no forward runs;
    // serve-miss's are full of other keys, so every insert evicts.
    let capacity = EngineConfig::default().cache_capacity;
    let mut hot_answers: Vec<(CacheKey, Matrix)> = Vec::new();
    for r in &src.hot {
        let mut input = client.input_buffer();
        input.copy_from(&r.input);
        match client.complete(input, r.tod, r.dow) {
            Ok(c) => {
                hot_answers
                    .push((CacheKey::for_input(0, r.tod, r.dow, &r.input), c.output.clone()));
                client.recycle(c);
            }
            Err(e) => report.fail(format!("in-process completion of a hot key failed: {e}")),
        }
    }
    let views: Vec<_> = (0..shards).map(|k| snapshot.view(k).clone()).collect();
    let fresh_caches = || -> Vec<CompletionCache> {
        views
            .iter()
            .map(|view| {
                let mut cache = CompletionCache::new(capacity);
                for (key, rows) in &hot_answers {
                    cache.insert(*key, rows);
                }
                if ctx.kind == Kind::Miss {
                    let filler = Matrix::zeros(view.num_owned(), M);
                    for j in 0..capacity as u64 {
                        let key = CacheKey {
                            generation: u64::MAX,
                            time_of_day: 0,
                            day_of_week: 0,
                            signature: j,
                        };
                        cache.insert(key, &filler);
                    }
                }
                cache
            })
            .collect()
    };
    let mut ws = InferWorkspace::new();
    let local = |k: usize| Matrix::zeros(views[k].num_local(), M);
    let mut locals: Vec<Matrix> = (0..shards).map(local).collect();
    let mut local_outs: Vec<Matrix> = (0..shards).map(local).collect();
    let mut encoder_outs: Vec<Matrix> = (0..shards).map(local).collect();
    let mut flags: Vec<Vec<f64>> = vec![Vec::new(); shards];
    let mut missed = vec![false; shards];
    // The GCWC encoder alone, on serve-miss only: not a call the serving
    // path makes, it splits the forward into encoder and context module.
    let encoders: Vec<GcwcModel> = match ctx.kind {
        Kind::Hit => Vec::new(),
        Kind::Miss => (0..shards)
            .map(|k| {
                let graph = stack.partition.partition(k).graph();
                GcwcModel::new(graph, M, fixture::ci_config(), NET_SEED)
            })
            .collect(),
    };
    let mut global = Matrix::zeros(n, M);
    let mut frame = Vec::new();
    let mut answer = Vec::new();
    let mut dst = Matrix::zeros(n, M);
    let mut overhead = Overhead::default();
    let (mut allocs, mut untraced_ops) = (0u64, 0u64);
    let mut beside_ms = Vec::new();
    let mut off = Tracer::new(false);
    for pass in 0..3u64 {
        // Pass 0 warms the workspaces; passes 1 and 2 trace alternate
        // ops, so every op is measured once traced and once not. Each
        // pass starts from the workload's cache state.
        let mut caches = fresh_caches();
        for (i, r) in reqs.iter().enumerate() {
            let op = 3_000 + i as u64;
            let traced = pass > 0 && Overhead::traced(op, pass);
            let t: &mut Tracer = if traced { &mut *tracer } else { &mut off };
            let started = Instant::now();
            let whole = t.begin("op", op);
            // Client: encode the request.
            frame.clear();
            t.time("wire.encode", op, || {
                wire::encode_tcomplete_request(&mut frame, op, TENANT, r.tod, r.dow, &r.input)
            });
            // Server: decode, admit, serve and encode the answer. Only
            // these calls count toward allocs_per_op.
            let a0 = alloc::thread_allocs();
            let decoded = t.time("wire.decode", op, || {
                let header = wire::decode_header(&frame).ok().flatten();
                let payload = &frame[wire::HEADER_LEN..];
                let (_, req) = wire::decode_tcomplete_request(payload).expect("own frame decodes");
                wire::fill_matrix(&req, &mut dst).map(|()| header)
            });
            debug_assert!(decoded.is_ok());
            let admitted = t.time("quota.admit", op, || stack.tenant.admit());
            if admitted.is_err() {
                report.fail("admission refused a replayed request");
            }
            let signature = t.time("cache.lookup", op, || input_signature(&dst));
            let key = CacheKey { generation: 0, time_of_day: r.tod, day_of_week: r.dow, signature };
            for k in 0..shards {
                let view = &views[k];
                let s = t.begin("cache.lookup", op);
                let cached = caches[k].get(&key);
                t.end(s);
                missed[k] = cached.is_none();
                if let Some(rows) = cached {
                    t.time("partition.scatter", op, || view.scatter_owned(rows, &mut global));
                    continue;
                }
                t.time("partition.select", op, || view.select_into(&dst, &mut locals[k]));
                gcwc_serve::derive_row_flags(&locals[k], &mut flags[k]);
                let model = &snapshot.shard(k).model;
                let rq = InferRequest {
                    input: &locals[k],
                    time_of_day: r.tod,
                    day_of_week: r.dow,
                    row_flags: &flags[k],
                };
                t.time("forward.agcwc", op, || {
                    model.infer_into(&mut ws, 1, |_| rq, std::slice::from_mut(&mut local_outs[k]))
                });
                t.time("cache.insert", op, || {
                    caches[k].insert_rows(key, &local_outs[k], view.num_owned())
                });
                t.time("partition.scatter", op, || view.scatter_owned(&local_outs[k], &mut global));
            }
            let hit = !missed.contains(&true);
            answer.clear();
            t.time("wire.encode", op, || {
                wire::encode_tcomplete_ok(
                    &mut answer,
                    op,
                    TENANT,
                    0,
                    &global,
                    hit,
                    false,
                    1,
                    shards,
                )
            });
            let server_allocs = alloc::thread_allocs() - a0;
            for (k, encoder) in encoders.iter().enumerate().filter(|&(k, _)| missed[k]) {
                let rq = InferRequest {
                    input: &locals[k],
                    time_of_day: r.tod,
                    day_of_week: r.dow,
                    row_flags: &flags[k],
                };
                t.time("forward.encoder", op, || {
                    let out = std::slice::from_mut(&mut encoder_outs[k]);
                    encoder.infer_into(&mut ws, 1, |_| rq, out)
                });
            }
            // Client: decode the answer.
            let decoded = t.time("wire.decode", op, || {
                let _ = wire::decode_header(&answer);
                wire::decode_tcomplete_ok(&answer[wire::HEADER_LEN..])
            });
            let ok = decoded
                .map_err(|e| e.to_string())
                .and_then(|d| fixture::check_histograms(&d.body.output, n, M));
            t.end(whole);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if pass > 0 {
                overhead.record(op, traced, ms);
                if traced {
                    replay_tally.record(report, ok);
                } else {
                    allocs += server_allocs;
                    untraced_ops += 1;
                }
            }
            // serve-miss's whole for the accounting: the in-process
            // engine on a fresh input, timed beside each replayed op so
            // both see the same spell of the host.
            if pass == 1 && ctx.kind == Kind::Miss {
                let r = src.next();
                let mut input = client.input_buffer();
                input.copy_from(&r.input);
                let t0 = Instant::now();
                match client.complete(input, r.tod, r.dow) {
                    Ok(c) => {
                        beside_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        client.recycle(c);
                    }
                    Err(e) => report.fail(format!("in-process completion failed: {e}")),
                }
            }
        }
    }
    // Batched forward at the engine's mean batch size, per request
    // (serve-miss only: serve-hit runs no forward).
    let batch = (ctx.batch_mean.round() as usize).clamp(1, PIPELINE);
    if ctx.kind == Kind::Miss {
        batched_forward(&snapshot, &views, &reqs, batch, &mut ws, tracer);
    }
    report.phase(replay_tally.phase());

    // Plan and partition builds, timed on their own.
    let specs: Vec<StageSpec> = fixture::ci_config()
        .conv_layers
        .iter()
        .map(|l| StageSpec { cheb_order: l.cheb_order, pool: l.pool })
        .collect();
    let graph = fixture::ci_city();
    for i in 0..8u64 {
        let op = 5_000 + i;
        let ps = tracer
            .time("setup.partition_only", op, || PartitionSet::build(&graph, ctx.kind.shards()));
        let s = tracer.begin("setup.plan", op);
        for p in ps.partitions() {
            std::hint::black_box(p.conv_plan(&specs));
        }
        tracer.end(s);
    }

    // Metrics from the spans.
    let per_op = |name: &str| tracer.op_median_ms(name);
    let encode_us = per_op("wire.encode") * 1e3;
    let decode_us = per_op("wire.decode") * 1e3;
    let admit_us = per_op("quota.admit") * 1e3;
    let rt_p50 = per_op("server.roundtrip");
    let inproc_p50 = per_op("engine.inproc");
    let (probes, inprocs) = (Some(probe_reqs.len()), Some(inproc_reqs.len()));
    report.metric_n("wire.encode_us", encode_us, "us", Some(REPLAY_OPS));
    report.metric_n("wire.decode_us", decode_us, "us", Some(REPLAY_OPS));
    report.metric_n("server.overhead_us", (rt_p50 - inproc_p50) * 1e3, "us", probes);
    report.metric_n("quota.admit_us", admit_us, "us", Some(REPLAY_OPS));
    report.metric_n("engine.inproc_us", inproc_p50 * 1e3, "us", inprocs);
    report.metric("engine.batch_mean", ctx.batch_mean, "count");
    report.metric("engine.queue_wait_ms", ctx.lat_p50_ms - rt_p50, "ms");
    report.metric("engine.rejected", ctx.stats.rejected as f64, "count");
    report.metric("engine.expired", ctx.stats.expired as f64, "count");
    report.metric("engine.degraded", ctx.stats.degraded_responses as f64, "count");
    report.metric("engine.restarts", ctx.stats.worker_restarts as f64, "count");
    report.metric("cache.hit_ratio", ctx.hit_ratio, "ratio");
    report.metric_n("cache.lookup_us", per_op("cache.lookup") * 1e3, "us", Some(REPLAY_OPS));
    report.metric_n(
        "partition.scatter_us",
        per_op("partition.scatter") * 1e3,
        "us",
        Some(REPLAY_OPS),
    );
    match ctx.kind {
        Kind::Miss => {
            let us = |name: &str| per_op(name) * 1e3;
            report.metric_n("cache.insert_us", us("cache.insert"), "us", Some(REPLAY_OPS));
            report.metric_n("partition.select_us", us("partition.select"), "us", Some(REPLAY_OPS));
            let agcwc = per_op("forward.agcwc");
            let encoder = per_op("forward.encoder");
            let batched = per_op("forward.agcwc_batch") / batch as f64;
            report.metric_n("forward.agcwc_ms", agcwc, "ms", Some(REPLAY_OPS));
            report.metric_n("forward.agcwc_batch_ms", batched, "ms", Some(REPLAY_OPS / 4));
            report.metric_n("forward.encoder_ms", encoder, "ms", Some(REPLAY_OPS));
            report.metric_n("forward.context_ms", agcwc - encoder, "ms", Some(REPLAY_OPS));
        }
        Kind::Hit => {
            let why = "every serve-hit lookup hits: the engine scatters the cached rows and \
                       inserts, selects and runs no forward";
            for (name, unit) in [
                ("cache.insert_us", "us"),
                ("partition.select_us", "us"),
                ("forward.agcwc_ms", "ms"),
                ("forward.agcwc_batch_ms", "ms"),
                ("forward.encoder_ms", "ms"),
                ("forward.context_ms", "ms"),
            ] {
                report.absent(name, unit, why);
            }
        }
    }
    report.metric_n("setup.ckpt_load_ms", per_op("setup.ckpt_load"), "ms", Some(SLICES));
    report.metric("setup.ckpt_mb", ctx.fx.ckpt_bytes as f64 / (1 << 20) as f64, "MB");
    report.metric_n("setup.plan_ms", per_op("setup.plan"), "ms", Some(8));
    report.metric_n("setup.partition_ms", per_op("setup.partition_only"), "ms", Some(8));
    report.metric("gen.cpu_ms_per_op", ctx.gen_cpu_ms, "ms");
    let lat_n = ctx.lat_sorted.len();
    match stats::percentile(ctx.lat_sorted, 0.99) {
        Some(p99) => report.metric_n("latency.p99_ms", p99, "ms", Some(lat_n)),
        None => report.absent(
            "latency.p99_ms",
            "ms",
            format!("{lat_n} latency samples; p99 needs {}", stats::min_samples(0.99)),
        ),
    }
    report.metric("allocs_per_op", allocs as f64 / untraced_ops.max(1) as f64, "count");
    report.metric("output.digest", ctx.digest, "hash");
    report.metric("trace.overhead_pct", overhead.pct(), "%");
    let parts_ratio = match ctx.kind {
        // The depth-1 round trip splits into the in-process engine and
        // the server layer around it (reactor, syscalls, loopback, and
        // the codec and admission that wire.* and quota.* break out);
        // the replay's two parts must reproduce the untraced p50.
        Kind::Hit => rt_p50 / ctx.lat_p50_ms,
        // Every request misses: the per-call parts of one request must
        // add up to the in-process engine's service time, timed beside
        // the replayed ops.
        Kind::Miss => {
            let calls = [
                "wire.encode",
                "wire.decode",
                "quota.admit",
                "cache.lookup",
                "cache.insert",
                "partition.select",
                "partition.scatter",
                "forward.agcwc",
            ];
            calls.iter().map(|c| per_op(c)).sum::<f64>() / stats::median(&beside_ms)
        }
    };
    report.metric("account.parts_ratio", parts_ratio, "ratio");
    report.note("replay_roundtrip_p50_ms", rt_p50);
}

/// Times the A-GCWC forward of each shard at `batch` requests per call
/// (the engine's mean batch size), reported per request.
fn batched_forward(
    snapshot: &ModelSnapshot,
    views: &[RowView],
    reqs: &[Req],
    batch: usize,
    ws: &mut InferWorkspace,
    tracer: &mut Tracer,
) {
    let prepared: Vec<(Vec<Matrix>, Vec<Vec<f64>>)> = views
        .iter()
        .map(|view| {
            (0..batch)
                .map(|j| {
                    let mut local = Matrix::zeros(view.num_local(), M);
                    view.select_into(&reqs[j % reqs.len()].input, &mut local);
                    let mut flags = Vec::new();
                    gcwc_serve::derive_row_flags(&local, &mut flags);
                    (local, flags)
                })
                .unzip()
        })
        .collect();
    for i in 0..REPLAY_OPS / 4 {
        let op = 4_000 + i as u64;
        let whole = tracer.begin("op.batch", op);
        for (k, (locals, flags)) in prepared.iter().enumerate() {
            let mut outs: Vec<Matrix> =
                (0..batch).map(|_| Matrix::zeros(views[k].num_local(), M)).collect();
            let model = &snapshot.shard(k).model;
            tracer.time("forward.agcwc_batch", op, || {
                model.infer_into(
                    ws,
                    batch,
                    |j| InferRequest {
                        input: &locals[j],
                        time_of_day: reqs[j % reqs.len()].tod,
                        day_of_week: reqs[j % reqs.len()].dow,
                        row_flags: &flags[j],
                    },
                    &mut outs,
                )
            });
        }
        tracer.end(whole);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_set_fits_the_default_cache() {
        // K = 1 for serve-hit: one cache holds the whole hot set.
        assert_eq!(Kind::Hit.shards(), 1);
        assert!(HOT_SET <= EngineConfig::default().cache_capacity);
        assert!(PIPELINE <= EngineConfig::default().max_batch);
    }

    #[test]
    fn serve_miss_never_repeats_an_input() {
        let mut src = Source::new(Kind::Miss, 3, 172);
        let mut keys = HashSet::new();
        let mut patterns = HashSet::new();
        for _ in 0..2_000 {
            let r = src.next();
            assert!(patterns.insert(coverage_signature(&r.input)), "coverage pattern repeated");
            assert!(keys.insert(input_signature(&r.input)), "input repeated");
        }
    }

    #[test]
    fn serve_hit_draws_only_from_its_hot_set() {
        let mut src = Source::new(Kind::Hit, 3, 172);
        let hot: HashSet<u64> = src.hot.iter().map(|r| input_signature(&r.input)).collect();
        assert_eq!(hot.len(), HOT_SET);
        for _ in 0..500 {
            assert!(hot.contains(&input_signature(&src.next().input)));
        }
    }
}
