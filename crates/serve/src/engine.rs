//! The batched inference engine: a bounded queue feeding worker
//! threads that coalesce requests into pooled forward passes, with a
//! completion cache per shard in front.
//!
//! Requests carry the **global** weight matrix; the engine routes each
//! one through every shard of the served shard set — cache lookup per
//! shard (keys embed the shard's own generation, so hot-swapping one
//! shard invalidates exactly its entries), one coalesced forward pass
//! per shard over the misses, then each shard's owned rows are
//! scattered back into the caller's global output buffer. A batch's
//! shard forwards run at once: the worker runs the first and idle
//! threads of the pool behind `gcwc_linalg::parallel::fork_join` take
//! the others, each forward at one kernel thread. Lookups, fills and
//! scatters stay on the worker, in shard order. With a single shard
//! (K = 1) the view is the identity, the forward runs on the worker,
//! and the path reduces to the pre-sharding pipeline bit for bit.
//!
//! Buffer discipline: a [`Client`] owns its input/output matrices and
//! round-trips them through the job → [`Completion`] cycle, the
//! worker owns persistent batch scratch and, per shard, an
//! [`InferWorkspace`] with localisation and output buffers, and the
//! caches reuse evicted buffers — so a warm in-process request
//! performs **zero heap allocations** on any thread (asserted by
//! `gcwc-bench`'s `serve_alloc` and `serve_miss_alloc` tests, which
//! install a counting allocator).

use crate::cache::{input_signature, CacheKey, CompletionCache};
use crate::health::{Admission, BreakerConfig, ShardHealth};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{ModelRegistry, ModelSnapshot};
use crate::server::Reply;
use crate::{derive_row_flags, failsite, ServeError};
use gcwc::{InferRequest, InferWorkspace, OutputKind};
use gcwc_linalg::Matrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Maximum requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Bounded request-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Worker threads. `0` runs no threads: callers drain the queue
    /// with [`Engine::process_queued`], which makes batching
    /// deterministic (used by the property tests).
    pub workers: usize,
    /// Completion-cache capacity (`0` disables caching).
    pub cache_capacity: usize,
    /// Per-shard circuit-breaker tuning (threshold + cooldown).
    pub breaker: BreakerConfig,
    /// When serving as one tenant of a multi-tenant process, the
    /// tenant id to tag this engine's forward failpoint sites with
    /// (`serve.t<id>.shard<k>.forward`), so chaos schedules can target
    /// one tenant's shards without touching any other tenant. `None`
    /// (the default) keeps the legacy `serve.shard<k>.forward` names.
    pub tenant_site: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            queue_capacity: 64,
            workers: 1,
            cache_capacity: 256,
            breaker: BreakerConfig::default(),
            tenant_site: None,
        }
    }
}

/// A completed request: the result plus the caller's buffers, handed
/// back for reuse.
pub struct Completion {
    /// The completed `n × output_cols` weight matrix.
    pub output: Matrix,
    /// The caller's input buffer, returned for the next request.
    pub input: Matrix,
    /// True when every shard served its rows from the completion
    /// cache (no forward pass ran for this request).
    pub cache_hit: bool,
    /// True when at least one shard could not compute its rows (open
    /// breaker or failed forward) and they were filled with the
    /// row-prior `P(Z)` instead. Healthy shards' rows are exact.
    pub degraded: bool,
    /// Model generation of the shard-set snapshot that produced the
    /// result.
    pub generation: u64,
    /// Graph (topology) generation of that snapshot: the result's rows
    /// are the edges of this generation's graph.
    pub graph_generation: u64,
    /// Number of shards K the completion was gathered from.
    pub shards: usize,
}

/// Bounded client-side retry: exponential backoff with deterministic
/// jitter, applied by [`Client::complete`] to *retryable* failures
/// only — a full queue ([`ServeError::Overloaded`]) or a restarting
/// worker ([`ServeError::ShardRestarting`]). A missed deadline is
/// never retried: the caller's time budget is already spent.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` disables retry).
    pub max_attempts: u32,
    /// Backoff before retry `a` is `base_backoff * 2^(a-1)` plus
    /// jitter, capped at `max_backoff`.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep (pre-jitter).
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream (same seed + same
    /// attempt number → same jitter, so retry timing is replayable).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry attempt `attempt` (1-based): capped
    /// exponential backoff plus a deterministic jitter in
    /// `[0, backoff/2]` drawn from `jitter_seed` and `attempt`.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << (attempt - 1).min(16));
        let base = exp.min(self.max_backoff);
        let half = base.as_nanos().min(u128::from(u64::MAX)) as u64 / 2;
        if half == 0 {
            return base;
        }
        // SplitMix64 over (seed, attempt): deterministic, but decorrelated
        // across attempts and across clients with different seeds.
        let mut z =
            self.jitter_seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        base + Duration::from_nanos(z % (half + 1))
    }

    fn retryable(e: &ServeError) -> bool {
        matches!(e, ServeError::Overloaded | ServeError::ShardRestarting)
    }
}

/// One-shot rendezvous a worker fulfils and a client waits on.
struct ResponseSlot {
    value: Mutex<Option<Result<Completion, ServeError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        Self { value: Mutex::new(None), ready: Condvar::new() }
    }

    fn fulfill(&self, result: Result<Completion, ServeError>) {
        let mut g = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(g.is_none(), "slot fulfilled twice");
        *g = Some(result);
        drop(g);
        self.ready.notify_one();
    }

    fn wait(&self) -> Result<Completion, ServeError> {
        let mut g = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = g.take() {
                return result;
            }
            g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Where a finished job delivers its result: a rendezvous slot a
/// caller thread waits on (the in-process [`Client`] path) or the TCP
/// reactor's completion queue (the wire path). Neither allocates.
enum Responder {
    Slot(Arc<ResponseSlot>),
    Reactor(Reply),
}

impl Responder {
    fn deliver(&self, result: Result<Completion, ServeError>) {
        match self {
            Responder::Slot(slot) => slot.fulfill(result),
            Responder::Reactor(reply) => reply.send(result),
        }
    }
}

/// A queued request with its owner's buffers and response target.
///
/// Drop is the containment safety-net: a job torn down *unanswered*
/// (its worker died mid-batch) delivers
/// [`ServeError::ShardRestarting`], so a waiting client (or reactor
/// connection) can never hang on a killed worker.
struct Job {
    input: Matrix,
    out_buf: Matrix,
    time_of_day: usize,
    day_of_week: usize,
    deadline: Option<Instant>,
    degraded: bool,
    responder: Responder,
    answered: bool,
}

impl Job {
    fn respond(mut self, result: Result<Completion, ServeError>) {
        self.answered = true;
        self.responder.deliver(result);
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        if !self.answered {
            self.responder.deliver(Err(ServeError::ShardRestarting));
        }
    }
}

/// A refused [`Engine::submit`]: the typed error plus the request's
/// buffers, handed back so the reactor can reuse them.
pub(crate) struct SubmitError {
    /// Why the submission was refused.
    pub error: ServeError,
    /// The caller's input buffer, returned for reuse.
    pub input: Matrix,
    /// The caller's output buffer, returned for reuse.
    pub out_buf: Matrix,
}

/// Monotonic request counters.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    worker_restarts: AtomicU64,
    breaker_open: AtomicU64,
    degraded_responses: AtomicU64,
    retries: AtomicU64,
}

/// Shared counters of the streaming-ingestion pipeline (`gcwc-ingest`
/// feeds them; the engine folds them into [`StatsSnapshot`] so the
/// wire stats response surfaces refresh observability without the
/// serving layer depending on the ingest crate). All monotonic except
/// `generation_age`, a gauge: slots sealed since the last applied
/// refresh — how stale the served model is in slot units.
#[derive(Default)]
pub struct IngestStats {
    records_ingested: AtomicU64,
    slots_sealed: AtomicU64,
    late_records_dropped: AtomicU64,
    refreshes_applied: AtomicU64,
    refreshes_rolled_back: AtomicU64,
    generation_age: AtomicU64,
}

impl IngestStats {
    /// Fresh all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts `n` records accepted into the log + window.
    pub fn add_records(&self, n: u64) {
        self.records_ingested.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one slot sealed; the served model ages by one slot.
    pub fn slot_sealed(&self) {
        self.slots_sealed.fetch_add(1, Ordering::Relaxed);
        self.generation_age.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one record dropped for arriving after its slot sealed.
    pub fn late_dropped(&self) {
        self.late_records_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one refresh hot-swapped into the registry; the served
    /// model is fresh again, so the age gauge resets.
    pub fn refresh_applied(&self) {
        self.refreshes_applied.fetch_add(1, Ordering::Relaxed);
        self.generation_age.store(0, Ordering::Relaxed);
    }

    /// Counts one refresh discarded after validation regressed.
    pub fn refresh_rolled_back(&self) {
        self.refreshes_rolled_back.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time values in [`StatsSnapshot`] field order.
    pub fn snapshot(&self) -> [u64; 6] {
        [
            self.records_ingested.load(Ordering::Relaxed),
            self.slots_sealed.load(Ordering::Relaxed),
            self.late_records_dropped.load(Ordering::Relaxed),
            self.refreshes_applied.load(Ordering::Relaxed),
            self.refreshes_rolled_back.load(Ordering::Relaxed),
            self.generation_age.load(Ordering::Relaxed),
        ]
    }
}

/// Point-in-time view of the engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests accepted into the queue.
    pub requests: u64,
    /// Requests answered (ok or error).
    pub completed: u64,
    /// Forward passes executed (each serving ≥1 cache-missing request).
    pub batches: u64,
    /// Requests refused with `Overloaded`.
    pub rejected: u64,
    /// Requests expired before service.
    pub expired: u64,
    /// Completion-cache hits (summed over per-shard caches).
    pub cache_hits: u64,
    /// Completion-cache misses (summed over per-shard caches).
    pub cache_misses: u64,
    /// Completion-cache evictions (summed over per-shard caches).
    pub cache_evictions: u64,
    /// Model generation of the served snapshot.
    pub generation: u64,
    /// Number of shards K in the served shard set.
    pub shards: u64,
    /// Times a worker died (panic) and was restarted by its
    /// supervisor loop.
    pub worker_restarts: u64,
    /// Times a shard's circuit breaker tripped open (threshold
    /// reached or half-open probe failed).
    pub breaker_open: u64,
    /// Responses answered with at least one prior-filled shard.
    pub degraded_responses: u64,
    /// Client-side retry attempts (bounded-retry policy).
    pub retries: u64,
    /// Speed records accepted by the ingestion pipeline (0 when no
    /// [`IngestStats`] is attached).
    pub records_ingested: u64,
    /// Time slots sealed by the sliding-window aggregator.
    pub slots_sealed: u64,
    /// Records dropped for arriving after their slot sealed (outside
    /// the grace window).
    pub late_records_dropped: u64,
    /// Incremental refreshes hot-swapped into the registry.
    pub refreshes_applied: u64,
    /// Incremental refreshes discarded after validation regressed.
    pub refreshes_rolled_back: u64,
    /// Slots sealed since the last applied refresh (staleness gauge).
    pub generation_age: u64,
    /// Graph (topology) generation of the served snapshot: bumped on
    /// every applied [`gcwc_graph::GraphDelta`]
    /// ([`ModelRegistry::install_topology`]), so clients detect
    /// topology swaps.
    pub graph_generation: u64,
    /// Requests rejected by the tenant's quota (token bucket empty or
    /// the `serve.tenant.quota` failpoint armed). `0` for an engine
    /// read outside its tenant — quotas exist only at the tenant layer.
    pub quota_rejected: u64,
}

impl StatsSnapshot {
    /// Every counter under its wire name (the field's own name), in
    /// wire order: the one table the stats response (opcode 0x86) is
    /// encoded from and decoded by ([`crate::wire::encode_tstats`],
    /// [`crate::wire::decode_tstats`]). A new counter is a field above
    /// plus one line here.
    pub const FIELDS: &'static [(&'static str, fn(&mut StatsSnapshot) -> &mut u64)] = &[
        ("requests", |s| &mut s.requests),
        ("completed", |s| &mut s.completed),
        ("batches", |s| &mut s.batches),
        ("rejected", |s| &mut s.rejected),
        ("expired", |s| &mut s.expired),
        ("cache_hits", |s| &mut s.cache_hits),
        ("cache_misses", |s| &mut s.cache_misses),
        ("cache_evictions", |s| &mut s.cache_evictions),
        ("generation", |s| &mut s.generation),
        ("shards", |s| &mut s.shards),
        ("worker_restarts", |s| &mut s.worker_restarts),
        ("breaker_open", |s| &mut s.breaker_open),
        ("degraded_responses", |s| &mut s.degraded_responses),
        ("retries", |s| &mut s.retries),
        ("records_ingested", |s| &mut s.records_ingested),
        ("slots_sealed", |s| &mut s.slots_sealed),
        ("late_records_dropped", |s| &mut s.late_records_dropped),
        ("refreshes_applied", |s| &mut s.refreshes_applied),
        ("refreshes_rolled_back", |s| &mut s.refreshes_rolled_back),
        ("generation_age", |s| &mut s.generation_age),
        ("graph_generation", |s| &mut s.graph_generation),
        ("quota_rejected", |s| &mut s.quota_rejected),
    ];

    /// The counters as `(name, value)` pairs, in [`Self::FIELDS`] order.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut s = *self;
        Self::FIELDS.iter().map(move |&(name, field)| (name, *field(&mut s)))
    }
}

/// Per-worker (or inline-drain) scratch, reused across batches.
struct WorkerState {
    batch: Vec<Option<Job>>,
    /// Global input signature per live batch slot.
    sigs: Vec<u64>,
    /// Per batch slot: true until some shard misses the cache.
    all_hit: Vec<bool>,
    /// One entry per shard of the served shard set.
    shards: Vec<ShardScratch>,
}

impl WorkerState {
    fn new(max_batch: usize) -> Self {
        Self {
            batch: Vec::with_capacity(max_batch),
            sigs: Vec::with_capacity(max_batch),
            all_hit: Vec::with_capacity(max_batch),
            shards: Vec::new(),
        }
    }
}

/// One shard's scratch, reused across batches. The lookup pass fills
/// the miss lists, the shard's forward (which may run on a pool thread,
/// at the same time as other shards') its inputs, flags and outputs,
/// and the fill pass reads them back.
#[derive(Default)]
struct ShardScratch {
    /// The shard's own inference workspace.
    ws: InferWorkspace,
    /// Batch indices of the shard's misses.
    miss_idx: Vec<usize>,
    /// Cache keys of the shard's misses.
    keys: Vec<CacheKey>,
    flags: Vec<Vec<f64>>,
    /// Localised (owned + halo rows) inputs for non-identity shards.
    local_ins: Vec<Matrix>,
    outs: Vec<Matrix>,
    /// The breaker admitted a forward over this batch's misses.
    admitted: bool,
    /// The admitted forward ran and returned.
    ok: bool,
}

struct EngineInner {
    queue: BoundedQueue<Job>,
    caches: Vec<Mutex<CompletionCache>>,
    registry: Arc<ModelRegistry>,
    counters: Counters,
    cfg: EngineConfig,
    inline_state: Mutex<WorkerState>,
    /// Per-shard circuit breaker.
    health: Vec<ShardHealth>,
    /// Per-shard failpoint site names, precomputed so the hot path
    /// never formats (allocation-free evaluation).
    forward_sites: Vec<String>,
    /// Ingestion counters, attached once by the streaming pipeline
    /// (absent — all-zero in stats — for a purely static deployment).
    ingest: OnceLock<Arc<IngestStats>>,
}

impl EngineInner {
    /// Serves one batch: per-request validation; per shard, cache
    /// lookups and the breaker gate; one coalesced forward pass per
    /// shard with admitted misses, the shards' forwards at once; per
    /// shard, cache fills and owned-row scatter; and finally one
    /// response per request once every shard has contributed its rows.
    fn serve_batch(&self, state: &mut WorkerState) {
        let snapshot = self.registry.snapshot();
        let num_shards = snapshot.num_shards();
        let (n, m, out_cols) =
            (snapshot.num_edges(), snapshot.num_buckets(), snapshot.output_cols());
        let WorkerState { batch, sigs, all_hit, shards } = state;
        sigs.clear();
        all_hit.clear();
        shards.resize_with(num_shards, ShardScratch::default);

        // Phase 1: validation, deadlines, output buffers of the
        // snapshot's shape, global input signatures.
        let now = Instant::now();
        for i in 0..batch.len() {
            let job = batch[i].as_mut().expect("fresh batch slot");
            if job.input.shape() != (n, m) {
                let got = job.input.shape();
                let job = batch[i].take().expect("slot checked above");
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                job.respond(Err(ServeError::BadRequest(format!(
                    "input shape {got:?}, model expects ({n}, {m})"
                ))));
                sigs.push(0);
                all_hit.push(false);
                continue;
            }
            if job.deadline.is_some_and(|d| d < now) {
                let job = batch[i].take().expect("slot checked above");
                self.counters.expired.fetch_add(1, Ordering::Relaxed);
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                job.respond(Err(ServeError::DeadlineExceeded));
                sigs.push(0);
                all_hit.push(false);
                continue;
            }
            if job.out_buf.shape() != (n, out_cols) {
                // The caller's buffer predates a topology change.
                job.out_buf = Matrix::zeros(n, out_cols);
            }
            sigs.push(input_signature(&job.input));
            all_hit.push(true);
        }

        // Phase 2: route through every shard. A shard that cannot
        // compute — open breaker, injected error, or panic — is
        // *degraded* instead of fatal: its misses' owned rows are filled
        // with the row-prior P(Z) and the response is flagged, while
        // every other shard's rows stay bit-identical.
        //
        // 2a, in shard order: cache lookups, cached rows scattered, and
        // the breaker gate. While shard `s` cools down after repeated
        // failures its misses are degraded without attempting the
        // forward pass; cached rows were still served exactly.
        for (s, scratch) in shards.iter_mut().enumerate() {
            let shard = snapshot.shard(s);
            let view = snapshot.view(s);
            scratch.miss_idx.clear();
            scratch.keys.clear();
            scratch.admitted = false;
            {
                let mut cache = self.caches[s].lock().unwrap_or_else(PoisonError::into_inner);
                for i in 0..batch.len() {
                    let Some(job) = batch[i].as_mut() else { continue };
                    let key = CacheKey {
                        generation: shard.generation,
                        time_of_day: job.time_of_day,
                        day_of_week: job.day_of_week,
                        signature: sigs[i],
                    };
                    if let Some(cached) = cache.get(&key) {
                        // Cached value is the shard's owned row block.
                        view.scatter_owned(cached, &mut job.out_buf);
                    } else {
                        scratch.keys.push(key);
                        scratch.miss_idx.push(i);
                        all_hit[i] = false;
                    }
                }
            }
            if scratch.miss_idx.is_empty() {
                continue;
            }
            if self.health[s].admit(Instant::now()) == Admission::Deny {
                degrade_misses(batch, &scratch.miss_idx, view, shard);
                continue;
            }
            scratch.admitted = true;
        }

        // 2b: one forward per admitted shard, the shards split over the
        // worker and the idle pool threads (`fork_join`); K = 1 runs on
        // the worker. Each forward only reads the batch and writes its
        // own scratch, so the shards' rows do not depend on where or in
        // which order they ran.
        let jobs: &[Option<Job>] = batch;
        gcwc_linalg::parallel::fork_join(
            shards.iter_mut().enumerate().filter(|(_, scratch)| scratch.admitted),
            |(s, scratch)| scratch.ok = self.forward(&snapshot, s, jobs, scratch),
        );

        // 2c, in shard order: outcomes, cache fills, owned-row scatter.
        for (s, scratch) in shards.iter_mut().enumerate() {
            if !scratch.admitted {
                continue;
            }
            let shard = snapshot.shard(s);
            let view = snapshot.view(s);
            if !scratch.ok {
                if self.health[s].record_failure(Instant::now()) {
                    self.counters.breaker_open.fetch_add(1, Ordering::Relaxed);
                }
                degrade_misses(batch, &scratch.miss_idx, view, shard);
                continue;
            }
            self.health[s].record_success();
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            let mut cache = self.caches[s].lock().unwrap_or_else(PoisonError::into_inner);
            for (r, &i) in scratch.miss_idx.iter().enumerate() {
                let job = batch[i].as_mut().expect("miss slots are live");
                cache.insert_rows(scratch.keys[r], &scratch.outs[r], view.num_owned());
                view.scatter_owned(&scratch.outs[r], &mut job.out_buf);
            }
        }

        // Phase 3: one response per surviving request.
        for i in 0..batch.len() {
            let Some(mut job) = batch[i].take() else { continue };
            if job.degraded {
                self.counters.degraded_responses.fetch_add(1, Ordering::Relaxed);
            }
            let completion = Completion {
                output: std::mem::replace(&mut job.out_buf, Matrix::zeros(0, 0)),
                input: std::mem::replace(&mut job.input, Matrix::zeros(0, 0)),
                cache_hit: all_hit[i],
                degraded: job.degraded,
                generation: snapshot.generation,
                graph_generation: snapshot.graph_generation,
                shards: num_shards,
            };
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
            job.respond(Ok(completion));
        }
        batch.clear();
    }

    /// Shard `s`'s coalesced forward pass over the misses in `scratch`:
    /// localises each miss's input, derives its row flags and runs the
    /// pass into `scratch.outs`. Returns false when the pass failed.
    ///
    /// The pass runs contained: a panic inside it (a poisoned kernel, an
    /// armed `panic` failpoint) or an injected `err` marks this shard's
    /// attempt failed instead of unwinding the worker. The workspace
    /// only holds pooled scratch, so abandoning it mid-pass is safe
    /// (worst case a few pooled buffers leak back to the allocator).
    fn forward(
        &self,
        snapshot: &ModelSnapshot,
        s: usize,
        jobs: &[Option<Job>],
        scratch: &mut ShardScratch,
    ) -> bool {
        let shard = snapshot.shard(s);
        let view = snapshot.view(s);
        let (m, out_cols) = (snapshot.num_buckets(), snapshot.output_cols());
        let ShardScratch { ws, miss_idx, flags, local_ins, outs, .. } = scratch;
        let count = miss_idx.len();
        let local_n = view.num_local();
        let identity = view.is_identity();
        if !identity {
            for slot in local_ins.iter_mut() {
                if slot.shape() != (local_n, m) {
                    let stale = std::mem::replace(slot, ws.take(local_n, m));
                    ws.give(stale);
                }
            }
            while local_ins.len() < count {
                let fresh = ws.take(local_n, m);
                local_ins.push(fresh);
            }
        }
        flags.resize_with(flags.len().max(count), Vec::new);
        for (r, &i) in miss_idx.iter().enumerate() {
            let job = jobs[i].as_ref().expect("miss slots are live");
            if identity {
                derive_row_flags(&job.input, &mut flags[r]);
            } else {
                view.select_into(&job.input, &mut local_ins[r]);
                derive_row_flags(&local_ins[r], &mut flags[r]);
            }
        }
        for slot in outs.iter_mut() {
            if slot.shape() != (local_n, out_cols) {
                let stale = std::mem::replace(slot, ws.take(local_n, out_cols));
                ws.give(stale);
            }
        }
        while outs.len() < count {
            let fresh = ws.take(local_n, out_cols);
            outs.push(fresh);
        }
        let (miss_idx, flags, local_ins): (&[usize], &[Vec<f64>], &[Matrix]) =
            (miss_idx, flags, local_ins);
        catch_unwind(AssertUnwindSafe(|| {
            if gcwc_failpoint::triggered(&self.forward_sites[s]) {
                return false; // injected forward failure
            }
            shard.model.infer_into(
                ws,
                count,
                |r| {
                    let job = jobs[miss_idx[r]].as_ref().expect("miss slots are live");
                    InferRequest {
                        input: if identity { &job.input } else { &local_ins[r] },
                        time_of_day: job.time_of_day,
                        day_of_week: job.day_of_week,
                        row_flags: &flags[r],
                    }
                },
                &mut outs[..count],
            );
            true
        }))
        .unwrap_or(false)
    }

    /// Coalesces `first` with up to `max_batch - 1` opportunistically
    /// popped jobs and serves the batch.
    fn batch_and_serve(&self, first: Job, state: &mut WorkerState) {
        state.batch.clear();
        state.batch.push(Some(first));
        // Failpoint: a trigger here simulates a worker dying between
        // dequeue and service — the in-flight job answers
        // `ShardRestarting` via its Drop guard and the supervisor
        // restarts the loop.
        if gcwc_failpoint::triggered(failsite::WORKER_LOOP) {
            panic!("failpoint {}: injected worker death", failsite::WORKER_LOOP);
        }
        while state.batch.len() < self.cfg.max_batch {
            match self.queue.try_pop() {
                Some(j) => state.batch.push(Some(j)),
                None => break,
            }
        }
        self.serve_batch(state);
    }

    /// Worker loop: blocking pop for the first job, opportunistic pops
    /// up to `max_batch`, then serve. Exits once the queue is closed
    /// and drained.
    fn run_worker(&self, state: &mut WorkerState) {
        while let Some(job) = self.queue.pop() {
            self.batch_and_serve(job, state);
        }
    }

    /// Non-blocking drain used by the inline (`workers == 0`) path.
    fn drain_queued(&self, state: &mut WorkerState) {
        while let Some(job) = self.queue.try_pop() {
            self.batch_and_serve(job, state);
        }
    }
}

/// Fills the owned rows of every cache-missing request of a shard
/// with the row-prior `P(Z)` — uniform over the histogram buckets for
/// the HIST head, `0.0` (no observed mass) for the AVG head — and
/// flags the jobs degraded. Degraded rows are never cached, so the
/// shard's next healthy pass replaces them with exact values.
fn degrade_misses(
    batch: &mut [Option<Job>],
    miss_idx: &[usize],
    view: &gcwc_graph::RowView,
    shard: &crate::registry::ModelShard,
) {
    let prior = match shard.model.output_kind() {
        OutputKind::Histogram => 1.0 / shard.model.output_cols() as f64,
        OutputKind::Average => 0.0,
    };
    for &i in miss_idx {
        let job = batch[i].as_mut().expect("miss slots are live");
        for &g in view.owned() {
            job.out_buf.row_mut(g).fill(prior);
        }
        job.degraded = true;
    }
}

/// The batched, cached inference engine. Create with [`Engine::new`],
/// obtain per-caller [`Client`]s, and stop with [`Engine::shutdown`]
/// (which drains all in-flight requests before returning).
pub struct Engine {
    inner: Arc<EngineInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Engine {
    /// Starts an engine serving `registry` with `cfg.workers` threads.
    pub fn new(registry: Arc<ModelRegistry>, cfg: EngineConfig) -> Self {
        let max_batch = cfg.max_batch.max(1);
        let num_shards = registry.num_shards();
        let caches =
            (0..num_shards).map(|_| Mutex::new(CompletionCache::new(cfg.cache_capacity))).collect();
        let health = (0..num_shards).map(|_| ShardHealth::new(cfg.breaker)).collect();
        let forward_sites = (0..num_shards)
            .map(|k| match cfg.tenant_site {
                Some(t) => failsite::tenant_shard_forward(t, k),
                None => failsite::shard_forward(k),
            })
            .collect();
        let inner = Arc::new(EngineInner {
            queue: BoundedQueue::new(cfg.queue_capacity),
            caches,
            registry,
            counters: Counters::default(),
            cfg: EngineConfig { max_batch, ..cfg },
            inline_state: Mutex::new(WorkerState::new(max_batch)),
            health,
            forward_sites,
            ingest: OnceLock::new(),
        });
        let mut workers = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("gcwc-serve-{w}"))
                .spawn(move || {
                    // Supervisor: a panic that escapes a batch (the
                    // per-shard forwards are already contained, so in
                    // practice a worker-loop failpoint or a bug in the
                    // dispatch plumbing) kills only this iteration.
                    // Jobs held by the dying state answer
                    // `ShardRestarting` through their Drop guard and
                    // the loop restarts with fresh scratch.
                    loop {
                        let mut state = WorkerState::new(inner.cfg.max_batch);
                        let exit = catch_unwind(AssertUnwindSafe(|| {
                            inner.run_worker(&mut state);
                        }));
                        match exit {
                            Ok(()) => break, // queue closed and drained
                            Err(_) => {
                                inner.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
                .expect("spawn worker");
            workers.push(handle);
        }
        Self { inner, workers: Mutex::new(workers) }
    }

    /// Creates an in-process client (one outstanding request at a
    /// time; use several clients for concurrency).
    pub fn client(&self) -> Client {
        let snapshot = self.inner.registry.snapshot();
        Client {
            inner: Arc::clone(&self.inner),
            slot: Arc::new(ResponseSlot::new()),
            spare_inputs: Vec::new(),
            spare_outputs: Vec::new(),
            pending: false,
            in_shape: (snapshot.num_edges(), snapshot.num_buckets()),
            out_shape: (snapshot.num_edges(), snapshot.output_cols()),
            retry: None,
            retry_stash: None,
        }
    }

    /// The registry behind this engine.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.inner.registry
    }

    /// Worker threads serving the queue. The TCP reactor requires at
    /// least one: it never drains the queue inline.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// The `(rows, cols)` every request input must have.
    pub fn input_shape(&self) -> (usize, usize) {
        let s = self.inner.registry.snapshot();
        (s.num_edges(), s.num_buckets())
    }

    /// The `(rows, cols)` of a completed response.
    pub fn output_shape(&self) -> (usize, usize) {
        let s = self.inner.registry.snapshot();
        (s.num_edges(), s.output_cols())
    }

    /// Enqueues a request whose result goes to the reactor's
    /// completion queue through `reply` instead of a blocking receive
    /// — the submission path of the TCP reactor, which must never park
    /// a thread per request. The worker that finishes the job (or, for
    /// a killed worker, the job's Drop guard) pushes the result and
    /// wakes the reactor's `eventfd`.
    ///
    /// Backpressure is synchronous: a full queue returns the buffers
    /// inside [`SubmitError`] *without* sending a reply, so the caller
    /// can answer `Overloaded` inline and reuse the matrices.
    pub(crate) fn submit(
        &self,
        input: Matrix,
        out_buf: Matrix,
        time_of_day: usize,
        day_of_week: usize,
        reply: Reply,
    ) -> Result<(), SubmitError> {
        let job = Job {
            input,
            out_buf,
            time_of_day,
            day_of_week,
            deadline: None,
            degraded: false,
            responder: Responder::Reactor(reply),
            answered: false,
        };
        let reclaim = |mut job: Job, error: ServeError| {
            job.answered = true; // caller reports the error itself
            SubmitError {
                error,
                input: std::mem::replace(&mut job.input, Matrix::zeros(0, 0)),
                out_buf: std::mem::replace(&mut job.out_buf, Matrix::zeros(0, 0)),
            }
        };
        match self.inner.queue.try_push(job) {
            Ok(()) => {
                self.inner.counters.requests.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(PushError::Full(job)) => {
                self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(reclaim(job, ServeError::Overloaded))
            }
            Err(PushError::Closed(job)) => Err(reclaim(job, ServeError::ShuttingDown)),
        }
    }

    /// Drains every currently queued request inline on the calling
    /// thread, batching up to `max_batch` per forward pass. This is
    /// the serving path when `workers == 0` (deterministic batching);
    /// with worker threads running it is unnecessary but harmless.
    ///
    /// Runs under the same supervision as a worker thread: a panic
    /// that escapes a batch answers the in-flight jobs with
    /// `ShardRestarting` and the drain resumes, so the caller never
    /// unwinds and later requests are still served.
    pub fn process_queued(&self) {
        let mut state = self.inner.inline_state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let exit = catch_unwind(AssertUnwindSafe(|| self.inner.drain_queued(&mut state)));
            match exit {
                Ok(()) => break, // queue empty
                Err(_) => {
                    state.batch.clear(); // Drop guards answer the jobs
                    self.inner.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> StatsSnapshot {
        let c = &self.inner.counters;
        let (mut cache_hits, mut cache_misses, mut cache_evictions) = (0u64, 0u64, 0u64);
        for cache in &self.inner.caches {
            let (h, m, e) = cache.lock().unwrap_or_else(PoisonError::into_inner).stats();
            cache_hits += h;
            cache_misses += m;
            cache_evictions += e;
        }
        let ingest = self.inner.ingest.get().map(|i| i.snapshot()).unwrap_or_default();
        let snapshot = self.inner.registry.snapshot();
        StatsSnapshot {
            requests: c.requests.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_evictions,
            generation: snapshot.generation,
            shards: self.inner.caches.len() as u64,
            worker_restarts: c.worker_restarts.load(Ordering::Relaxed),
            breaker_open: c.breaker_open.load(Ordering::Relaxed),
            degraded_responses: c.degraded_responses.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            records_ingested: ingest[0],
            slots_sealed: ingest[1],
            late_records_dropped: ingest[2],
            refreshes_applied: ingest[3],
            refreshes_rolled_back: ingest[4],
            generation_age: ingest[5],
            graph_generation: snapshot.graph_generation,
            // The tenant layer owns this one; Tenant::stats fills it.
            quota_rejected: 0,
        }
    }

    /// Attaches the ingestion pipeline's counters so `stats` responses
    /// surface refresh observability. Idempotent for the same Arc;
    /// only the first attachment wins.
    pub fn attach_ingest(&self, stats: Arc<IngestStats>) {
        let _ = self.inner.ingest.set(stats);
    }

    /// True while shard `k`'s circuit breaker denies regular traffic
    /// (open or half-open with a probe in flight).
    pub fn shard_breaker_open(&self, k: usize) -> bool {
        self.inner.health[k].is_open()
    }

    /// Graceful shutdown: closes the queue (new sends fail with
    /// `ShuttingDown`), lets the workers drain every queued request,
    /// and joins them. Queued requests are *served*, not dropped.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        if self.inner.cfg.workers == 0 {
            self.process_queued();
        }
        let mut workers = self.workers.lock().unwrap();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// In-process handle for submitting completion requests.
///
/// A client owns its matrix buffers: [`Client::input_buffer`] hands
/// out a zeroed input, [`Client::send`] moves it (plus a pooled output
/// buffer) into the queue, and the returned [`Completion`] carries
/// both back — recycle it with [`Client::recycle`] and the next
/// request allocates nothing.
pub struct Client {
    inner: Arc<EngineInner>,
    slot: Arc<ResponseSlot>,
    spare_inputs: Vec<Matrix>,
    spare_outputs: Vec<Matrix>,
    pending: bool,
    in_shape: (usize, usize),
    out_shape: (usize, usize),
    retry: Option<RetryPolicy>,
    /// Copy of the in-flight input while a retry policy is active:
    /// error responses do not carry the request buffers back, so
    /// re-sends rebuild the input from this stash.
    retry_stash: Option<Matrix>,
}

impl Client {
    /// A zeroed `n × m` input buffer (recycled when available).
    pub fn input_buffer(&mut self) -> Matrix {
        match self.spare_inputs.pop() {
            Some(mut m) if m.shape() == self.in_shape => {
                m.as_mut_slice().fill(0.0);
                m
            }
            _ => Matrix::zeros(self.in_shape.0, self.in_shape.1),
        }
    }

    /// A recycled output buffer of any shape (the engine replaces one
    /// whose shape a topology change made stale), or a fresh one.
    fn out_buffer(&mut self) -> Matrix {
        self.spare_outputs
            .pop()
            .unwrap_or_else(|| Matrix::zeros(self.out_shape.0, self.out_shape.1))
    }

    fn make_job(
        &mut self,
        input: Matrix,
        time_of_day: usize,
        day_of_week: usize,
        deadline: Option<Instant>,
    ) -> Job {
        Job {
            input,
            out_buf: self.out_buffer(),
            time_of_day,
            day_of_week,
            deadline,
            degraded: false,
            responder: Responder::Slot(Arc::clone(&self.slot)),
            answered: false,
        }
    }

    fn reclaim(&mut self, mut job: Job) {
        // The job never reached the queue: suppress the Drop guard
        // (there is nothing to answer) and keep the buffers.
        job.answered = true;
        self.spare_inputs.push(std::mem::replace(&mut job.input, Matrix::zeros(0, 0)));
        self.spare_outputs.push(std::mem::replace(&mut job.out_buf, Matrix::zeros(0, 0)));
    }

    /// Enqueues a request without blocking; `Overloaded` on a full
    /// queue (the input buffer is retained for the retry).
    pub fn send(
        &mut self,
        input: Matrix,
        time_of_day: usize,
        day_of_week: usize,
    ) -> Result<(), ServeError> {
        self.send_with_deadline(input, time_of_day, day_of_week, None)
    }

    /// Like [`Client::send`] but with an explicit per-request deadline:
    /// if a worker only reaches the request after `deadline`, it
    /// answers `DeadlineExceeded` instead of computing the completion.
    pub fn send_with_deadline(
        &mut self,
        input: Matrix,
        time_of_day: usize,
        day_of_week: usize,
        deadline: Option<Instant>,
    ) -> Result<(), ServeError> {
        assert!(!self.pending, "one outstanding request per client");
        let job = self.make_job(input, time_of_day, day_of_week, deadline);
        match self.inner.queue.try_push(job) {
            Ok(()) => {
                self.inner.counters.requests.fetch_add(1, Ordering::Relaxed);
                self.pending = true;
                Ok(())
            }
            Err(PushError::Full(job)) => {
                self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                self.reclaim(job);
                Err(ServeError::Overloaded)
            }
            Err(PushError::Closed(job)) => {
                self.reclaim(job);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Enqueues a request, waiting for queue space if necessary.
    pub fn send_blocking(
        &mut self,
        input: Matrix,
        time_of_day: usize,
        day_of_week: usize,
    ) -> Result<(), ServeError> {
        assert!(!self.pending, "one outstanding request per client");
        let job = self.make_job(input, time_of_day, day_of_week, None);
        match self.inner.queue.push(job) {
            Ok(()) => {
                self.inner.counters.requests.fetch_add(1, Ordering::Relaxed);
                self.pending = true;
                Ok(())
            }
            Err(PushError::Full(job)) | Err(PushError::Closed(job)) => {
                self.reclaim(job);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Blocks until the outstanding request is answered.
    ///
    /// # Panics
    /// Panics when no request is outstanding.
    pub fn recv(&mut self) -> Result<Completion, ServeError> {
        assert!(self.pending, "no outstanding request");
        let result = self.slot.wait();
        self.pending = false;
        result
    }

    /// Installs (or clears) the bounded-retry policy honoured by
    /// [`Client::complete`].
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// Convenience: send + receive. With a [`RetryPolicy`] installed
    /// (see [`Client::set_retry_policy`]), retryable failures — queue
    /// full, worker restarting — are retried up to `max_attempts`
    /// times with exponential backoff and deterministic jitter;
    /// `DeadlineExceeded` and every other error return immediately.
    pub fn complete(
        &mut self,
        input: Matrix,
        time_of_day: usize,
        day_of_week: usize,
    ) -> Result<Completion, ServeError> {
        let Some(policy) = self.retry else {
            self.send_blocking(input, time_of_day, day_of_week)?;
            return self.recv();
        };
        // Stash the input first: an error response loses the request
        // buffers, so each re-send rebuilds the input from the stash.
        match &mut self.retry_stash {
            Some(stash) if stash.shape() == input.shape() => stash.copy_from(&input),
            stash => *stash = Some(input.clone()),
        }
        let mut input = input;
        let mut attempt = 1u32;
        loop {
            let result = match self.send(input, time_of_day, day_of_week) {
                Ok(()) => self.recv(),
                Err(e) => Err(e),
            };
            match result {
                Err(e) if RetryPolicy::retryable(&e) && attempt < policy.max_attempts => {
                    self.inner.counters.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                    input = self.input_buffer();
                    input.copy_from(self.retry_stash.as_ref().expect("stashed above"));
                }
                other => return other,
            }
        }
    }

    /// Returns a completion's buffers to this client for reuse.
    pub fn recycle(&mut self, completion: Completion) {
        self.spare_inputs.push(completion.input);
        self.spare_outputs.push(completion.output);
    }

    /// True while a request is in flight.
    pub fn is_pending(&self) -> bool {
        self.pending
    }
}
