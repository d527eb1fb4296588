//! Readiness-driven TCP front end: one reactor thread multiplexes
//! every connection over epoll (see [`crate::sys`]), so a box holds
//! tens of thousands of idle connections with **zero** threads parked
//! per connection — the only threads are the reactor and the engine's
//! own workers.
//!
//! The listener speaks the length-prefixed frame protocol of
//! [`crate::wire`] with request pipelining: many in-flight request ids
//! per connection, responses completing out of order as the batched
//! engine finishes them.
//!
//! Each request is submitted to its tenant's engine with a reply
//! address: an `Arc` of the reactor's shared state plus a `Copy`
//! ticket naming the connection slot, its incarnation, the request id
//! and the tenant. The worker that finishes the request pushes the
//! result onto the shared completion queue and wakes the reactor's
//! `eventfd`, so no thread ever blocks on a response; the reactor
//! empties the queue by swapping it with a spare it keeps, so a warm
//! server allocates nothing per request on either side.
//! Connection state machines buffer partial frames across reads
//! (frames may arrive one byte at a time) and partial responses
//! across writes; per-connection buffers are hard-capped and in-flight
//! requests per connection are bounded — beyond the bound the reactor
//! simply stops reading that socket, pushing backpressure into TCP.
//!
//! **Multi-tenancy.** One reactor serves every tenant of a
//! [`TenantRegistry`] ([`Server::start_tenants`]): every request
//! (`tcomplete`/`tstats`, opcodes 0x05/0x06) names its tenant and
//! routes to that tenant's own engine, queue, caches, and quota.
//! Isolation is structural — tenants share nothing but the reactor
//! thread and the listener, so one tenant's open breakers or exhausted
//! quota cannot alter another tenant's responses. [`Server::start`] is
//! the single-tenant path: it registers its engine as
//! [`TenantId::DEFAULT`] (id 0). A completion answer carries the graph
//! generation its [`Completion`] was computed under, so its rows
//! always match the topology it names, whatever changed while the
//! answer waited to be encoded.

use crate::engine::{Completion, Engine, StatsSnapshot};
use crate::protocol::TokResponse;
use crate::sys::{Poller, Waker};
use crate::tenant::{Tenant, TenantId, TenantRegistry};
use crate::wire::{self, Opcode};
use crate::{failsite, ServeError};
use gcwc_linalg::Matrix;
use std::collections::HashMap;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Receive-buffer hard cap per connection: one maximal frame plus a
/// read burst. A peer that pushes more unparseable bytes than this
/// (slowloris-style) is disconnected with a typed error.
const RBUF_CAP: usize = wire::HEADER_LEN + wire::MAX_FRAME_PAYLOAD + (1 << 20);

/// Send-buffer hard cap: a peer that stops reading while responses
/// accumulate past this is disconnected (slow-reader protection).
const WBUF_CAP: usize = 64 << 20;

/// Reads drained per readiness event before yielding to other
/// connections; leftovers are re-delivered (level-triggered).
const MAX_READS_PER_EVENT: usize = 16;

/// Spare matrices kept for reuse across requests.
const POOL_CAP: usize = 64;

const TOKEN_WAKER: u64 = u64::MAX;
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Front-end tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum concurrent connections; beyond it fresh accepts are
    /// dropped (the peer sees EOF and may retry).
    pub max_conns: usize,
    /// Maximum pipelined in-flight requests per connection; beyond it
    /// the reactor stops reading that socket until responses drain.
    pub max_inflight_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { max_conns: 16_384, max_inflight_per_conn: 1_024 }
    }
}

/// Where a reactor-submitted request is answered.
#[derive(Clone, Copy)]
struct Ticket {
    /// Connection slot the request was read on.
    token: usize,
    /// The slot's incarnation at submit time (see [`Slot`]).
    gen: u64,
    request_id: u64,
    /// Index into the reactor's tenant table (owns the buffer pools
    /// the completion's matrices return to).
    tenant: usize,
}

/// A finished request travelling from an engine worker back to the
/// reactor.
struct Done {
    ticket: Ticket,
    result: Result<Completion, ServeError>,
}

/// The reply address of a reactor-submitted request, carried by its
/// engine job. Cloning the `Arc` and copying the ticket allocate
/// nothing.
pub(crate) struct Reply {
    shared: Arc<Shared>,
    ticket: Ticket,
}

impl Reply {
    /// Queues the result for the reactor and wakes its event loop.
    /// Runs on the engine worker that finished the job (or in the Drop
    /// guard of a job its dying worker abandoned).
    pub(crate) fn send(&self, result: Result<Completion, ServeError>) {
        let mut done = self.shared.done.lock().unwrap_or_else(PoisonError::into_inner);
        done.push(Done { ticket: self.ticket, result });
        drop(done);
        self.shared.waker.wake();
    }
}

/// State shared between the reactor thread, engine workers (through
/// [`Reply`]s), and the [`Server`] handle.
struct Shared {
    running: AtomicBool,
    done: Mutex<Vec<Done>>,
    waker: Waker,
    open_conns: AtomicUsize,
}

/// A running TCP front end over an [`Engine`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `engine` as tenant [`TenantId::DEFAULT`] (no quota) with
    /// the default [`ServerConfig`].
    pub fn start<A: ToSocketAddrs>(engine: Arc<Engine>, addr: A) -> std::io::Result<Self> {
        let tenants = TenantRegistry::new();
        tenants.adopt(TenantId::DEFAULT, engine, None);
        Self::start_tenants(&Arc::new(tenants), addr, ServerConfig::default())
    }

    /// Starts the front end over every tenant registered in `tenants`
    /// — the multi-city entry point. The tenant set is snapshotted at
    /// start: tenants registered later answer
    /// [`ServeError::UnknownTenant`] until a new front end is started.
    pub fn start_tenants<A: ToSocketAddrs>(
        tenants: &Arc<TenantRegistry>,
        addr: A,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        let states: Vec<TenantState> =
            tenants.tenants().into_iter().map(TenantState::new).collect();
        assert!(!states.is_empty(), "the front end needs at least one registered tenant");
        for s in &states {
            assert!(
                s.tenant.engine().worker_count() > 0,
                "tenant {}: the reactor front end needs engine workers to serve completions",
                s.tenant.id()
            );
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(waker.fd(), TOKEN_WAKER, true, false)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;

        let shared = Arc::new(Shared {
            running: AtomicBool::new(true),
            done: Mutex::new(Vec::new()),
            waker,
            open_conns: AtomicUsize::new(0),
        });
        let by_id: HashMap<u64, usize> =
            states.iter().enumerate().map(|(i, s)| (s.tenant.id().0, i)).collect();
        let mut reactor = Reactor {
            shared: Arc::clone(&shared),
            poller,
            listener,
            cfg,
            slots: Vec::new(),
            free: Vec::new(),
            tenants: states,
            by_id,
            scratch: vec![0u8; 64 << 10],
            done_spare: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name("gcwc-serve-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn reactor");

        Ok(Self { addr, shared, reactor: Some(handle) })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently held by the reactor.
    pub fn open_connections(&self) -> usize {
        self.shared.open_conns.load(Ordering::Acquire)
    }

    /// Stops the reactor, closing every connection, and joins it.
    /// Does **not** shut the engine down — call
    /// [`crate::Engine::shutdown`] after this for a full drain.
    pub fn stop(&mut self) {
        self.shared.running.store(false, Ordering::Release);
        self.shared.waker.wake();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Consumed prefix of `rbuf` (compacted after each process pass).
    rstart: usize,
    wbuf: Vec<u8>,
    /// Written prefix of `wbuf`.
    wstart: usize,
    /// Requests submitted to the engine and not yet answered.
    in_flight: usize,
    /// Read interest withdrawn (in-flight cap reached).
    gated: bool,
    /// Write interest registered (partial response pending).
    want_write: bool,
    /// No further requests are parsed (peer EOF or `quit`); close
    /// once in-flight responses are delivered and flushed.
    draining: bool,
    /// Framing is broken; close as soon as `wbuf` flushes, without
    /// waiting for in-flight responses.
    fatal: bool,
    /// Tear down now (I/O error, failpoint, slow reader).
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            rstart: 0,
            wbuf: Vec::new(),
            wstart: 0,
            in_flight: 0,
            gated: false,
            want_write: false,
            draining: false,
            fatal: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.wstart >= self.wbuf.len()
    }
}

/// Slab entry: the generation guards completions against fd/token
/// reuse — a response for a closed connection whose slot was handed
/// to a newcomer must be dropped, not delivered.
struct Slot {
    gen: u64,
    conn: Option<Conn>,
}

/// Per-tenant reactor state: the tenant handle plus that tenant's
/// matrix pools (pooling is per tenant because every tenant's graph —
/// and therefore its request/response shapes — differs).
struct TenantState {
    tenant: Arc<Tenant>,
    in_shape: (usize, usize),
    out_shape: (usize, usize),
    spare_inputs: Vec<Matrix>,
    spare_outputs: Vec<Matrix>,
}

impl TenantState {
    fn new(tenant: Arc<Tenant>) -> Self {
        let (in_shape, out_shape) = (tenant.engine().input_shape(), tenant.engine().output_shape());
        Self { tenant, in_shape, out_shape, spare_inputs: Vec::new(), spare_outputs: Vec::new() }
    }

    /// Re-reads the engine's shapes after a topology swap so the warm
    /// path goes back to pooled (allocation-free) buffers on the new
    /// shape; stale-shaped spares are dropped.
    fn refresh_shapes(&mut self) {
        let cur = self.tenant.engine().input_shape();
        if cur != self.in_shape {
            self.in_shape = cur;
            self.out_shape = self.tenant.engine().output_shape();
            self.spare_inputs.clear();
            self.spare_outputs.clear();
        }
    }
}

struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    cfg: ServerConfig,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Snapshot of the registered tenants at server start.
    tenants: Vec<TenantState>,
    /// Tenant id → index into `tenants`.
    by_id: HashMap<u64, usize>,
    scratch: Vec<u8>,
    /// Swapped with `Shared::done` on each drain, so both keep their
    /// capacity and a warm push never reallocates.
    done_spare: Vec<Done>,
}

/// Submission tail of a `tcomplete` request: pooled buffers, input
/// hardening, engine submit, inline error frame on refusal. Takes the
/// connection's fields individually because the decoded request still
/// borrows its receive buffer.
#[allow(clippy::too_many_arguments)]
fn submit_decoded(
    state: &mut TenantState,
    state_idx: usize,
    in_flight: &mut usize,
    wbuf: &mut Vec<u8>,
    shared: &Arc<Shared>,
    idx: usize,
    gen: u64,
    request_id: u64,
    req: &wire::CompleteRequest<'_>,
) {
    if (req.rows, req.cols) != state.in_shape {
        state.refresh_shapes();
    }
    let mut input = if (req.rows, req.cols) == state.in_shape {
        state.spare_inputs.pop().unwrap_or_else(|| Matrix::zeros(req.rows, req.cols))
    } else {
        // Wrong shape for the served model: let the
        // engine answer the typed BadRequest.
        Matrix::zeros(req.rows, req.cols)
    };
    match wire::fill_matrix(req, &mut input) {
        Ok(()) => {
            let out_buf = state
                .spare_outputs
                .pop()
                .unwrap_or_else(|| Matrix::zeros(state.out_shape.0, state.out_shape.1));
            let reply = Reply {
                shared: Arc::clone(shared),
                ticket: Ticket { token: idx, gen, request_id, tenant: state_idx },
            };
            match state.tenant.engine().submit(
                input,
                out_buf,
                req.time_of_day,
                req.day_of_week,
                reply,
            ) {
                Ok(()) => *in_flight += 1,
                Err(refused) => {
                    // Backpressure (or shutdown):
                    // answer inline, reuse buffers.
                    recycle(&mut state.spare_inputs, refused.input, state.in_shape);
                    recycle(&mut state.spare_outputs, refused.out_buf, state.out_shape);
                    wire::encode_err(wbuf, request_id, &refused.error);
                }
            }
        }
        Err(e) => {
            recycle(&mut state.spare_inputs, input, state.in_shape);
            wire::encode_err(wbuf, request_id, &e.into());
        }
    }
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Vec::new();
        while self.shared.running.load(Ordering::Acquire) {
            if self.poller.wait(&mut events, -1).is_err() {
                break;
            }
            // Failpoint: a triggered (or panicking) tick drops this
            // batch of events. Registration is level-triggered, so
            // every skipped readiness — including the waker, which
            // stays readable until drained — is re-delivered by the
            // next wait: a lost tick delays work, never loses it.
            let tick = catch_unwind(AssertUnwindSafe(|| {
                gcwc_failpoint::triggered(failsite::REACTOR_TICK)
            }));
            if !matches!(tick, Ok(false)) {
                continue;
            }
            for i in 0..events.len() {
                let ev = events[i];
                match ev.token {
                    TOKEN_WAKER => {
                        self.shared.waker.drain();
                        self.drain_done();
                    }
                    TOKEN_LISTENER => self.accept(),
                    token => self.conn_event(token as usize, ev.readable, ev.writable, ev.hangup),
                }
            }
        }
        // Teardown: close every connection (peers see EOF). In-flight
        // requests are still answered onto the queue; `drain_done`
        // never runs again, but the results are only dropped, never
        // leaked.
        for idx in 0..self.slots.len() {
            if self.slots[idx].conn.is_some() {
                self.close_conn(idx);
            }
        }
    }

    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Failpoint: a triggered accept drops the fresh
                    // connection (the peer sees EOF and may
                    // reconnect), as an fd-starved accept would.
                    if gcwc_failpoint::triggered(failsite::ACCEPT) {
                        continue;
                    }
                    if self.free.is_empty() && self.slots.len() >= self.cfg.max_conns {
                        continue; // at capacity: drop (peer sees EOF)
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(Slot { gen: 0, conn: None });
                        self.slots.len() - 1
                    });
                    if self.poller.add(stream.as_raw_fd(), idx as u64, true, false).is_err() {
                        self.free.push(idx);
                        continue;
                    }
                    self.slots[idx].conn = Some(Conn::new(stream));
                    self.shared.open_conns.fetch_add(1, Ordering::AcqRel);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, idx: usize, readable: bool, writable: bool, hangup: bool) {
        if self.slots.get(idx).is_none_or(|s| s.conn.is_none()) {
            return; // stale event for a just-closed connection
        }
        if writable {
            self.flush(idx);
        }
        if readable || hangup {
            self.read_conn(idx);
            self.process(idx);
            self.flush(idx);
        }
        if hangup {
            if let Some(conn) = self.slots[idx].conn.as_mut() {
                // Error/hangup: any final bytes were drained above;
                // nothing more will arrive or be deliverable.
                if conn.in_flight == 0 || conn.flushed() {
                    conn.dead = true;
                }
            }
        }
        self.maybe_close(idx);
    }

    /// Drains the socket into the connection's receive buffer
    /// (bounded per event for fairness; the cap disconnects peers
    /// that buffer unparseable bytes without limit).
    fn read_conn(&mut self, idx: usize) {
        let Some(conn) = self.slots[idx].conn.as_mut() else { return };
        if conn.dead || conn.gated || conn.draining {
            return;
        }
        // Failpoint: a triggered read tears the connection down
        // mid-session, as a peer reset or fd exhaustion would.
        if gcwc_failpoint::triggered(failsite::CONN_READ) {
            conn.dead = true;
            return;
        }
        for _ in 0..MAX_READS_PER_EVENT {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.draining = true; // peer EOF: serve what's in flight, then close
                    break;
                }
                Ok(n) => {
                    if conn.rbuf.len() - conn.rstart + n > RBUF_CAP {
                        conn.fatal = true;
                        wire::encode_err(
                            &mut conn.wbuf,
                            0,
                            &ServeError::Protocol("receive buffer limit exceeded".into()),
                        );
                        break;
                    }
                    conn.rbuf.extend_from_slice(&self.scratch[..n]);
                    if n < self.scratch.len() {
                        break; // socket drained
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    /// Parses and dispatches complete frames from the receive buffer.
    /// Torn frames (even one byte at a time) simply wait for more
    /// bytes; payload-level errors answer the offending request id and
    /// continue; header-level errors poison the stream and close the
    /// connection after a best-effort error frame.
    fn process(&mut self, idx: usize) {
        let Reactor { slots, poller, shared, cfg, tenants, by_id, .. } = self;
        let gen = slots[idx].gen;
        let Some(conn) = slots[idx].conn.as_mut() else { return };
        loop {
            if conn.dead || conn.fatal || conn.draining {
                break;
            }
            if conn.in_flight >= cfg.max_inflight_per_conn {
                // Pipelining bound reached: stop reading (and parsing)
                // until responses drain — backpressure flows into TCP.
                if !conn.gated {
                    conn.gated = true;
                    let _ =
                        poller.modify(conn.stream.as_raw_fd(), idx as u64, false, conn.want_write);
                }
                break;
            }
            let avail = &conn.rbuf[conn.rstart..];
            let header = match wire::decode_header(avail) {
                Ok(None) => break, // partial header: wait for bytes
                Ok(Some(h)) => h,
                Err(e) => {
                    // Framing can no longer be trusted: answer id 0
                    // and close once the error frame flushes.
                    wire::encode_err(&mut conn.wbuf, 0, &e.into());
                    conn.fatal = true;
                    break;
                }
            };
            let total = wire::HEADER_LEN + header.payload_len;
            if avail.len() < total {
                break; // torn frame: wait for the rest
            }
            let payload = &conn.rbuf[conn.rstart + wire::HEADER_LEN..conn.rstart + total];
            match header.opcode {
                Opcode::TComplete => match wire::decode_tcomplete_request(payload) {
                    Ok((tid, req)) => match by_id.get(&tid).copied() {
                        Some(ti) => match tenants[ti].tenant.admit() {
                            Ok(()) => submit_decoded(
                                &mut tenants[ti],
                                ti,
                                &mut conn.in_flight,
                                &mut conn.wbuf,
                                shared,
                                idx,
                                gen,
                                header.request_id,
                                &req,
                            ),
                            Err(e) => wire::encode_err(&mut conn.wbuf, header.request_id, &e),
                        },
                        None => wire::encode_err(
                            &mut conn.wbuf,
                            header.request_id,
                            &ServeError::UnknownTenant(tid),
                        ),
                    },
                    Err(e) => wire::encode_err(&mut conn.wbuf, header.request_id, &e.into()),
                },
                Opcode::TStats => match wire::decode_tstats_request(payload) {
                    Ok(tid) => match by_id.get(&tid).copied() {
                        Some(ti) => wire::encode_tstats(
                            &mut conn.wbuf,
                            header.request_id,
                            tid,
                            &tenants[ti].tenant.stats(),
                        ),
                        None => wire::encode_err(
                            &mut conn.wbuf,
                            header.request_id,
                            &ServeError::UnknownTenant(tid),
                        ),
                    },
                    Err(e) => wire::encode_err(&mut conn.wbuf, header.request_id, &e.into()),
                },
                Opcode::Ping => wire::encode_empty(&mut conn.wbuf, Opcode::Pong, header.request_id),
                Opcode::Quit => {
                    wire::encode_empty(&mut conn.wbuf, Opcode::Bye, header.request_id);
                    conn.draining = true;
                }
                _ => {
                    // A response opcode is not a request.
                    wire::encode_err(
                        &mut conn.wbuf,
                        header.request_id,
                        &ServeError::Protocol(format!(
                            "unexpected response opcode {:#04x} in a request",
                            header.opcode as u8
                        )),
                    );
                }
            }
            conn.rstart += total;
        }
        // Compact the consumed prefix so the buffer never grows past
        // its cap from already-handled bytes.
        if conn.rstart > 0 {
            conn.rbuf.drain(..conn.rstart);
            conn.rstart = 0;
        }
    }

    /// Delivers finished engine requests back onto their connections.
    fn drain_done(&mut self) {
        let mut done = std::mem::take(&mut self.done_spare);
        std::mem::swap(
            &mut *self.shared.done.lock().unwrap_or_else(PoisonError::into_inner),
            &mut done,
        );
        for d in done.drain(..) {
            self.finish(d);
        }
        self.done_spare = done;
    }

    fn finish(&mut self, Done { ticket, result }: Done) {
        let alive =
            self.slots.get(ticket.token).is_some_and(|s| s.gen == ticket.gen && s.conn.is_some());
        let state = &mut self.tenants[ticket.tenant];
        if !alive {
            // The connection closed while the request was in flight:
            // keep the buffers, drop the result.
            if let Ok(c) = result {
                recycle(&mut state.spare_inputs, c.input, state.in_shape);
                recycle(&mut state.spare_outputs, c.output, state.out_shape);
            }
            return;
        }
        let idx = ticket.token;
        let conn = self.slots[idx].conn.as_mut().expect("checked alive");
        conn.in_flight -= 1;
        match result {
            Ok(c) => {
                // The graph generation is the one the completion was
                // computed under, not the tenant's current one: a delta
                // applied while the answer waited does not relabel it.
                wire::encode_tcomplete_ok(
                    &mut conn.wbuf,
                    ticket.request_id,
                    state.tenant.id().0,
                    c.graph_generation,
                    &c.output,
                    c.cache_hit,
                    c.degraded,
                    c.generation,
                    c.shards,
                );
                recycle(&mut state.spare_inputs, c.input, state.in_shape);
                recycle(&mut state.spare_outputs, c.output, state.out_shape);
            }
            Err(e) => wire::encode_err(&mut conn.wbuf, ticket.request_id, &e),
        }
        // A response freed pipeline room: resume reading if gated,
        // and parse any requests already buffered while waiting.
        if conn.gated && conn.in_flight < self.cfg.max_inflight_per_conn {
            conn.gated = false;
            let _ = self.poller.modify(conn.stream.as_raw_fd(), idx as u64, true, conn.want_write);
            self.process(idx);
        }
        self.flush(idx);
        self.maybe_close(idx);
    }

    /// Writes as much of the send buffer as the socket accepts,
    /// keeping the remainder and registering write interest for it.
    fn flush(&mut self, idx: usize) {
        let Some(conn) = self.slots[idx].conn.as_mut() else { return };
        if conn.dead {
            return;
        }
        // Failpoint: a triggered write drops the connection with the
        // response unsent (the client observes EOF, not a reply).
        if !conn.flushed() && gcwc_failpoint::triggered(failsite::WRITE) {
            conn.dead = true;
            return;
        }
        while conn.wstart < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => conn.wstart += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.flushed() {
            conn.wbuf.clear();
            conn.wstart = 0;
            if conn.want_write {
                conn.want_write = false;
                let _ = self.poller.modify(conn.stream.as_raw_fd(), idx as u64, !conn.gated, false);
            }
        } else {
            if conn.wstart > (64 << 10) {
                conn.wbuf.drain(..conn.wstart);
                conn.wstart = 0;
            }
            if conn.wbuf.len() - conn.wstart > WBUF_CAP {
                conn.dead = true; // slow reader: unbounded backlog
                return;
            }
            if !conn.want_write {
                conn.want_write = true;
                let _ = self.poller.modify(conn.stream.as_raw_fd(), idx as u64, !conn.gated, true);
            }
        }
    }

    fn maybe_close(&mut self, idx: usize) {
        let close = match self.slots.get(idx).and_then(|s| s.conn.as_ref()) {
            Some(conn) => {
                conn.dead
                    || (conn.fatal && conn.flushed())
                    || (conn.draining && conn.in_flight == 0 && conn.flushed())
            }
            None => false,
        };
        if close {
            self.close_conn(idx);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.slots[idx].conn.take() else { return };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        self.slots[idx].gen += 1;
        self.free.push(idx);
        self.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
        // Dropping `conn` closes the socket.
    }
}

/// Returns a matrix to a bounded spare pool when its shape still
/// matches the served model (wrong-shape request buffers are simply
/// dropped).
fn recycle(pool: &mut Vec<Matrix>, m: Matrix, shape: (usize, usize)) {
    if pool.len() < POOL_CAP && m.shape() == shape {
        pool.push(m);
    }
}

/// Blocking TCP client of the wire protocol, with optional
/// pipelining: [`BinClient::send_tcomplete`] queues many requests on
/// one connection, [`BinClient::recv_response`] returns responses as
/// the server finishes them (any order, matched by id).
pub struct BinClient {
    stream: TcpStream,
    sbuf: Vec<u8>,
    payload: Vec<u8>,
    next_id: u64,
}

impl BinClient {
    /// Connects to a running [`Server`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, sbuf: Vec::new(), payload: Vec::new(), next_id: 1 })
    }

    /// Encodes one request frame with the next request id, sends it,
    /// and returns the id.
    fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>, u64)) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.sbuf.clear();
        encode(&mut self.sbuf, id);
        self.stream.write_all(&self.sbuf)?;
        Ok(id)
    }

    fn read_frame(&mut self) -> Result<wire::FrameHeader, ServeError> {
        let mut head = [0u8; wire::HEADER_LEN];
        self.stream.read_exact(&mut head)?;
        let header = wire::decode_header(&head)?.expect("full header read");
        self.payload.resize(header.payload_len, 0);
        self.stream.read_exact(&mut self.payload)?;
        Ok(header)
    }

    /// Reads the answer to request `id`: `Ok` on `want`, the server's
    /// typed error on an error frame.
    fn answer(&mut self, id: u64, want: Opcode) -> Result<(), ServeError> {
        let header = self.read_frame()?;
        if header.request_id != id {
            return Err(ServeError::Protocol(format!(
                "response id {} does not match request id {id} (pipelined sends must use \
                 recv_response)",
                header.request_id
            )));
        }
        match header.opcode {
            op if op == want => Ok(()),
            Opcode::RespErr => Err(wire::decode_err(&self.payload)?),
            other => Err(ServeError::Protocol(format!(
                "unexpected response opcode {:#04x}",
                other as u8
            ))),
        }
    }

    /// Sends a completion request for `tenant` without waiting;
    /// returns the frame's request id for matching the pipelined
    /// response.
    pub fn send_tcomplete(
        &mut self,
        tenant: u64,
        input: &Matrix,
        time_of_day: usize,
        day_of_week: usize,
    ) -> Result<u64, ServeError> {
        self.send(|buf, id| {
            wire::encode_tcomplete_request(buf, id, tenant, time_of_day, day_of_week, input)
        })
    }

    /// Receives the next completion answer: `(request id, result)`.
    /// Responses to pipelined requests may arrive in any order.
    pub fn recv_response(&mut self) -> Result<(u64, Result<TokResponse, ServeError>), ServeError> {
        let header = self.read_frame()?;
        match header.opcode {
            Opcode::RespTComplete => {
                Ok((header.request_id, Ok(wire::decode_tcomplete_ok(&self.payload)?)))
            }
            Opcode::RespErr => Ok((header.request_id, Err(wire::decode_err(&self.payload)?))),
            other => Err(ServeError::Protocol(format!(
                "unexpected response opcode {:#04x}",
                other as u8
            ))),
        }
    }

    /// Sends a completion request for `tenant` and waits for its
    /// answer (including the graph generation it was computed under).
    pub fn tcomplete(
        &mut self,
        tenant: u64,
        input: &Matrix,
        time_of_day: usize,
        day_of_week: usize,
    ) -> Result<TokResponse, ServeError> {
        let id = self.send_tcomplete(tenant, input, time_of_day, day_of_week)?;
        self.answer(id, Opcode::RespTComplete)?;
        Ok(wire::decode_tcomplete_ok(&self.payload)?)
    }

    /// Fetches one tenant's counters, matched by name.
    pub fn tstats(&mut self, tenant: u64) -> Result<StatsSnapshot, ServeError> {
        let id = self.send(|buf, id| wire::encode_tstats_request(buf, id, tenant))?;
        self.answer(id, Opcode::RespTStats)?;
        let (tid, snap) = wire::decode_tstats(&self.payload)?;
        if tid != tenant {
            return Err(ServeError::Protocol(format!(
                "tstats answered tenant {tid}, asked {tenant}"
            )));
        }
        Ok(snap)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<bool, ServeError> {
        let id = self.send(|buf, id| wire::encode_empty(buf, Opcode::Ping, id))?;
        let header = self.read_frame()?;
        Ok(header.opcode == Opcode::Pong && header.request_id == id)
    }

    /// Asks the server to close this connection (after pipelined
    /// responses drain).
    pub fn quit(&mut self) -> Result<(), ServeError> {
        self.send(|buf, id| wire::encode_empty(buf, Opcode::Quit, id))?;
        loop {
            // Pipelined responses may still be queued ahead of bye.
            let header = self.read_frame()?;
            if header.opcode == Opcode::Bye {
                return Ok(());
            }
        }
    }
}
