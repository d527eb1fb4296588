//! End-to-end tests of the binary (length-prefixed) front end: the
//! wire contract is *bit-exactness* — raw little-endian f64 bit
//! patterns — so every response must be bit-identical to direct
//! in-process inference. On top of that: pipelining (many in-flight
//! ids on one connection) must equal sequential requests bitwise,
//! torn/fragmented frames must survive byte-at-a-time delivery,
//! malformed frames must answer typed errors (payload-level errors
//! keep the session; header-level errors, legacy opcodes and other
//! protocol versions close it), completion p99 must stay under 500 ms
//! in process and over the wire, connect-to-first-response latency
//! must be far below the old 50 ms poll-loop worst case, and ten
//! thousand idle connections must not grow the process thread count
//! at all.

use gcwc::CompletionModel;
use gcwc::{build_samples, AGcwcModel, InferWorkspace, ModelConfig, TaskKind, TrainSample};
use gcwc_linalg::Matrix;
use gcwc_serve::{
    derive_row_flags, wire, AnyModel, BinClient, Engine, EngineConfig, ModelRegistry, ServeError,
    Server, TenantId,
};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io::{Read as _, Write as _};
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
        let dir = std::env::temp_dir().join("gcwc_binary_serve_tests");
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

fn direct_completion(input: &Matrix, time_of_day: usize, day_of_week: usize) -> Matrix {
    let mut flags = Vec::new();
    derive_row_flags(input, &mut flags);
    let mut ws = InferWorkspace::new();
    fixture().model.infer(&mut ws, input, time_of_day, day_of_week, &flags)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The tenant [`Server::start`] serves its engine as.
const TENANT: u64 = TenantId::DEFAULT.0;

fn start_server() -> (Arc<Engine>, Server) {
    let engine = Arc::new(Engine::new(make_registry(), EngineConfig::default()));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    (engine, server)
}

fn os_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Binary responses are bit-identical to direct inference, down to
    /// the last mantissa bit.
    #[test]
    fn binary_and_direct_agree_bitwise(picks in collection::vec(0usize..12, 1..4)) {
        let f = fixture();
        let (engine, mut server) = start_server();
        let mut bin = BinClient::connect(server.addr()).unwrap();
        for &pick in &picks {
            let s = &f.samples[pick];
            let want = direct_completion(&s.input, s.context.time_of_day, s.context.day_of_week);
            let via_bin = bin
                .tcomplete(TENANT, &s.input, s.context.time_of_day, s.context.day_of_week)
                .unwrap();
            prop_assert_eq!(via_bin.tenant, TENANT);
            prop_assert_eq!(
                &bits(&want),
                &bits(&via_bin.body.output),
                "binary vs direct, pick {}",
                pick
            );
        }
        server.stop();
        engine.shutdown();
    }

    /// Pure codec round-trip: any finite bit pattern crosses the wire
    /// unchanged (encode → frame parse → decode → fill is `to_bits`
    /// identity), for requests and responses alike.
    #[test]
    fn wire_roundtrip_is_bit_identity(
        raw in collection::vec(0u64..u64::MAX, 1..64),
        rows in 1usize..8,
    ) {
        // Arbitrary bit patterns (including subnormals and negative
        // zero) exercise the to_bits contract; non-finite patterns are
        // rejected by input hardening, so map them to 0.
        let vals: Vec<f64> = raw
            .iter()
            .map(|&b| {
                let v = f64::from_bits(b);
                if v.is_finite() {
                    v
                } else {
                    0.0
                }
            })
            .collect();
        let cols = vals.len().div_ceil(rows);
        let mut padded = vals;
        padded.resize(rows * cols, 1.0);
        // Rows with zero mass and a negative entry are rejected by
        // input hardening (by design); make every row carry mass.
        for r in 0..rows {
            let row = &mut padded[r * cols..(r + 1) * cols];
            if row.iter().sum::<f64>() == 0.0 && row.iter().any(|&v| v < 0.0) {
                row[0] = 1.0;
            }
        }
        let m = Matrix::from_vec(rows, cols, padded);

        let mut frame = Vec::new();
        wire::encode_tcomplete_request(&mut frame, 9, TENANT, 3, 2, &m);
        let header = wire::decode_header(&frame).unwrap().expect("full header");
        prop_assert_eq!(header.request_id, 9);
        let (_, req) = wire::decode_tcomplete_request(&frame[wire::HEADER_LEN..]).unwrap();
        let mut out = Matrix::zeros(rows, cols);
        wire::fill_matrix(&req, &mut out).unwrap();
        prop_assert_eq!(&bits(&m), &bits(&out), "request round-trip");

        let mut resp = Vec::new();
        wire::encode_tcomplete_ok(&mut resp, 9, TENANT, 0, &m, false, false, 1, 1);
        let ok = wire::decode_tcomplete_ok(&resp[wire::HEADER_LEN..]).unwrap();
        prop_assert_eq!(&bits(&m), &bits(&ok.body.output), "response round-trip");
    }
}

/// Nearest-rank 99th percentile of `samples`.
fn p99(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[((samples.len() - 1) * 99).div_ceil(100)]
}

/// N requests pipelined on one connection produce exactly the same
/// bits as the same N sent sequentially, and every request id is
/// answered exactly once. Sent one at a time, the N completions keep
/// the same bits in process and over the wire, and their p99 latency
/// stays under 500 ms on both paths: the tiny model answers in
/// milliseconds, so only a serving-stack pathology (deadlock, missed
/// wake-up, busy loop) can break the bound.
#[test]
fn pipelined_equals_sequential_bitwise() {
    const P99_BOUND: Duration = Duration::from_millis(500);
    let f = fixture();
    let picks: Vec<usize> = (0..12).collect();

    // In process, on an engine of its own so the wire requests below
    // still miss the cache.
    let local = Engine::new(make_registry(), EngineConfig::default());
    let mut client = local.client();
    let mut in_process_latency = Vec::new();
    let in_process: Vec<Vec<u64>> = picks
        .iter()
        .map(|&p| {
            let s = &f.samples[p];
            let mut input = client.input_buffer();
            input.copy_from(&s.input);
            let t = Instant::now();
            let completion =
                client.complete(input, s.context.time_of_day, s.context.day_of_week).unwrap();
            in_process_latency.push(t.elapsed());
            let out = bits(&completion.output);
            client.recycle(completion);
            out
        })
        .collect();
    local.shutdown();

    let (engine, mut server) = start_server();
    let mut seq = BinClient::connect(server.addr()).unwrap();
    let mut wire_latency = Vec::new();
    let sequential: Vec<Vec<u64>> = picks
        .iter()
        .map(|&p| {
            let s = &f.samples[p];
            let t = Instant::now();
            let resp = seq
                .tcomplete(TENANT, &s.input, s.context.time_of_day, s.context.day_of_week)
                .unwrap();
            wire_latency.push(t.elapsed());
            bits(&resp.body.output)
        })
        .collect();
    assert_eq!(in_process, sequential, "wire answers must carry the in-process bits");
    for (path, latency) in [("in-process", in_process_latency), ("wire", wire_latency)] {
        let p99 = p99(latency);
        assert!(p99 < P99_BOUND, "{path} completion p99 {p99:?} exceeds {P99_BOUND:?}");
    }

    let mut pipe = BinClient::connect(server.addr()).unwrap();
    let mut id_to_pick = std::collections::HashMap::new();
    for &p in &picks {
        let s = &f.samples[p];
        let id = pipe
            .send_tcomplete(TENANT, &s.input, s.context.time_of_day, s.context.day_of_week)
            .unwrap();
        id_to_pick.insert(id, p);
    }
    let mut answered = BTreeSet::new();
    for _ in 0..picks.len() {
        let (id, result) = pipe.recv_response().unwrap();
        let p = *id_to_pick.get(&id).expect("response id was sent");
        assert!(answered.insert(id), "request id {id} answered twice");
        let resp = result.expect("pipelined completion");
        assert_eq!(
            sequential[picks.iter().position(|&x| x == p).unwrap()],
            bits(&resp.body.output),
            "pipelined response for pick {p} diverged from sequential"
        );
    }
    assert_eq!(answered.len(), picks.len(), "every pipelined request answered exactly once");

    server.stop();
    engine.shutdown();
}

/// A frame delivered one byte at a time (with pauses) must be
/// reassembled exactly: partial headers and torn payloads wait for
/// more bytes instead of erroring or dropping state.
#[test]
fn fragmented_one_byte_writes_survive() {
    let f = fixture();
    let (engine, mut server) = start_server();
    let s = &f.samples[0];
    let want = direct_completion(&s.input, s.context.time_of_day, s.context.day_of_week);

    let mut frame = Vec::new();
    wire::encode_tcomplete_request(
        &mut frame,
        77,
        TENANT,
        s.context.time_of_day,
        s.context.day_of_week,
        &s.input,
    );

    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // Header and the payload head: one byte per write, with delays —
    // the frame crosses dozens of reactor wake-ups.
    for chunk in frame[..64.min(frame.len())].iter() {
        stream.write_all(&[*chunk]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    // The matrix body: irregular small chunks.
    for chunk in frame[64.min(frame.len())..].chunks(13) {
        stream.write_all(chunk).unwrap();
    }
    stream.flush().unwrap();

    let mut head = [0u8; wire::HEADER_LEN];
    stream.read_exact(&mut head).unwrap();
    let header = wire::decode_header(&head).unwrap().expect("full header");
    assert_eq!(header.request_id, 77);
    let mut payload = vec![0u8; header.payload_len];
    stream.read_exact(&mut payload).unwrap();
    let resp = wire::decode_tcomplete_ok(&payload).unwrap();
    assert_eq!(bits(&want), bits(&resp.body.output), "fragmented request must answer bit-exactly");

    server.stop();
    engine.shutdown();
}

/// Garbage magic, an opcode this protocol does not have, and another
/// protocol version are header-level (fatal) errors: the server answers
/// one typed error frame and closes the connection — framing can no
/// longer be trusted.
#[test]
fn garbage_magic_answers_typed_error_and_closes() {
    let f = fixture();
    let s = &f.samples[0];
    let mut tcomplete = Vec::new();
    wire::encode_tcomplete_request(
        &mut tcomplete,
        3,
        TENANT,
        s.context.time_of_day,
        s.context.day_of_week,
        &s.input,
    );
    // The tenant-less completion of version 1: opcode 0x01, the
    // tcomplete payload without its tenant id.
    let mut legacy = tcomplete.clone();
    legacy[5] = 0x01;
    legacy.drain(wire::HEADER_LEN..wire::HEADER_LEN + 8);
    legacy[16..20]
        .copy_from_slice(&((tcomplete.len() - wire::HEADER_LEN - 8) as u32).to_le_bytes());
    // A well-formed request under a version-1 header.
    let mut version_1 = tcomplete;
    version_1[4] = 1;

    let (engine, mut server) = start_server();
    for (bytes, why) in [
        (b"GET / HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(), "bad frame magic"),
        (legacy, "unknown opcode 0x01"),
        (version_1, "unsupported protocol version 1"),
    ] {
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&bytes).unwrap();

        let mut head = [0u8; wire::HEADER_LEN];
        stream.read_exact(&mut head).unwrap();
        let header = wire::decode_header(&head).unwrap().expect("full header");
        assert_eq!(header.opcode, wire::Opcode::RespErr);
        let mut payload = vec![0u8; header.payload_len];
        stream.read_exact(&mut payload).unwrap();
        let err = wire::decode_err(&payload).unwrap();
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains(why)),
            "want {why:?}, got {err:?}"
        );
        // ...and the stream is closed.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "no bytes after the fatal error frame ({why})");
    }

    server.stop();
    engine.shutdown();
}

/// A header declaring a payload larger than any admissible frame is
/// refused before buffering it (a 4 GiB declared length must not
/// reserve 4 GiB), with a typed error and a close.
#[test]
fn oversized_declared_length_is_refused_and_closed() {
    let (engine, mut server) = start_server();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut head = Vec::new();
    head.extend_from_slice(&wire::MAGIC);
    head.push(wire::VERSION);
    head.push(wire::Opcode::TComplete as u8);
    head.extend_from_slice(&[0, 0]);
    head.extend_from_slice(&5u64.to_le_bytes());
    head.extend_from_slice(&u32::MAX.to_le_bytes()); // ~4 GiB payload
    stream.write_all(&head).unwrap();

    let mut resp_head = [0u8; wire::HEADER_LEN];
    stream.read_exact(&mut resp_head).unwrap();
    let header = wire::decode_header(&resp_head).unwrap().expect("full header");
    assert_eq!(header.opcode, wire::Opcode::RespErr);
    let mut payload = vec![0u8; header.payload_len];
    stream.read_exact(&mut payload).unwrap();
    let err = wire::decode_err(&payload).unwrap();
    assert!(matches!(err, ServeError::Protocol(_)), "got {err:?}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must close after an oversized declaration");

    server.stop();
    engine.shutdown();
}

/// Payload-level errors (non-finite entries, bad shapes) are scoped to
/// their request id: the server answers a typed error and the same
/// session keeps serving.
#[test]
fn payload_errors_keep_the_session_alive() {
    let f = fixture();
    let (engine, mut server) = start_server();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // A NaN smuggled in the bit patterns must be rejected.
    let (rows, cols) = engine.input_shape();
    let mut poisoned = Matrix::zeros(rows, cols);
    poisoned.as_mut_slice().fill(1.0);
    poisoned.as_mut_slice()[3] = f64::NAN;
    let mut frame = Vec::new();
    wire::encode_tcomplete_request(&mut frame, 41, TENANT, 0, 0, &poisoned);
    stream.write_all(&frame).unwrap();

    let read_frame = |stream: &mut std::net::TcpStream| {
        let mut head = [0u8; wire::HEADER_LEN];
        stream.read_exact(&mut head).unwrap();
        let header = wire::decode_header(&head).unwrap().expect("full header");
        let mut payload = vec![0u8; header.payload_len];
        stream.read_exact(&mut payload).unwrap();
        (header, payload)
    };
    let (header, payload) = read_frame(&mut stream);
    assert_eq!(header.opcode, wire::Opcode::RespErr);
    assert_eq!(header.request_id, 41, "error must carry the offending request id");
    let err = wire::decode_err(&payload).unwrap();
    assert!(matches!(err, ServeError::Protocol(_)), "got {err:?}");

    // Same session, next frame: a well-formed request still serves.
    let s = &f.samples[2];
    let want = direct_completion(&s.input, s.context.time_of_day, s.context.day_of_week);
    let mut frame = Vec::new();
    wire::encode_tcomplete_request(
        &mut frame,
        42,
        TENANT,
        s.context.time_of_day,
        s.context.day_of_week,
        &s.input,
    );
    stream.write_all(&frame).unwrap();
    let (header, payload) = read_frame(&mut stream);
    assert_eq!(header.opcode, wire::Opcode::RespTComplete);
    assert_eq!(header.request_id, 42);
    let resp = wire::decode_tcomplete_ok(&payload).unwrap();
    assert_eq!(bits(&want), bits(&resp.body.output), "session must survive a payload error");

    server.stop();
    engine.shutdown();
}

/// Regression test for the poll-loop latency bug: the old front end
/// slept in 10 ms accept / 50 ms read loops, so connect-to-first-
/// response could take ~100 ms. The reactor is readiness-driven: even
/// p99 over fresh connections must stay far under one 50 ms sleep.
#[test]
fn connect_to_first_response_latency_is_event_driven() {
    let (engine, mut server) = start_server();
    let mut connect_to_pong = Vec::new();
    for _ in 0..30 {
        let t = Instant::now();
        let mut c = BinClient::connect(server.addr()).unwrap();
        assert!(c.ping().unwrap());
        connect_to_pong.push(t.elapsed());
    }
    connect_to_pong.sort();
    let p99 = connect_to_pong[connect_to_pong.len() - 1];
    assert!(
        p99 < Duration::from_millis(25),
        "connect→first-response p99 {p99:?} — the front end is sleeping, not event-driven"
    );

    server.stop();
    engine.shutdown();
}

/// The scalability claim: ten thousand idle connections parked on the
/// reactor add **zero** OS threads (no thread-per-connection), and the
/// server still answers new work promptly with them all held open.
#[test]
fn ten_thousand_idle_connections_add_no_threads() {
    let f = fixture();
    let budget = gcwc_serve::sys::raise_nofile(25_000);
    // Both socket ends live in this process: ~2 fds per connection.
    let target = 10_000usize.min((budget.saturating_sub(200) / 2) as usize);
    assert!(target >= 1_000, "fd budget too small to say anything: {budget}");

    let (engine, mut server) = start_server();
    let threads_before = os_threads();
    let mut idle = Vec::with_capacity(target);
    for _ in 0..target {
        idle.push(std::net::TcpStream::connect(server.addr()).unwrap());
    }
    // The reactor accepts asynchronously; wait until it holds them all.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.open_connections() < target {
        assert!(
            Instant::now() < deadline,
            "only {} of {target} accepted",
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let threads_after = os_threads();
    assert!(
        threads_after <= threads_before + 1,
        "{target} idle connections grew threads {threads_before} → {threads_after}; \
         the front end must not spawn per-connection threads"
    );

    // New work still round-trips bit-exactly with 10k parked sockets.
    let s = &f.samples[1];
    let want = direct_completion(&s.input, s.context.time_of_day, s.context.day_of_week);
    let mut active = BinClient::connect(server.addr()).unwrap();
    let t = Instant::now();
    let resp =
        active.tcomplete(TENANT, &s.input, s.context.time_of_day, s.context.day_of_week).unwrap();
    let latency = t.elapsed();
    assert_eq!(bits(&want), bits(&resp.body.output));
    assert!(
        latency < Duration::from_secs(1),
        "active request took {latency:?} with {target} idle connections"
    );

    drop(idle);
    server.stop();
    engine.shutdown();
}

/// `quit` drains pipelined responses before `bye`, and the in-flight
/// cap plus buffer caps keep a blasting client bounded (the reactor
/// gates reads instead of buffering without limit).
#[test]
fn quit_drains_pipelined_responses_before_bye() {
    let f = fixture();
    let (engine, mut server) = start_server();
    let mut c = BinClient::connect(server.addr()).unwrap();
    let s = &f.samples[3];
    let mut ids = Vec::new();
    for _ in 0..8 {
        ids.push(
            c.send_tcomplete(TENANT, &s.input, s.context.time_of_day, s.context.day_of_week)
                .unwrap(),
        );
    }
    // quit() itself drains every pending response until bye.
    c.quit().unwrap();
    server.stop();
    engine.shutdown();
}
