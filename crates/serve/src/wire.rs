//! Length-prefixed binary wire protocol.
//!
//! Every frame starts with a fixed 20-byte header followed by an
//! opcode-specific payload. All integers are little-endian; matrix
//! entries travel as raw little-endian `f64` bit patterns, so — like
//! the text protocol's `{:016x}` encoding — a served completion is
//! **bit-exact** across the wire, but encode/decode is a memcpy
//! instead of a format/parse (16 bytes + a hex parse per entry become
//! 8 bytes flat).
//!
//! ```text
//! frame header (20 bytes)
//! ┌─────────┬─────────┬─────────┬──────────┬──────────────┬──────────────┐
//! │ 0..4    │ 4       │ 5       │ 6..8     │ 8..16        │ 16..20       │
//! │ magic   │ version │ opcode  │ reserved │ request id   │ payload len  │
//! │ "GCWB"  │ 0x01    │ u8      │ 0x0000   │ u64 LE       │ u32 LE       │
//! └─────────┴─────────┴─────────┴──────────┴──────────────┴──────────────┘
//!
//! complete request payload          complete response payload
//! ┌───────────────┬─────────┐       ┌──────────┬──────────┬──────────┐
//! │ 0..4  time    │ u32 LE  │       │ 0        │ hit      │ u8 0|1   │
//! │ 4..8  day     │ u32 LE  │       │ 1        │ degraded │ u8 0|1   │
//! │ 8..12 rows    │ u32 LE  │       │ 2..4     │ reserved │ 0x0000   │
//! │ 12..16 cols   │ u32 LE  │       │ 4..8     │ shards   │ u32 LE   │
//! │ 16..  entries │ f64 LE… │       │ 8..16    │ gen      │ u64 LE   │
//! └───────────────┴─────────┘       │ 16..20   │ rows     │ u32 LE   │
//!                                   │ 20..24   │ cols     │ u32 LE   │
//!                                   │ 24..     │ entries  │ f64 LE…  │
//!                                   └──────────┴──────────┴──────────┘
//! ```
//!
//! `stats`/`ping`/`quit` requests and `pong`/`bye` responses carry an
//! empty payload; the `stats` response is 20 `u64`s in
//! [`StatsSnapshot`] field order; the `err` response is a 1-byte code
//! length, the ASCII error code, then a UTF-8 message.
//!
//! **Tenant forms.** The `tcomplete` request (0x05) is a `u64 LE`
//! tenant id followed by the exact legacy `complete` payload; its
//! response (0x85) is a `u64 LE` tenant id and the tenant's `u64 LE`
//! **graph generation** (bumped on every applied topology delta, so
//! clients detect swaps) followed by the exact legacy response
//! payload. `tstats` (0x06) carries the `u64 LE` tenant id; its
//! response (0x86) is the tenant id plus all
//! [`StatsSnapshot::TENANT_FIELDS`] `u64`s in declaration order
//! (unlike the legacy 20-field form, this includes the two
//! tenant-layer counters). Legacy tenant-less frames address the
//! default tenant and stay byte-identical to pre-tenancy builds.
//!
//! Request ids are chosen by the client and echoed verbatim, which is
//! what makes **pipelining** work: many requests may be in flight on
//! one connection and responses may arrive in any order.

use crate::engine::StatsSnapshot;
use crate::protocol::{self, MAX_WIRE_ELEMS};
use crate::ServeError;
use gcwc_linalg::Matrix;

/// Frame magic: `GCWB` (GCW binary).
pub const MAGIC: [u8; 4] = *b"GCWB";
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Largest admissible payload: the biggest wire matrix plus the
/// tenant-complete-response head (the largest fixed head: tenant id,
/// graph generation, then the legacy 24-byte head). Frames declaring
/// more are refused before any buffering, which bounds per-connection
/// memory (slowloris cap).
pub const MAX_FRAME_PAYLOAD: usize = 40 + MAX_WIRE_ELEMS * 8;

/// Frame opcodes. Requests have the high bit clear, responses set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Completion request.
    Complete = 0x01,
    /// Engine-counter request.
    Stats = 0x02,
    /// Liveness probe.
    Ping = 0x03,
    /// Close the connection (after in-flight responses drain).
    Quit = 0x04,
    /// Tenant-scoped completion request (tenant id + legacy payload).
    TComplete = 0x05,
    /// Tenant-scoped counter request (tenant id payload).
    TStats = 0x06,
    /// Completion response (exact or degraded; see payload flags).
    RespComplete = 0x81,
    /// Engine-counter response.
    RespStats = 0x82,
    /// Probe response.
    Pong = 0x83,
    /// Connection-close acknowledgement.
    Bye = 0x84,
    /// Tenant-scoped completion response (tenant id + graph
    /// generation + legacy payload).
    RespTComplete = 0x85,
    /// Tenant-scoped counter response (tenant id + all snapshot
    /// fields).
    RespTStats = 0x86,
    /// Typed error response.
    RespErr = 0xEE,
}

impl Opcode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x01 => Opcode::Complete,
            0x02 => Opcode::Stats,
            0x03 => Opcode::Ping,
            0x04 => Opcode::Quit,
            0x05 => Opcode::TComplete,
            0x06 => Opcode::TStats,
            0x81 => Opcode::RespComplete,
            0x82 => Opcode::RespStats,
            0x83 => Opcode::Pong,
            0x84 => Opcode::Bye,
            0x85 => Opcode::RespTComplete,
            0x86 => Opcode::RespTStats,
            0xEE => Opcode::RespErr,
            _ => return None,
        })
    }
}

/// A decoded frame header.
#[derive(Clone, Copy, Debug)]
pub struct FrameHeader {
    /// The frame opcode.
    pub opcode: Opcode,
    /// Client-chosen id echoed on the response.
    pub request_id: u64,
    /// Bytes of payload following the header.
    pub payload_len: usize,
}

/// Everything that can be wrong with a binary frame. Header-level
/// errors ([`WireError::is_fatal`]) poison the byte stream — the
/// framing can no longer be trusted, so the connection is closed after
/// a best-effort error frame. Payload-level errors are scoped to one
/// request id and the session continues.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// Length the header declared.
        declared: usize,
    },
    /// Payload shorter than its fixed head, or its length disagrees
    /// with the declared matrix shape.
    Truncated {
        /// Which structure was cut short.
        what: &'static str,
    },
    /// `rows * cols` overflows or exceeds `MAX_WIRE_ELEMS`.
    BadShape {
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
    },
    /// A matrix entry decodes to NaN or ±Inf.
    NonFinite {
        /// Flat index of the offending entry.
        index: usize,
    },
    /// A row's entries cancel to zero total mass while carrying
    /// negative entries (indistinguishable from missing by mass, but
    /// not all-missing — normalisation would divide by zero).
    ZeroMassNegativeRow {
        /// The offending row.
        row: usize,
    },
}

impl WireError {
    /// True when the byte stream can no longer be framed and the
    /// connection must close.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            WireError::BadMagic(_)
                | WireError::BadVersion(_)
                | WireError::BadOpcode(_)
                | WireError::Oversized { .. }
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            WireError::Oversized { declared } => {
                write!(f, "declared payload {declared} exceeds limit {MAX_FRAME_PAYLOAD}")
            }
            WireError::Truncated { what } => write!(f, "truncated {what}"),
            WireError::BadShape { rows, cols } => {
                write!(f, "matrix shape {rows}x{cols} exceeds the wire limit of {MAX_WIRE_ELEMS}")
            }
            WireError::NonFinite { index } => write!(f, "non-finite matrix entry at {index}"),
            WireError::ZeroMassNegativeRow { row } => {
                write!(f, "row {row} has zero total mass but negative entries")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Protocol(e.to_string())
    }
}

fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"))
}

fn u64_at(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
}

/// Decodes a frame header from the front of `buf`. `Ok(None)` means
/// more bytes are needed (a partial header is not an error — frames
/// may arrive one byte at a time).
pub fn decode_header(buf: &[u8]) -> Result<Option<FrameHeader>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[..4] != MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
    }
    if buf[4] != VERSION {
        return Err(WireError::BadVersion(buf[4]));
    }
    let opcode = Opcode::from_u8(buf[5]).ok_or(WireError::BadOpcode(buf[5]))?;
    let payload_len = u32_at(buf, 16) as usize;
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized { declared: payload_len });
    }
    Ok(Some(FrameHeader { opcode, request_id: u64_at(buf, 8), payload_len }))
}

/// Appends a frame header to `buf`.
pub fn encode_header(buf: &mut Vec<u8>, opcode: Opcode, request_id: u64, payload_len: usize) {
    debug_assert!(payload_len <= MAX_FRAME_PAYLOAD);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(opcode as u8);
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Appends an empty-payload frame (ping/pong/quit/bye/stats request).
pub fn encode_empty(buf: &mut Vec<u8>, opcode: Opcode, request_id: u64) {
    encode_header(buf, opcode, request_id, 0);
}

fn extend_matrix_le(buf: &mut Vec<u8>, m: &Matrix) {
    for &v in m.as_slice() {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Appends a `complete` request frame.
pub fn encode_complete_request(
    buf: &mut Vec<u8>,
    request_id: u64,
    time_of_day: usize,
    day_of_week: usize,
    input: &Matrix,
) {
    let payload = 16 + input.as_slice().len() * 8;
    encode_header(buf, Opcode::Complete, request_id, payload);
    buf.extend_from_slice(&(time_of_day as u32).to_le_bytes());
    buf.extend_from_slice(&(day_of_week as u32).to_le_bytes());
    buf.extend_from_slice(&(input.rows() as u32).to_le_bytes());
    buf.extend_from_slice(&(input.cols() as u32).to_le_bytes());
    extend_matrix_le(buf, input);
}

/// A `complete` request payload, borrowed from the receive buffer:
/// shape-validated, entries still raw bytes (see
/// [`fill_matrix`]).
#[derive(Debug)]
pub struct CompleteRequest<'a> {
    /// Time-of-day interval index.
    pub time_of_day: usize,
    /// Day-of-week index.
    pub day_of_week: usize,
    /// Declared row count.
    pub rows: usize,
    /// Declared column count.
    pub cols: usize,
    /// `rows * cols` little-endian `f64`s.
    pub data: &'a [u8],
}

/// Decodes and shape-validates a `complete` request payload. The
/// element count is overflow-checked against `MAX_WIRE_ELEMS` and the
/// payload length must match the declared shape exactly, so a short
/// frame can never claim a large matrix.
pub fn decode_complete_request(payload: &[u8]) -> Result<CompleteRequest<'_>, WireError> {
    if payload.len() < 16 {
        return Err(WireError::Truncated { what: "complete request head" });
    }
    let rows = u32_at(payload, 8) as usize;
    let cols = u32_at(payload, 12) as usize;
    let total = rows
        .checked_mul(cols)
        .filter(|&t| t <= MAX_WIRE_ELEMS)
        .ok_or(WireError::BadShape { rows, cols })?;
    let data = &payload[16..];
    if data.len() != total * 8 {
        return Err(WireError::Truncated { what: "complete request matrix" });
    }
    Ok(CompleteRequest {
        time_of_day: u32_at(payload, 0) as usize,
        day_of_week: u32_at(payload, 4) as usize,
        rows,
        cols,
        data,
    })
}

/// Appends a `tcomplete` request frame: the tenant id, then the exact
/// legacy payload.
pub fn encode_tcomplete_request(
    buf: &mut Vec<u8>,
    request_id: u64,
    tenant: u64,
    time_of_day: usize,
    day_of_week: usize,
    input: &Matrix,
) {
    let payload = 24 + input.as_slice().len() * 8;
    encode_header(buf, Opcode::TComplete, request_id, payload);
    buf.extend_from_slice(&tenant.to_le_bytes());
    buf.extend_from_slice(&(time_of_day as u32).to_le_bytes());
    buf.extend_from_slice(&(day_of_week as u32).to_le_bytes());
    buf.extend_from_slice(&(input.rows() as u32).to_le_bytes());
    buf.extend_from_slice(&(input.cols() as u32).to_le_bytes());
    extend_matrix_le(buf, input);
}

/// Decodes a `tcomplete` request payload: the tenant id, then the
/// legacy payload validated by [`decode_complete_request`].
pub fn decode_tcomplete_request(payload: &[u8]) -> Result<(u64, CompleteRequest<'_>), WireError> {
    if payload.len() < 8 {
        return Err(WireError::Truncated { what: "tcomplete request head" });
    }
    Ok((u64_at(payload, 0), decode_complete_request(&payload[8..])?))
}

/// Appends a `tstats` request frame (payload: the tenant id).
pub fn encode_tstats_request(buf: &mut Vec<u8>, request_id: u64, tenant: u64) {
    encode_header(buf, Opcode::TStats, request_id, 8);
    buf.extend_from_slice(&tenant.to_le_bytes());
}

/// Decodes a `tstats` request payload into the tenant id.
pub fn decode_tstats_request(payload: &[u8]) -> Result<u64, WireError> {
    if payload.len() != 8 {
        return Err(WireError::Truncated { what: "tstats request" });
    }
    Ok(u64_at(payload, 0))
}

/// Copies a validated request's entries into `out` (which must already
/// have the declared shape), enforcing the same input hardening as the
/// text protocol: non-finite entries and zero-mass-with-negative rows
/// are rejected with typed errors.
pub fn fill_matrix(req: &CompleteRequest<'_>, out: &mut Matrix) -> Result<(), WireError> {
    debug_assert_eq!(out.shape(), (req.rows, req.cols));
    let dst = out.as_mut_slice();
    for (i, chunk) in req.data.chunks_exact(8).enumerate() {
        let v = f64::from_bits(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        if !v.is_finite() {
            return Err(WireError::NonFinite { index: i });
        }
        dst[i] = v;
    }
    match protocol::zero_mass_negative_row(dst, req.cols) {
        Some(row) => Err(WireError::ZeroMassNegativeRow { row }),
        None => Ok(()),
    }
}

/// Appends a `complete` response frame.
#[allow(clippy::too_many_arguments)]
pub fn encode_complete_ok(
    buf: &mut Vec<u8>,
    request_id: u64,
    output: &Matrix,
    cache_hit: bool,
    degraded: bool,
    generation: u64,
    shards: usize,
) {
    let payload = 24 + output.as_slice().len() * 8;
    encode_header(buf, Opcode::RespComplete, request_id, payload);
    buf.push(u8::from(cache_hit));
    buf.push(u8::from(degraded));
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&(shards as u32).to_le_bytes());
    buf.extend_from_slice(&generation.to_le_bytes());
    buf.extend_from_slice(&(output.rows() as u32).to_le_bytes());
    buf.extend_from_slice(&(output.cols() as u32).to_le_bytes());
    extend_matrix_le(buf, output);
}

/// Decodes a `complete` response payload. Unlike request decoding
/// this materialises the matrix (the client owns the result).
pub fn decode_complete_ok(payload: &[u8]) -> Result<protocol::OkResponse, WireError> {
    if payload.len() < 24 {
        return Err(WireError::Truncated { what: "complete response head" });
    }
    let rows = u32_at(payload, 16) as usize;
    let cols = u32_at(payload, 20) as usize;
    let total = rows
        .checked_mul(cols)
        .filter(|&t| t <= MAX_WIRE_ELEMS)
        .ok_or(WireError::BadShape { rows, cols })?;
    let data = &payload[24..];
    if data.len() != total * 8 {
        return Err(WireError::Truncated { what: "complete response matrix" });
    }
    let mut entries = Vec::with_capacity(total);
    for chunk in data.chunks_exact(8) {
        entries.push(f64::from_bits(u64::from_le_bytes(chunk.try_into().expect("8 bytes"))));
    }
    Ok(protocol::OkResponse {
        output: Matrix::from_vec(rows, cols, entries),
        cache_hit: payload[0] != 0,
        degraded: payload[1] != 0,
        generation: u64_at(payload, 8),
        shards: u32_at(payload, 4) as usize,
    })
}

/// Appends a `tcomplete` response frame: the tenant id and its graph
/// generation, then the exact legacy response payload.
#[allow(clippy::too_many_arguments)]
pub fn encode_tcomplete_ok(
    buf: &mut Vec<u8>,
    request_id: u64,
    tenant: u64,
    graph_generation: u64,
    output: &Matrix,
    cache_hit: bool,
    degraded: bool,
    generation: u64,
    shards: usize,
) {
    let payload = 40 + output.as_slice().len() * 8;
    encode_header(buf, Opcode::RespTComplete, request_id, payload);
    buf.extend_from_slice(&tenant.to_le_bytes());
    buf.extend_from_slice(&graph_generation.to_le_bytes());
    buf.push(u8::from(cache_hit));
    buf.push(u8::from(degraded));
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&(shards as u32).to_le_bytes());
    buf.extend_from_slice(&generation.to_le_bytes());
    buf.extend_from_slice(&(output.rows() as u32).to_le_bytes());
    buf.extend_from_slice(&(output.cols() as u32).to_le_bytes());
    extend_matrix_le(buf, output);
}

/// Decodes a `tcomplete` response payload.
pub fn decode_tcomplete_ok(payload: &[u8]) -> Result<protocol::TokResponse, WireError> {
    if payload.len() < 16 {
        return Err(WireError::Truncated { what: "tcomplete response head" });
    }
    Ok(protocol::TokResponse {
        tenant: u64_at(payload, 0),
        graph_generation: u64_at(payload, 8),
        body: decode_complete_ok(&payload[16..])?,
    })
}

/// Appends an `err` response frame: code length, ASCII code, message.
pub fn encode_err(buf: &mut Vec<u8>, request_id: u64, err: &ServeError) {
    let code = err.code().as_bytes();
    let message = err.to_string();
    let msg = message.as_bytes();
    encode_header(buf, Opcode::RespErr, request_id, 1 + code.len() + msg.len());
    buf.push(code.len() as u8);
    buf.extend_from_slice(code);
    buf.extend_from_slice(msg);
}

/// Decodes an `err` response payload back into the typed error the
/// server sent (same mapping as the text protocol).
pub fn decode_err(payload: &[u8]) -> Result<ServeError, WireError> {
    let code_len = *payload.first().ok_or(WireError::Truncated { what: "err response" })? as usize;
    if payload.len() < 1 + code_len {
        return Err(WireError::Truncated { what: "err response code" });
    }
    let code = std::str::from_utf8(&payload[1..1 + code_len])
        .map_err(|_| WireError::Truncated { what: "err response code" })?;
    let message = String::from_utf8_lossy(&payload[1 + code_len..]);
    Ok(protocol::remote_error(code, &message))
}

/// Field order of the `stats` response payload (20 `u64`s).
fn stats_fields(s: &StatsSnapshot) -> [u64; 20] {
    [
        s.requests,
        s.completed,
        s.batches,
        s.rejected,
        s.expired,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.generation,
        s.shards,
        s.worker_restarts,
        s.breaker_open,
        s.degraded_responses,
        s.retries,
        s.records_ingested,
        s.slots_sealed,
        s.late_records_dropped,
        s.refreshes_applied,
        s.refreshes_rolled_back,
        s.generation_age,
    ]
}

/// Appends a `stats` response frame.
pub fn encode_stats(buf: &mut Vec<u8>, request_id: u64, s: &StatsSnapshot) {
    let fields = stats_fields(s);
    encode_header(buf, Opcode::RespStats, request_id, fields.len() * 8);
    for v in fields {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a `stats` response payload. The legacy frame predates the
/// tenant layer, so `graph_generation` and `quota_rejected` decode as
/// zero (use the `tstats` form to observe them).
pub fn decode_stats(payload: &[u8]) -> Result<StatsSnapshot, WireError> {
    if payload.len() != 20 * 8 {
        return Err(WireError::Truncated { what: "stats response" });
    }
    let v = |i: usize| u64_at(payload, i * 8);
    Ok(StatsSnapshot {
        requests: v(0),
        completed: v(1),
        batches: v(2),
        rejected: v(3),
        expired: v(4),
        cache_hits: v(5),
        cache_misses: v(6),
        cache_evictions: v(7),
        generation: v(8),
        shards: v(9),
        worker_restarts: v(10),
        breaker_open: v(11),
        degraded_responses: v(12),
        retries: v(13),
        records_ingested: v(14),
        slots_sealed: v(15),
        late_records_dropped: v(16),
        refreshes_applied: v(17),
        refreshes_rolled_back: v(18),
        generation_age: v(19),
        graph_generation: 0,
        quota_rejected: 0,
    })
}

/// Appends a `tstats` response frame: the tenant id, then all
/// [`StatsSnapshot::TENANT_FIELDS`] counters in declaration order.
pub fn encode_tstats(buf: &mut Vec<u8>, request_id: u64, tenant: u64, s: &StatsSnapshot) {
    let fields = s.tenant_fields();
    encode_header(buf, Opcode::RespTStats, request_id, 8 + fields.len() * 8);
    buf.extend_from_slice(&tenant.to_le_bytes());
    for v in fields {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a `tstats` response payload into `(tenant, snapshot)`.
pub fn decode_tstats(payload: &[u8]) -> Result<(u64, StatsSnapshot), WireError> {
    if payload.len() != 8 + StatsSnapshot::TENANT_FIELDS * 8 {
        return Err(WireError::Truncated { what: "tstats response" });
    }
    let mut fields = [0u64; StatsSnapshot::TENANT_FIELDS];
    for (i, slot) in fields.iter_mut().enumerate() {
        *slot = u64_at(payload, 8 + i * 8);
    }
    Ok((u64_at(payload, 0), StatsSnapshot::from_tenant_fields(fields)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_request_roundtrip_is_bit_exact() {
        let m = Matrix::from_vec(2, 2, vec![0.1, -2.5, f64::MIN_POSITIVE, 3.0e300]);
        let mut buf = Vec::new();
        encode_complete_request(&mut buf, 99, 3, 5, &m);
        let header = decode_header(&buf).unwrap().unwrap();
        assert_eq!(header.opcode, Opcode::Complete);
        assert_eq!(header.request_id, 99);
        assert_eq!(buf.len(), HEADER_LEN + header.payload_len);
        let req = decode_complete_request(&buf[HEADER_LEN..]).unwrap();
        assert_eq!((req.time_of_day, req.day_of_week), (3, 5));
        let mut out = Matrix::zeros(2, 2);
        fill_matrix(&req, &mut out).unwrap();
        assert_eq!(out, m);
    }

    #[test]
    fn complete_response_roundtrip() {
        let m = Matrix::from_vec(1, 3, vec![0.25, 0.5, 0.25]);
        let mut buf = Vec::new();
        encode_complete_ok(&mut buf, 7, &m, true, false, 11, 2);
        let header = decode_header(&buf).unwrap().unwrap();
        assert_eq!(header.opcode, Opcode::RespComplete);
        assert_eq!(header.request_id, 7);
        let r = decode_complete_ok(&buf[HEADER_LEN..]).unwrap();
        assert_eq!(r.output, m);
        assert!(r.cache_hit);
        assert!(!r.degraded);
        assert_eq!(r.generation, 11);
        assert_eq!(r.shards, 2);
    }

    #[test]
    fn partial_headers_ask_for_more_bytes() {
        let mut buf = Vec::new();
        encode_empty(&mut buf, Opcode::Ping, 1);
        for cut in 0..HEADER_LEN {
            assert!(decode_header(&buf[..cut]).unwrap().is_none(), "cut={cut}");
        }
        assert!(decode_header(&buf).unwrap().is_some());
    }

    #[test]
    fn garbage_magic_and_version_are_fatal() {
        let mut buf = Vec::new();
        encode_empty(&mut buf, Opcode::Ping, 1);
        let mut bad = buf.clone();
        bad[0] = b'X';
        let err = decode_header(&bad).unwrap_err();
        assert!(matches!(err, WireError::BadMagic(_)));
        assert!(err.is_fatal());
        let mut bad = buf.clone();
        bad[4] = 9;
        let err = decode_header(&bad).unwrap_err();
        assert!(matches!(err, WireError::BadVersion(9)));
        assert!(err.is_fatal());
        let mut bad = buf;
        bad[5] = 0x7f;
        assert!(matches!(decode_header(&bad).unwrap_err(), WireError::BadOpcode(0x7f)));
    }

    #[test]
    fn oversized_declared_length_is_refused_before_buffering() {
        let mut buf = Vec::new();
        encode_header(&mut buf, Opcode::Complete, 1, 0);
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_header(&buf).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
        assert!(err.is_fatal());
    }

    #[test]
    fn oversized_and_overflowing_shapes_are_rejected() {
        // Shape beyond the wire limit, payload length deliberately
        // tiny: the shape check fires without reserving anything.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&((MAX_WIRE_ELEMS + 1) as u32).to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_complete_request(&payload).unwrap_err(),
            WireError::BadShape { .. }
        ));
        // Admissible shape but a short payload: truncation error, not
        // a large reservation.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&(MAX_WIRE_ELEMS as u32).to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_complete_request(&payload).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn non_finite_and_zero_mass_rows_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let m = Matrix::from_vec(1, 2, vec![0.5, bad]);
            let mut buf = Vec::new();
            encode_complete_request(&mut buf, 1, 0, 0, &m);
            let req = decode_complete_request(&buf[HEADER_LEN..]).unwrap();
            let mut out = Matrix::zeros(1, 2);
            assert!(matches!(
                fill_matrix(&req, &mut out).unwrap_err(),
                WireError::NonFinite { index: 1 }
            ));
        }
        let m = Matrix::from_vec(2, 2, vec![0.5, 0.5, -1.0, 1.0]);
        let mut buf = Vec::new();
        encode_complete_request(&mut buf, 1, 0, 0, &m);
        let req = decode_complete_request(&buf[HEADER_LEN..]).unwrap();
        let mut out = Matrix::zeros(2, 2);
        assert!(matches!(
            fill_matrix(&req, &mut out).unwrap_err(),
            WireError::ZeroMassNegativeRow { row: 1 }
        ));
        // All-zero (missing) rows stay valid — completing them is the
        // entire point of the service.
        let missing = Matrix::zeros(1, 2);
        let mut buf = Vec::new();
        encode_complete_request(&mut buf, 1, 0, 0, &missing);
        let req = decode_complete_request(&buf[HEADER_LEN..]).unwrap();
        let mut out = Matrix::zeros(1, 2);
        assert!(fill_matrix(&req, &mut out).is_ok());
    }

    #[test]
    fn err_frames_map_back_to_typed_errors() {
        for (err, want) in [
            (ServeError::Overloaded, "overloaded"),
            (ServeError::DeadlineExceeded, "deadline"),
            (ServeError::ShardRestarting, "restarting"),
        ] {
            let mut buf = Vec::new();
            encode_err(&mut buf, 5, &err);
            let header = decode_header(&buf).unwrap().unwrap();
            assert_eq!(header.opcode, Opcode::RespErr);
            let back = decode_err(&buf[HEADER_LEN..]).unwrap();
            assert_eq!(back.code(), want);
        }
    }

    #[test]
    fn stats_roundtrip() {
        let s = StatsSnapshot {
            requests: 1,
            completed: 2,
            batches: 3,
            rejected: 4,
            expired: 5,
            cache_hits: 6,
            cache_misses: 7,
            cache_evictions: 8,
            generation: 9,
            shards: 10,
            worker_restarts: 11,
            breaker_open: 12,
            degraded_responses: 13,
            retries: 14,
            records_ingested: 15,
            slots_sealed: 16,
            late_records_dropped: 17,
            refreshes_applied: 18,
            refreshes_rolled_back: 19,
            generation_age: 20,
            // The legacy 20-field frame does not carry the tenant-layer
            // fields; they must decode back as zero.
            graph_generation: 0,
            quota_rejected: 0,
        };
        let mut buf = Vec::new();
        encode_stats(&mut buf, 3, &s);
        let back = decode_stats(&buf[HEADER_LEN..]).unwrap();
        assert_eq!(format!("{s:?}"), format!("{back:?}"));
    }

    #[test]
    fn stats_payload_length_is_enforced() {
        let mut buf = Vec::new();
        encode_stats(&mut buf, 1, &StatsSnapshot::default());
        assert_eq!(buf.len(), HEADER_LEN + 20 * 8);
        assert!(decode_stats(&buf[HEADER_LEN..buf.len() - 8]).is_err());
    }

    #[test]
    fn tcomplete_request_roundtrip_is_bit_exact() {
        let m = Matrix::from_vec(2, 2, vec![0.1, -2.5, f64::MIN_POSITIVE, 3.0e300]);
        let mut buf = Vec::new();
        encode_tcomplete_request(&mut buf, 99, 7, 3, 5, &m);
        let header = decode_header(&buf).unwrap().unwrap();
        assert_eq!(header.opcode, Opcode::TComplete);
        assert_eq!(buf.len(), HEADER_LEN + header.payload_len);
        let (tenant, req) = decode_tcomplete_request(&buf[HEADER_LEN..]).unwrap();
        assert_eq!(tenant, 7);
        assert_eq!((req.time_of_day, req.day_of_week), (3, 5));
        let mut out = Matrix::zeros(2, 2);
        fill_matrix(&req, &mut out).unwrap();
        assert_eq!(out, m);
        // The tail past the tenant id is byte-identical to the legacy
        // encoding of the same request.
        let mut legacy = Vec::new();
        encode_complete_request(&mut legacy, 99, 3, 5, &m);
        assert_eq!(&buf[HEADER_LEN + 8..], &legacy[HEADER_LEN..]);
    }

    #[test]
    fn tcomplete_response_roundtrip() {
        let m = Matrix::from_vec(1, 3, vec![0.25, 0.5, 0.25]);
        let mut buf = Vec::new();
        encode_tcomplete_ok(&mut buf, 7, 4, 2, &m, true, false, 11, 2);
        let header = decode_header(&buf).unwrap().unwrap();
        assert_eq!(header.opcode, Opcode::RespTComplete);
        let r = decode_tcomplete_ok(&buf[HEADER_LEN..]).unwrap();
        assert_eq!((r.tenant, r.graph_generation), (4, 2));
        assert_eq!(r.body.output, m);
        assert!(r.body.cache_hit && !r.body.degraded);
        assert_eq!((r.body.generation, r.body.shards), (11, 2));
        // The tail past tenant id + graph generation is byte-identical
        // to the legacy response encoding.
        let mut legacy = Vec::new();
        encode_complete_ok(&mut legacy, 7, &m, true, false, 11, 2);
        assert_eq!(&buf[HEADER_LEN + 16..], &legacy[HEADER_LEN..]);
    }

    #[test]
    fn tstats_roundtrip_and_length_enforcement() {
        let mut buf = Vec::new();
        encode_tstats_request(&mut buf, 2, 9);
        let header = decode_header(&buf).unwrap().unwrap();
        assert_eq!(header.opcode, Opcode::TStats);
        assert_eq!(decode_tstats_request(&buf[HEADER_LEN..]).unwrap(), 9);

        let fields: [u64; StatsSnapshot::TENANT_FIELDS] =
            std::array::from_fn(|i| (i as u64).wrapping_mul(0x9e37_79b9) + 1);
        let s = StatsSnapshot::from_tenant_fields(fields);
        let mut buf = Vec::new();
        encode_tstats(&mut buf, 3, 9, &s);
        assert_eq!(buf.len(), HEADER_LEN + 8 + StatsSnapshot::TENANT_FIELDS * 8);
        let (tenant, back) = decode_tstats(&buf[HEADER_LEN..]).unwrap();
        assert_eq!(tenant, 9);
        assert_eq!(back.tenant_fields(), fields);
        assert!(decode_tstats(&buf[HEADER_LEN..buf.len() - 8]).is_err());
    }
}
