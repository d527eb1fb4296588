//! Length-prefixed binary wire protocol: the one wire surface of the
//! server.
//!
//! Every frame starts with a fixed 20-byte header followed by an
//! opcode-specific payload. All integers are little-endian; matrix
//! entries travel as raw little-endian `f64` bit patterns, so a served
//! completion is **bit-exact** across the wire and encode/decode is a
//! memcpy.
//!
//! ```text
//! frame header (20 bytes)
//! ┌─────────┬─────────┬─────────┬──────────┬──────────────┬──────────────┐
//! │ 0..4    │ 4       │ 5       │ 6..8     │ 8..16        │ 16..20       │
//! │ magic   │ version │ opcode  │ reserved │ request id   │ payload len  │
//! │ "GCWB"  │ 0x02    │ u8      │ 0x0000   │ u64 LE       │ u32 LE       │
//! └─────────┴─────────┴─────────┴──────────┴──────────────┴──────────────┘
//!
//! request                          response
//! 0x03 ping       empty            0x83 pong       empty
//! 0x04 quit       empty            0x84 bye        empty
//! 0x05 tcomplete  see below        0x85 tcomplete  see below
//! 0x06 tstats     tenant u64 LE    0x86 tstats     see below
//!                                  0xEE error      code len u8, code, message
//!
//! tcomplete request payload         tcomplete response payload
//! ┌───────────────┬─────────┐       ┌──────────┬───────────┬──────────┐
//! │ 0..8   tenant │ u64 LE  │       │ 0..8     │ tenant    │ u64 LE   │
//! │ 8..12  time   │ u32 LE  │       │ 8..16    │ graph gen │ u64 LE   │
//! │ 12..16 day    │ u32 LE  │       │ 16       │ hit       │ u8 0|1   │
//! │ 16..20 rows   │ u32 LE  │       │ 17       │ degraded  │ u8 0|1   │
//! │ 20..24 cols   │ u32 LE  │       │ 18..20   │ reserved  │ 0x0000   │
//! │ 24..  entries │ f64 LE… │       │ 20..24   │ shards    │ u32 LE   │
//! └───────────────┴─────────┘       │ 24..32   │ gen       │ u64 LE   │
//!                                   │ 32..36   │ rows      │ u32 LE   │
//!                                   │ 36..40   │ cols      │ u32 LE   │
//!                                   │ 40..     │ entries   │ f64 LE…  │
//!                                   └──────────┴───────────┴──────────┘
//!
//! tstats response payload
//! ┌──────────┬────────────┬─────────────────────────────────────────────┐
//! │ 0..8     │ 8..10      │ 10..                                        │
//! │ tenant   │ count u16  │ count × (name len u8, UTF-8 name, u64 LE)   │
//! └──────────┴────────────┴─────────────────────────────────────────────┘
//! ```
//!
//! Every request names a tenant, and every answer carries it back. The
//! graph generation of a completion answer is bumped on every applied
//! topology delta, so clients detect swaps. The stats answer lists
//! every counter of [`StatsSnapshot::FIELDS`] by name; a decoder
//! matches counters by name, skipping names it does not know and
//! reading a counter the answer lacks as 0. A frame of another version
//! is refused with [`WireError::BadVersion`], so a peer speaking an
//! older layout gets a typed error instead of misread bytes.
//!
//! Request ids are chosen by the client and echoed verbatim, which is
//! what makes **pipelining** work: many requests may be in flight on
//! one connection and responses may arrive in any order.

use crate::engine::StatsSnapshot;
use crate::protocol::{OkResponse, TokResponse};
use crate::ServeError;
use gcwc_linalg::Matrix;

/// Frame magic: `GCWB` (GCW binary).
pub const MAGIC: [u8; 4] = *b"GCWB";
/// Protocol version this build speaks.
pub const VERSION: u8 = 2;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Upper bound on matrix entries accepted from the wire. Shapes are
/// validated (overflow-checked) against this *before* any allocation,
/// so a malicious `rows`/`cols` pair cannot force a huge reservation.
pub const MAX_WIRE_ELEMS: usize = 1 << 22;
/// Largest admissible payload: the biggest wire matrix plus the
/// completion response head (the largest fixed head). Frames declaring
/// more are refused before any buffering, which bounds per-connection
/// memory (slowloris cap).
pub const MAX_FRAME_PAYLOAD: usize = 40 + MAX_WIRE_ELEMS * 8;

/// Frame opcodes. Requests have the high bit clear, responses set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe.
    Ping = 0x03,
    /// Close the connection (after in-flight responses drain).
    Quit = 0x04,
    /// Completion request for one tenant.
    TComplete = 0x05,
    /// Counter request for one tenant.
    TStats = 0x06,
    /// Probe response.
    Pong = 0x83,
    /// Connection-close acknowledgement.
    Bye = 0x84,
    /// Completion response (exact or degraded; see payload flags).
    RespTComplete = 0x85,
    /// Named-counter response.
    RespTStats = 0x86,
    /// Typed error response.
    RespErr = 0xEE,
}

impl Opcode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x03 => Opcode::Ping,
            0x04 => Opcode::Quit,
            0x05 => Opcode::TComplete,
            0x06 => Opcode::TStats,
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
    /// Payload bytes that are not what their place claims: an empty or
    /// non-UTF-8 counter name, or bytes after the last counter.
    Malformed {
        /// Which structure is malformed.
        what: &'static str,
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
            WireError::Malformed { what } => write!(f, "malformed {what}"),
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

/// The element count of a declared matrix shape, overflow-checked
/// against [`MAX_WIRE_ELEMS`].
fn checked_elems(rows: usize, cols: usize) -> Result<usize, WireError> {
    rows.checked_mul(cols)
        .filter(|&t| t <= MAX_WIRE_ELEMS)
        .ok_or(WireError::BadShape { rows, cols })
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

/// Appends an empty-payload frame (ping/pong/quit/bye).
pub fn encode_empty(buf: &mut Vec<u8>, opcode: Opcode, request_id: u64) {
    encode_header(buf, opcode, request_id, 0);
}

fn extend_matrix_le(buf: &mut Vec<u8>, m: &Matrix) {
    for &v in m.as_slice() {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// A `tcomplete` request's completion part, borrowed from the receive
/// buffer: shape-validated, entries still raw bytes (see
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

/// Appends a `tcomplete` request frame.
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

/// Decodes and shape-validates a `tcomplete` request payload into the
/// tenant id and the completion part. The element count is
/// overflow-checked against [`MAX_WIRE_ELEMS`] and the payload length
/// must match the declared shape exactly, so a short frame can never
/// claim a large matrix.
pub fn decode_tcomplete_request(payload: &[u8]) -> Result<(u64, CompleteRequest<'_>), WireError> {
    if payload.len() < 24 {
        return Err(WireError::Truncated { what: "tcomplete request head" });
    }
    let rows = u32_at(payload, 16) as usize;
    let cols = u32_at(payload, 20) as usize;
    let total = checked_elems(rows, cols)?;
    let data = &payload[24..];
    if data.len() != total * 8 {
        return Err(WireError::Truncated { what: "tcomplete request matrix" });
    }
    let req = CompleteRequest {
        time_of_day: u32_at(payload, 8) as usize,
        day_of_week: u32_at(payload, 12) as usize,
        rows,
        cols,
        data,
    };
    Ok((u64_at(payload, 0), req))
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
/// have the declared shape), rejecting non-finite entries and
/// zero-mass rows with negative entries with typed errors.
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
    match zero_mass_negative_row(dst, req.cols) {
        Some(row) => Err(WireError::ZeroMassNegativeRow { row }),
        None => Ok(()),
    }
}

/// The first `cols`-wide row of `data` whose entries cancel to exactly
/// zero mass while carrying negative entries. Observed rows are
/// (unnormalised) histogram mass, so such a row is indistinguishable
/// from a missing row by total mass but not all-missing —
/// normalisation would divide by zero downstream.
fn zero_mass_negative_row(data: &[f64], cols: usize) -> Option<usize> {
    if cols == 0 {
        return None;
    }
    data.chunks_exact(cols)
        .position(|row| row.iter().sum::<f64>() == 0.0 && row.iter().any(|&v| v < 0.0))
}

/// Appends a `tcomplete` response frame.
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

/// Decodes a `tcomplete` response payload. Unlike request decoding
/// this materialises the matrix (the client owns the result).
pub fn decode_tcomplete_ok(payload: &[u8]) -> Result<TokResponse, WireError> {
    if payload.len() < 40 {
        return Err(WireError::Truncated { what: "tcomplete response head" });
    }
    let rows = u32_at(payload, 32) as usize;
    let cols = u32_at(payload, 36) as usize;
    let total = checked_elems(rows, cols)?;
    let data = &payload[40..];
    if data.len() != total * 8 {
        return Err(WireError::Truncated { what: "tcomplete response matrix" });
    }
    let mut entries = Vec::with_capacity(total);
    for chunk in data.chunks_exact(8) {
        entries.push(f64::from_bits(u64::from_le_bytes(chunk.try_into().expect("8 bytes"))));
    }
    Ok(TokResponse {
        tenant: u64_at(payload, 0),
        graph_generation: u64_at(payload, 8),
        body: OkResponse {
            output: Matrix::from_vec(rows, cols, entries),
            cache_hit: payload[16] != 0,
            degraded: payload[17] != 0,
            generation: u64_at(payload, 24),
            shards: u32_at(payload, 20) as usize,
        },
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
/// server sent.
pub fn decode_err(payload: &[u8]) -> Result<ServeError, WireError> {
    let code_len = *payload.first().ok_or(WireError::Truncated { what: "err response" })? as usize;
    if payload.len() < 1 + code_len {
        return Err(WireError::Truncated { what: "err response code" });
    }
    let code = std::str::from_utf8(&payload[1..1 + code_len])
        .map_err(|_| WireError::Truncated { what: "err response code" })?;
    let message = String::from_utf8_lossy(&payload[1 + code_len..]);
    Ok(match code {
        "overloaded" => ServeError::Overloaded,
        "deadline" => ServeError::DeadlineExceeded,
        "shutdown" => ServeError::ShuttingDown,
        "restarting" => ServeError::ShardRestarting,
        "bad_request" => ServeError::BadRequest(message.into_owned()),
        "quota" => ServeError::QuotaExceeded,
        // `tenant <id> is not registered` — recover the id when the
        // message carries it in the documented position.
        "unknown_tenant" => ServeError::UnknownTenant(
            message.split_whitespace().nth(1).and_then(|t| t.parse().ok()).unwrap_or(0),
        ),
        _ => ServeError::Protocol(format!("{code}: {message}")),
    })
}

/// Appends a `tstats` response frame: the tenant id, the counter
/// count, then every counter of [`StatsSnapshot::FIELDS`] as its
/// length-prefixed name and its value.
pub fn encode_tstats(buf: &mut Vec<u8>, request_id: u64, tenant: u64, s: &StatsSnapshot) {
    let pairs: usize = StatsSnapshot::FIELDS.iter().map(|(name, _)| 1 + name.len() + 8).sum();
    encode_header(buf, Opcode::RespTStats, request_id, 10 + pairs);
    buf.extend_from_slice(&tenant.to_le_bytes());
    buf.extend_from_slice(&(StatsSnapshot::FIELDS.len() as u16).to_le_bytes());
    for (name, value) in s.named() {
        buf.push(u8::try_from(name.len()).expect("counter names fit a u8 length"));
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&value.to_le_bytes());
    }
}

/// Decodes a `tstats` response payload into `(tenant, snapshot)`,
/// matching each counter to [`StatsSnapshot::FIELDS`] by name: unknown
/// names are skipped and counters the payload lacks read 0. The
/// snapshot is filled in place, so a declared count reserves nothing.
pub fn decode_tstats(payload: &[u8]) -> Result<(u64, StatsSnapshot), WireError> {
    if payload.len() < 10 {
        return Err(WireError::Truncated { what: "tstats response head" });
    }
    let count = u16::from_le_bytes([payload[8], payload[9]]);
    let mut snapshot = StatsSnapshot::default();
    let mut rest = &payload[10..];
    for _ in 0..count {
        let (&len, tail) =
            rest.split_first().ok_or(WireError::Truncated { what: "stats counter" })?;
        let len = usize::from(len);
        if tail.len() < len + 8 {
            return Err(WireError::Truncated { what: "stats counter" });
        }
        let name = std::str::from_utf8(&tail[..len])
            .ok()
            .filter(|name| !name.is_empty())
            .ok_or(WireError::Malformed { what: "stats counter name" })?;
        if let Some(&(_, field)) = StatsSnapshot::FIELDS.iter().find(|&&(n, _)| n == name) {
            *field(&mut snapshot) = u64_at(tail, len);
        }
        rest = &tail[len + 8..];
    }
    if !rest.is_empty() {
        return Err(WireError::Malformed { what: "bytes after the last stats counter" });
    }
    Ok((u64_at(payload, 0), snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `tcomplete` request payload head: tenant 0, context (0, 0),
    /// then the declared shape.
    fn request_head(rows: u32, cols: u32) -> Vec<u8> {
        let mut payload = vec![0u8; 16];
        payload.extend_from_slice(&rows.to_le_bytes());
        payload.extend_from_slice(&cols.to_le_bytes());
        payload
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
    fn garbage_magic_version_and_opcodes_are_fatal() {
        let mut buf = Vec::new();
        encode_empty(&mut buf, Opcode::Ping, 1);
        let mut bad = buf.clone();
        bad[0] = b'X';
        let err = decode_header(&bad).unwrap_err();
        assert!(matches!(err, WireError::BadMagic(_)));
        assert!(err.is_fatal());
        for version in [1, 9] {
            let mut bad = buf.clone();
            bad[4] = version;
            let err = decode_header(&bad).unwrap_err();
            assert_eq!(err, WireError::BadVersion(version));
            assert!(err.is_fatal());
        }
        // The tenant-less opcodes of version 1 and their responses are
        // not opcodes of this protocol.
        for op in [0x01, 0x02, 0x7f, 0x81, 0x82] {
            let mut bad = buf.clone();
            bad[5] = op;
            let err = decode_header(&bad).unwrap_err();
            assert_eq!(err, WireError::BadOpcode(op));
            assert!(err.is_fatal());
        }
    }

    #[test]
    fn oversized_declared_length_is_refused_before_buffering() {
        let mut buf = Vec::new();
        encode_header(&mut buf, Opcode::TComplete, 1, 0);
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_header(&buf).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
        assert!(err.is_fatal());
    }

    #[test]
    fn oversized_and_overflowing_shapes_are_rejected() {
        // Shape beyond the wire limit, payload length deliberately
        // tiny: the shape check fires without reserving anything.
        let payload = request_head((MAX_WIRE_ELEMS + 1) as u32, 1);
        assert!(matches!(
            decode_tcomplete_request(&payload).unwrap_err(),
            WireError::BadShape { .. }
        ));
        // Admissible shape but a short payload: truncation error, not
        // a large reservation.
        let mut payload = request_head(MAX_WIRE_ELEMS as u32, 1);
        payload.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_tcomplete_request(&payload).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn non_finite_and_zero_mass_rows_are_rejected() {
        let fill = |m: &Matrix| {
            let mut buf = Vec::new();
            encode_tcomplete_request(&mut buf, 1, 0, 0, 0, m);
            let (_, req) = decode_tcomplete_request(&buf[HEADER_LEN..]).unwrap();
            let mut out = Matrix::zeros(m.rows(), m.cols());
            fill_matrix(&req, &mut out)
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let m = Matrix::from_vec(1, 2, vec![0.5, bad]);
            assert_eq!(fill(&m).unwrap_err(), WireError::NonFinite { index: 1 });
        }
        let m = Matrix::from_vec(2, 2, vec![0.5, 0.5, -1.0, 1.0]);
        assert_eq!(fill(&m).unwrap_err(), WireError::ZeroMassNegativeRow { row: 1 });
        // Negative entries with non-zero mass are raw observations.
        assert!(fill(&Matrix::from_vec(1, 2, vec![-1.0, 1.5])).is_ok());
        // All-zero (missing) rows stay valid — completing them is the
        // entire point of the service.
        assert!(fill(&Matrix::zeros(1, 2)).is_ok());
    }

    #[test]
    fn err_frames_map_back_to_typed_errors() {
        for (err, want) in [
            (ServeError::Overloaded, "overloaded"),
            (ServeError::DeadlineExceeded, "deadline"),
            (ServeError::ShardRestarting, "restarting"),
            (ServeError::QuotaExceeded, "quota"),
        ] {
            let mut buf = Vec::new();
            encode_err(&mut buf, 5, &err);
            let header = decode_header(&buf).unwrap().unwrap();
            assert_eq!(header.opcode, Opcode::RespErr);
            let back = decode_err(&buf[HEADER_LEN..]).unwrap();
            assert_eq!(back.code(), want);
        }
        let mut buf = Vec::new();
        encode_err(&mut buf, 5, &ServeError::UnknownTenant(12));
        assert!(matches!(decode_err(&buf[HEADER_LEN..]), Ok(ServeError::UnknownTenant(12))));
    }

    #[test]
    fn tcomplete_request_roundtrip_is_bit_exact() {
        let m = Matrix::from_vec(2, 2, vec![0.1, -2.5, f64::MIN_POSITIVE, 3.0e300]);
        let mut buf = Vec::new();
        encode_tcomplete_request(&mut buf, 99, 7, 3, 5, &m);
        let header = decode_header(&buf).unwrap().unwrap();
        assert_eq!(header.opcode, Opcode::TComplete);
        assert_eq!(header.request_id, 99);
        assert_eq!(buf.len(), HEADER_LEN + header.payload_len);
        let (tenant, req) = decode_tcomplete_request(&buf[HEADER_LEN..]).unwrap();
        assert_eq!(tenant, 7);
        assert_eq!((req.time_of_day, req.day_of_week), (3, 5));
        let mut out = Matrix::zeros(2, 2);
        fill_matrix(&req, &mut out).unwrap();
        assert_eq!(out, m);
    }

    #[test]
    fn tcomplete_response_roundtrip() {
        let m = Matrix::from_vec(1, 3, vec![0.25, 0.5, 0.25]);
        for degraded in [false, true] {
            let mut buf = Vec::new();
            encode_tcomplete_ok(&mut buf, 7, 4, 2, &m, true, degraded, 11, 2);
            let header = decode_header(&buf).unwrap().unwrap();
            assert_eq!(header.opcode, Opcode::RespTComplete);
            assert_eq!(header.request_id, 7);
            let r = decode_tcomplete_ok(&buf[HEADER_LEN..]).unwrap();
            assert_eq!((r.tenant, r.graph_generation), (4, 2));
            assert_eq!(r.body.output, m);
            assert!(r.body.cache_hit);
            assert_eq!(r.body.degraded, degraded);
            assert_eq!((r.body.generation, r.body.shards), (11, 2));
        }
    }

    #[test]
    fn tstats_request_roundtrip_and_length_enforcement() {
        let mut buf = Vec::new();
        encode_tstats_request(&mut buf, 2, 9);
        let header = decode_header(&buf).unwrap().unwrap();
        assert_eq!(header.opcode, Opcode::TStats);
        assert_eq!(decode_tstats_request(&buf[HEADER_LEN..]).unwrap(), 9);
        assert!(decode_tstats_request(&buf[HEADER_LEN..buf.len() - 1]).is_err());
    }

    #[test]
    fn stats_decoder_matches_counters_by_name() {
        // A peer's answer with its counters reordered, one this build
        // does not know, and most of this build's counters missing.
        let mut payload = 5u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&3u16.to_le_bytes());
        for (name, value) in [("cache_hits", 7u64), ("a_newer_counter", 9), ("requests", 11)] {
            payload.push(name.len() as u8);
            payload.extend_from_slice(name.as_bytes());
            payload.extend_from_slice(&value.to_le_bytes());
        }
        let (tenant, s) = decode_tstats(&payload).unwrap();
        assert_eq!(tenant, 5);
        assert_eq!(s, StatsSnapshot { cache_hits: 7, requests: 11, ..Default::default() });
    }
}
