//! Newline-delimited text wire protocol.
//!
//! Requests (one per line):
//!
//! ```text
//! complete <time> <day> <rows> <cols> <hex…>             completion request
//! tcomplete <tenant> <time> <day> <rows> <cols> <hex…>   tenant-scoped completion
//! stats                                                  engine counters
//! tstats <tenant>                                        tenant-scoped counters
//! ping                                                   liveness probe
//! quit                                                   close the connection
//! ```
//!
//! Responses:
//!
//! ```text
//! ok <rows> <cols> <hit 0|1> <generation> <shards> <hex…>
//! degraded <rows> <cols> <hit 0|1> <generation> <shards> <hex…>
//! tok <tenant> <graph_gen> <rows> <cols> <hit 0|1> <generation> <shards> <hex…>
//! tdegraded <tenant> <graph_gen> <rows> <cols> <hit 0|1> <generation> <shards> <hex…>
//! stats <requests> <completed> <batches> <hits> <misses> <evictions> <generation> <shards>
//!       <worker_restarts> <breaker_open> <degraded_responses> <retries>
//!       <records_ingested> <slots_sealed> <late_records_dropped>
//!       <refreshes_applied> <refreshes_rolled_back> <generation_age>
//! tstats <tenant> <22 fields: requests completed batches rejected expired hits misses
//!        evictions generation shards worker_restarts breaker_open degraded_responses
//!        retries records_ingested slots_sealed late_records_dropped refreshes_applied
//!        refreshes_rolled_back generation_age graph_generation quota_rejected>
//! pong
//! bye
//! err <code> <message…>
//! ```
//!
//! The tenant forms (`tcomplete`/`tstats`, answered `tok`/`tdegraded`/
//! `tstats <tenant> …`) scope a request to one registered
//! [`crate::TenantId`] and carry the tenant's **graph generation** so
//! clients detect topology swaps. The legacy tenant-less forms map to
//! the default tenant (id 0) with byte-identical responses, so
//! single-tenant deployments are unaffected. `tstats` reports the full
//! 22-field [`StatsSnapshot`] in declaration order (the legacy `stats`
//! line keeps its historical 18 fields, which skip `rejected`,
//! `expired`, and the two tenant-layer fields).
//!
//! `degraded` has the exact layout of `ok` but signals a *partial*
//! completion: at least one shard could not compute and its owned
//! rows carry the row-prior `P(Z)` instead (healthy shards' rows are
//! exact). A fully healthy response is always the `ok` keyword, so
//! healthy traffic is byte-identical to pre-degradation builds.
//!
//! Matrix entries travel as the `{:016x}` hexadecimal bit patterns of
//! their `f64` values (the same encoding the checkpoint format uses),
//! so a served completion is **bit-exact** across the wire.

use crate::engine::StatsSnapshot;
use crate::ServeError;
use gcwc_linalg::Matrix;

/// Upper bound on matrix entries accepted from the wire. Shapes are
/// validated (overflow-checked) against this *before* any allocation,
/// so a malicious `rows`/`cols` pair cannot force a huge reservation.
pub const MAX_WIRE_ELEMS: usize = 1 << 22;

/// Bytes each wire matrix entry occupies: a space plus 16 hex digits.
pub const WIRE_ELEM_BYTES: usize = 17;

/// Validates a wire matrix shape and returns the element count.
fn checked_elems(rows: usize, cols: usize) -> Result<usize, ServeError> {
    rows.checked_mul(cols).filter(|&t| t <= MAX_WIRE_ELEMS).ok_or_else(|| {
        ServeError::Protocol(format!(
            "matrix shape {rows}x{cols} exceeds the wire limit of {MAX_WIRE_ELEMS} entries"
        ))
    })
}

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Complete the given observed weight matrix under a context.
    Complete {
        /// Time-of-day interval index.
        time_of_day: usize,
        /// Day-of-week index.
        day_of_week: usize,
        /// Observed `rows × cols` weight matrix.
        input: Matrix,
    },
    /// [`Complete`](Request::Complete) scoped to one tenant.
    TComplete {
        /// Target tenant id.
        tenant: u64,
        /// Time-of-day interval index.
        time_of_day: usize,
        /// Day-of-week index.
        day_of_week: usize,
        /// Observed `rows × cols` weight matrix.
        input: Matrix,
    },
    /// Report engine counters.
    Stats,
    /// Report one tenant's counters (all 22 snapshot fields).
    TStats {
        /// Target tenant id.
        tenant: u64,
    },
    /// Liveness probe.
    Ping,
    /// Close the connection.
    Quit,
}

/// Parses the `<time> <day> <rows> <cols> <hex…>` tail shared by the
/// `complete` and `tcomplete` forms.
fn parse_complete_body(
    tokens: &mut std::str::SplitWhitespace<'_>,
    line: &str,
) -> Result<(usize, usize, Matrix), ServeError> {
    let time_of_day = parse_usize(tokens.next(), "time")?;
    let day_of_week = parse_usize(tokens.next(), "day")?;
    let rows = parse_usize(tokens.next(), "rows")?;
    let cols = parse_usize(tokens.next(), "cols")?;
    let total = checked_elems(rows, cols)?;
    // Reserve no more than the line itself could carry, so a
    // short line claiming a big shape cannot reserve much.
    let mut data = Vec::with_capacity(total.min(line.len() / WIRE_ELEM_BYTES + 1));
    for _ in 0..total {
        let tok =
            tokens.next().ok_or_else(|| ServeError::Protocol("truncated matrix data".into()))?;
        let v = parse_f64_hex(tok)?;
        // The hex encoding can smuggle any bit pattern; a NaN
        // or ±Inf here would flow straight into inference and
        // poison every row it convolves with.
        if !v.is_finite() {
            return Err(ServeError::Protocol(format!("non-finite matrix entry {tok}")));
        }
        data.push(v);
    }
    if tokens.next().is_some() {
        return Err(ServeError::Protocol("trailing tokens after matrix".into()));
    }
    if let Some(r) = zero_mass_negative_row(&data, cols) {
        return Err(ServeError::Protocol(format!(
            "row {r} has zero total mass but negative entries"
        )));
    }
    Ok((time_of_day, day_of_week, Matrix::from_vec(rows, cols, data)))
}

/// The first `cols`-wide row of `data` whose entries cancel to exactly
/// zero mass while carrying negative entries. Observed rows are
/// (unnormalised) histogram mass, so such a row is indistinguishable
/// from a missing row by total mass but not all-missing —
/// normalisation would divide by zero downstream; both protocols
/// reject it as malformed. The scan walks `data`, not the declared row
/// count, so a huge row count with zero columns costs nothing.
pub(crate) fn zero_mass_negative_row(data: &[f64], cols: usize) -> Option<usize> {
    if cols == 0 {
        return None;
    }
    data.chunks_exact(cols)
        .position(|row| row.iter().sum::<f64>() == 0.0 && row.iter().any(|&v| v < 0.0))
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some("complete") => {
            let (time_of_day, day_of_week, input) = parse_complete_body(&mut tokens, line)?;
            Ok(Request::Complete { time_of_day, day_of_week, input })
        }
        Some("tcomplete") => {
            let tenant = parse_usize(tokens.next(), "tenant")? as u64;
            let (time_of_day, day_of_week, input) = parse_complete_body(&mut tokens, line)?;
            Ok(Request::TComplete { tenant, time_of_day, day_of_week, input })
        }
        Some("stats") => Ok(Request::Stats),
        Some("tstats") => {
            let tenant = parse_usize(tokens.next(), "tenant")? as u64;
            if tokens.next().is_some() {
                return Err(ServeError::Protocol("trailing tokens after tenant".into()));
            }
            Ok(Request::TStats { tenant })
        }
        Some("ping") => Ok(Request::Ping),
        Some("quit") => Ok(Request::Quit),
        Some(other) => Err(ServeError::Protocol(format!("unknown command {other:?}"))),
        None => Err(ServeError::Protocol("empty request".into())),
    }
}

fn parse_usize(tok: Option<&str>, what: &str) -> Result<usize, ServeError> {
    tok.ok_or_else(|| ServeError::Protocol(format!("missing {what}")))?
        .parse()
        .map_err(|_| ServeError::Protocol(format!("bad {what}")))
}

/// Parses one `{:016x}` f64 bit pattern.
pub fn parse_f64_hex(tok: &str) -> Result<f64, ServeError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| ServeError::Protocol(format!("bad hex value {tok:?}")))
}

/// Appends a matrix as space-separated `{:016x}` bit patterns.
pub fn write_matrix_hex(buf: &mut String, m: &Matrix) {
    use std::fmt::Write;
    for &v in m.as_slice() {
        let _ = write!(buf, " {:016x}", v.to_bits());
    }
}

/// Renders the `ok` (or, for partial completions, `degraded`)
/// response line (no trailing newline). The two keywords share one
/// layout; `ok` is emitted exactly as before degradation existed, so
/// healthy responses stay byte-identical.
pub fn write_ok(
    buf: &mut String,
    output: &Matrix,
    cache_hit: bool,
    generation: u64,
    shards: usize,
    degraded: bool,
) {
    use std::fmt::Write;
    let _ = write!(
        buf,
        "{} {} {} {} {} {}",
        if degraded { "degraded" } else { "ok" },
        output.rows(),
        output.cols(),
        u8::from(cache_hit),
        generation,
        shards
    );
    write_matrix_hex(buf, output);
}

/// Renders the `tok` (or `tdegraded`) response line (no trailing
/// newline): the tenant id and its graph generation, then the exact
/// legacy `ok`/`degraded` tail.
#[allow(clippy::too_many_arguments)]
pub fn write_tok(
    buf: &mut String,
    tenant: u64,
    graph_generation: u64,
    output: &Matrix,
    cache_hit: bool,
    generation: u64,
    shards: usize,
    degraded: bool,
) {
    use std::fmt::Write;
    let _ = write!(
        buf,
        "{} {} {} {} {} {} {} {}",
        if degraded { "tdegraded" } else { "tok" },
        tenant,
        graph_generation,
        output.rows(),
        output.cols(),
        u8::from(cache_hit),
        generation,
        shards
    );
    write_matrix_hex(buf, output);
}

/// Renders the `err` response line (no trailing newline).
pub fn write_err(buf: &mut String, err: &ServeError) {
    use std::fmt::Write;
    let _ = write!(buf, "err {} {}", err.code(), err);
}

/// Renders the `stats` response line (no trailing newline). The six
/// ingestion fields (records ingested, slots sealed, late drops,
/// refreshes applied / rolled back, generation age) trail the original
/// serving counters so existing positional consumers keep working.
pub fn write_stats(buf: &mut String, s: &StatsSnapshot) {
    use std::fmt::Write;
    let _ = write!(
        buf,
        "stats {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        s.requests,
        s.completed,
        s.batches,
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
        s.generation_age
    );
}

/// Renders one tenant's `tstats` response line (no trailing newline):
/// the tenant id followed by all [`StatsSnapshot::TENANT_FIELDS`]
/// counters in declaration order.
pub fn write_tstats(buf: &mut String, tenant: u64, s: &StatsSnapshot) {
    use std::fmt::Write;
    let _ = write!(buf, "tstats {tenant}");
    for field in s.tenant_fields() {
        let _ = write!(buf, " {field}");
    }
}

/// Parses a `tstats` response line back into `(tenant, snapshot)`.
pub fn parse_tstats_response(line: &str) -> Result<(u64, StatsSnapshot), ServeError> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some("tstats") => {
            let tenant = parse_usize(tokens.next(), "tenant")? as u64;
            let mut fields = [0u64; StatsSnapshot::TENANT_FIELDS];
            for slot in fields.iter_mut() {
                *slot = parse_usize(tokens.next(), "stats field")? as u64;
            }
            if tokens.next().is_some() {
                return Err(ServeError::Protocol("trailing tokens after stats".into()));
            }
            Ok((tenant, StatsSnapshot::from_tenant_fields(fields)))
        }
        Some("err") => {
            let code = tokens.next().unwrap_or("unknown");
            let rest: Vec<&str> = tokens.collect();
            Err(remote_error(code, &rest.join(" ")))
        }
        other => Err(ServeError::Protocol(format!("unexpected response {other:?}"))),
    }
}

/// A parsed `ok` or `degraded` response.
#[derive(Debug)]
pub struct OkResponse {
    /// The completed matrix.
    pub output: Matrix,
    /// Whether the completion came from the cache.
    pub cache_hit: bool,
    /// True for a `degraded` response: at least one shard's owned
    /// rows are the row-prior `P(Z)` rather than computed values.
    pub degraded: bool,
    /// Model generation that produced it.
    pub generation: u64,
    /// Number of shards K the completion was gathered from.
    pub shards: usize,
}

/// Parses a server response to a `complete` request.
pub fn parse_complete_response(line: &str) -> Result<OkResponse, ServeError> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        head @ (Some("ok") | Some("degraded")) => {
            let rows = parse_usize(tokens.next(), "rows")?;
            let cols = parse_usize(tokens.next(), "cols")?;
            let hit = parse_usize(tokens.next(), "hit")?;
            let generation = parse_usize(tokens.next(), "generation")? as u64;
            let shards = parse_usize(tokens.next(), "shards")?;
            let total = checked_elems(rows, cols)?;
            let mut data = Vec::with_capacity(total.min(line.len() / WIRE_ELEM_BYTES + 1));
            for _ in 0..total {
                let tok = tokens
                    .next()
                    .ok_or_else(|| ServeError::Protocol("truncated response".into()))?;
                data.push(parse_f64_hex(tok)?);
            }
            Ok(OkResponse {
                output: Matrix::from_vec(rows, cols, data),
                cache_hit: hit != 0,
                degraded: head == Some("degraded"),
                generation,
                shards,
            })
        }
        Some("err") => {
            let code = tokens.next().unwrap_or("unknown");
            let rest: Vec<&str> = tokens.collect();
            Err(remote_error(code, &rest.join(" ")))
        }
        other => Err(ServeError::Protocol(format!("unexpected response {other:?}"))),
    }
}

/// A parsed `tok` or `tdegraded` response.
#[derive(Debug)]
pub struct TokResponse {
    /// The tenant that served the completion.
    pub tenant: u64,
    /// The tenant's graph-topology generation at serve time; a bump
    /// between two responses means a [`gcwc_graph::GraphDelta`] was
    /// applied in between and row indices may have shifted.
    pub graph_generation: u64,
    /// The legacy response body.
    pub body: OkResponse,
}

/// Parses a server response to a `tcomplete` request.
pub fn parse_tcomplete_response(line: &str) -> Result<TokResponse, ServeError> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        head @ (Some("tok") | Some("tdegraded")) => {
            let tenant = parse_usize(tokens.next(), "tenant")? as u64;
            let graph_generation = parse_usize(tokens.next(), "graph generation")? as u64;
            // The tail is exactly the legacy layout; reuse its parser
            // by re-prefixing the matching legacy keyword.
            let keyword = if head == Some("tdegraded") { "degraded" } else { "ok" };
            let rest: Vec<&str> = tokens.collect();
            let body = parse_complete_response(&format!("{keyword} {}", rest.join(" ")))?;
            Ok(TokResponse { tenant, graph_generation, body })
        }
        Some("err") => {
            let code = tokens.next().unwrap_or("unknown");
            let rest: Vec<&str> = tokens.collect();
            Err(remote_error(code, &rest.join(" ")))
        }
        other => Err(ServeError::Protocol(format!("unexpected response {other:?}"))),
    }
}

/// Maps a wire error code back onto a [`ServeError`] (shared by the
/// text response parser and the binary codec in [`crate::wire`]).
pub(crate) fn remote_error(code: &str, message: &str) -> ServeError {
    match code {
        "overloaded" => ServeError::Overloaded,
        "deadline" => ServeError::DeadlineExceeded,
        "shutdown" => ServeError::ShuttingDown,
        "restarting" => ServeError::ShardRestarting,
        "bad_request" => ServeError::BadRequest(message.to_owned()),
        "quota" => ServeError::QuotaExceeded,
        // `tenant <id> is not registered` — recover the id when the
        // message carries it in the documented position.
        "unknown_tenant" => ServeError::UnknownTenant(
            message.split_whitespace().nth(1).and_then(|t| t.parse().ok()).unwrap_or(0),
        ),
        _ => ServeError::Protocol(format!("{code}: {message}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_roundtrip_is_bit_exact() {
        let m = Matrix::from_vec(2, 2, vec![0.1, -2.5, f64::MIN_POSITIVE, 3.0e300]);
        let mut line = String::from("complete 3 5 2 2");
        write_matrix_hex(&mut line, &m);
        match parse_request(&line).unwrap() {
            Request::Complete { time_of_day, day_of_week, input } => {
                assert_eq!((time_of_day, day_of_week), (3, 5));
                assert_eq!(input, m);
            }
            _ => panic!("expected Complete"),
        }
    }

    #[test]
    fn ok_response_roundtrip() {
        let m = Matrix::from_vec(1, 3, vec![0.25, 0.5, 0.25]);
        let mut line = String::new();
        write_ok(&mut line, &m, true, 7, 2, false);
        assert!(line.starts_with("ok "), "healthy responses keep the ok keyword: {line:?}");
        let r = parse_complete_response(&line).unwrap();
        assert_eq!(r.output, m);
        assert!(r.cache_hit);
        assert!(!r.degraded);
        assert_eq!(r.generation, 7);
        assert_eq!(r.shards, 2);
    }

    #[test]
    fn degraded_response_roundtrip() {
        let m = Matrix::from_vec(1, 3, vec![0.25, 0.5, 0.25]);
        let mut line = String::new();
        write_ok(&mut line, &m, false, 7, 2, true);
        assert!(line.starts_with("degraded "), "got {line:?}");
        let r = parse_complete_response(&line).unwrap();
        assert_eq!(r.output, m);
        assert!(r.degraded);
        // Same layout as ok apart from the keyword.
        let mut ok_line = String::new();
        write_ok(&mut ok_line, &m, false, 7, 2, false);
        assert_eq!(line.strip_prefix("degraded"), ok_line.strip_prefix("ok"));
    }

    #[test]
    fn non_finite_inputs_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let m = Matrix::from_vec(1, 2, vec![0.5, bad]);
            let mut line = String::from("complete 0 0 1 2");
            write_matrix_hex(&mut line, &m);
            let err = parse_request(&line).unwrap_err();
            assert!(
                err.to_string().contains("non-finite"),
                "value {bad} must be rejected, got {err}"
            );
        }
    }

    #[test]
    fn zero_mass_rows_with_negative_entries_are_rejected() {
        // Row sums to exactly zero while carrying negative mass.
        let m = Matrix::from_vec(2, 2, vec![0.5, 0.5, -1.0, 1.0]);
        let mut line = String::from("complete 0 0 2 2");
        write_matrix_hex(&mut line, &m);
        let err = parse_request(&line).unwrap_err();
        assert!(err.to_string().contains("row 1"), "got {err}");
        // Negative entries with non-zero mass still parse (the wire
        // carries raw observations; see complete_roundtrip test).
        let ok = Matrix::from_vec(1, 2, vec![-1.0, 1.5]);
        let mut line = String::from("complete 0 0 1 2");
        write_matrix_hex(&mut line, &ok);
        assert!(parse_request(&line).is_ok());
        // All-zero (missing) rows stay valid — completing them is the
        // entire point of the service.
        let missing = Matrix::zeros(1, 2);
        let mut line = String::from("complete 0 0 1 2");
        write_matrix_hex(&mut line, &missing);
        assert!(parse_request(&line).is_ok());
        // Zero columns carry no entries: the row scan must not walk
        // the declared row count (here 2^64 - 1 rows would never end).
        assert!(parse_request(&format!("complete 0 0 {} 0", usize::MAX)).is_ok());
    }

    #[test]
    fn restarting_error_maps_back() {
        let mut line = String::new();
        write_err(&mut line, &ServeError::ShardRestarting);
        assert!(matches!(parse_complete_response(&line), Err(ServeError::ShardRestarting)));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_request("").is_err());
        assert!(parse_request("nonsense 1 2").is_err());
        assert!(parse_request("complete 1 2 2 2 aa").is_err()); // truncated
        assert!(parse_request("complete 1 2 1 1 zz").is_err()); // bad hex
    }

    #[test]
    fn oversized_and_overflowing_shapes_are_rejected_before_allocation() {
        // Claimed size beyond the wire limit: rejected without data.
        let huge = format!("complete 0 0 {} 1", MAX_WIRE_ELEMS + 1);
        assert!(parse_request(&huge).is_err());
        // rows * cols overflows usize: must error, not wrap or panic.
        let overflow = format!("complete 0 0 {} {}", usize::MAX, 2usize);
        assert!(parse_request(&overflow).is_err());
        // Same guards on the response parser.
        let huge_resp = format!("ok {} 1 0 1 1", MAX_WIRE_ELEMS + 1);
        assert!(parse_complete_response(&huge_resp).is_err());
        // Largest admissible shape with a short line: parser errors on
        // the missing data instead of reserving MAX_WIRE_ELEMS slots.
        let claimed = format!("complete 0 0 {} 1 aa", MAX_WIRE_ELEMS);
        assert!(parse_request(&claimed).is_err());
    }

    #[test]
    fn err_response_maps_back() {
        let mut line = String::new();
        write_err(&mut line, &ServeError::Overloaded);
        assert!(matches!(parse_complete_response(&line), Err(ServeError::Overloaded)));
    }

    #[test]
    fn tcomplete_roundtrip_is_bit_exact() {
        let m = Matrix::from_vec(2, 2, vec![0.1, -2.5, f64::MIN_POSITIVE, 3.0e300]);
        let mut line = String::from("tcomplete 9 3 5 2 2");
        write_matrix_hex(&mut line, &m);
        match parse_request(&line).unwrap() {
            Request::TComplete { tenant, time_of_day, day_of_week, input } => {
                assert_eq!((tenant, time_of_day, day_of_week), (9, 3, 5));
                assert_eq!(input, m);
            }
            _ => panic!("expected TComplete"),
        }
        assert!(matches!(parse_request("tstats 7").unwrap(), Request::TStats { tenant: 7 }));
        assert!(parse_request("tstats").is_err(), "tstats requires a tenant id");
        assert!(parse_request("tstats 7 8").is_err(), "trailing tokens rejected");
    }

    #[test]
    fn tok_response_wraps_the_legacy_tail() {
        let m = Matrix::from_vec(1, 3, vec![0.25, 0.5, 0.25]);
        for degraded in [false, true] {
            let mut line = String::new();
            write_tok(&mut line, 4, 2, &m, true, 7, 2, degraded);
            let expect = if degraded { "tdegraded 4 2 " } else { "tok 4 2 " };
            assert!(line.starts_with(expect), "got {line:?}");
            let r = parse_tcomplete_response(&line).unwrap();
            assert_eq!((r.tenant, r.graph_generation), (4, 2));
            assert_eq!(r.body.output, m);
            assert_eq!(r.body.degraded, degraded);
            assert!(r.body.cache_hit);
            assert_eq!((r.body.generation, r.body.shards), (7, 2));
            // The tail after `tok <tenant> <graph_gen>` is exactly the
            // legacy layout.
            let mut legacy = String::new();
            write_ok(&mut legacy, &m, true, 7, 2, degraded);
            let legacy_tail = legacy.split_once(' ').unwrap().1;
            assert!(line.ends_with(legacy_tail));
        }
    }

    #[test]
    fn tenant_errors_map_back() {
        let mut line = String::new();
        write_err(&mut line, &ServeError::QuotaExceeded);
        assert!(matches!(parse_tcomplete_response(&line), Err(ServeError::QuotaExceeded)));
        line.clear();
        write_err(&mut line, &ServeError::UnknownTenant(12));
        assert!(matches!(parse_tcomplete_response(&line), Err(ServeError::UnknownTenant(12))));
        assert!(matches!(parse_tstats_response(&line), Err(ServeError::UnknownTenant(12))));
    }

    #[test]
    fn tstats_roundtrip() {
        let fields: [u64; StatsSnapshot::TENANT_FIELDS] =
            std::array::from_fn(|i| (i as u64 + 1) * 3);
        let snap = StatsSnapshot::from_tenant_fields(fields);
        let mut line = String::new();
        write_tstats(&mut line, 11, &snap);
        assert_eq!(
            line.split_whitespace().count(),
            2 + StatsSnapshot::TENANT_FIELDS,
            "tstats line carries the keyword, the tenant, and every field"
        );
        let (tenant, parsed) = parse_tstats_response(&line).unwrap();
        assert_eq!(tenant, 11);
        assert_eq!(parsed.tenant_fields(), fields);
    }
}
