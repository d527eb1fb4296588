//! Robustness net for the binary wire decoders: whatever bytes arrive,
//! every `wire::decode_*` returns a value or a typed [`WireError`] —
//! it never panics and never hangs. A request payload that decodes is
//! also filled into a matrix of its declared shape, and a successful
//! fill must copy the wire bits exactly.
//!
//! Uniformly random bytes almost never get past the length checks, so
//! a second strategy builds near-valid payloads: the shape fields sit
//! at every offset a decoder reads them from, the entry count matches
//! the shape (or misses it by one byte), and entries come from a
//! palette of zeros, signed ones and halves, NaN and −Inf, so rows
//! that cancel to zero mass are common.

use gcwc_linalg::Matrix;
use gcwc_serve::wire::{self, CompleteRequest, WireError};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const PALETTE: [f64; 10] =
    [0.0, -0.0, 1.0, -1.0, 1.0, -1.0, 0.5, -0.5, f64::NAN, f64::NEG_INFINITY];

/// Fills a decoded request into a matrix of its declared shape; on
/// success every entry must carry the wire's bit pattern.
fn fill(req: &CompleteRequest<'_>) -> Result<(), String> {
    let mut out = Matrix::zeros(req.rows, req.cols);
    match wire::fill_matrix(req, &mut out) {
        Ok(()) => {
            for (i, chunk) in req.data.chunks_exact(8).enumerate() {
                let bits = u64::from_le_bytes(chunk.try_into().unwrap());
                if out.as_slice()[i].to_bits() != bits {
                    return Err(format!("entry {i} not copied bit-exactly"));
                }
            }
            Ok(())
        }
        Err(WireError::NonFinite { .. } | WireError::ZeroMassNegativeRow { .. }) => Ok(()),
        Err(e) => Err(format!("fill_matrix returned a decode-stage error: {e}")),
    }
}

/// Runs every decoder over `bytes`.
fn decode_everything(bytes: &[u8]) -> Result<(), String> {
    let _ = wire::decode_header(bytes);
    if let Ok(req) = wire::decode_complete_request(bytes) {
        fill(&req)?;
    }
    if let Ok((_, req)) = wire::decode_tcomplete_request(bytes) {
        fill(&req)?;
    }
    let _ = wire::decode_tstats_request(bytes);
    let _ = wire::decode_complete_ok(bytes);
    let _ = wire::decode_tcomplete_ok(bytes);
    let _ = wire::decode_err(bytes);
    let _ = wire::decode_stats(bytes);
    let _ = wire::decode_tstats(bytes);
    Ok(())
}

fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    match catch_unwind(AssertUnwindSafe(|| decode_everything(bytes))) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(msg)) => Err(TestCaseError::fail(format!("{msg} on {bytes:02x?}"))),
        Err(_) => Err(TestCaseError::fail(format!("a decoder panicked on {bytes:02x?}"))),
    }
}

/// A shape dimension: mostly small, sometimes at or past the limits.
fn dim(v: u32) -> u32 {
    match v % 16 {
        0 => u32::MAX,
        1 => 1 << 22,
        2 => 1 << 11,
        s => s % 5,
    }
}

/// A near-valid payload: `lead` header bytes, the shape, then the
/// entries — exactly `rows * cols` of them when that is small, and
/// `tweak` drops or appends one byte.
fn near_valid(lead: &[u64], rows: u32, cols: u32, entries: &[u64], tweak: usize) -> Vec<u8> {
    let mut out: Vec<u8> = lead.iter().flat_map(|w| w.to_le_bytes()).collect();
    out.extend_from_slice(&rows.to_le_bytes());
    out.extend_from_slice(&cols.to_le_bytes());
    let count = (rows as usize).checked_mul(cols as usize).filter(|&c| c <= entries.len());
    for &e in &entries[..count.unwrap_or(entries.len() / 4)] {
        let v = PALETTE.get((e % 12) as usize).copied().unwrap_or(f64::from_bits(e));
        out.extend_from_slice(&v.to_le_bytes());
    }
    match tweak {
        0 => {
            out.pop();
        }
        1 => out.push(0xa5),
        _ => {}
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in collection::vec(0u32..256, 0..200)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        check(&bytes)?;
    }

    #[test]
    fn near_valid_payloads_never_panic_a_decoder(
        lead in collection::vec(0u64..u64::MAX, 0..6),
        shape in (0u32..u32::MAX, 0u32..u32::MAX),
        entries in collection::vec(0u64..u64::MAX, 16),
        tweak in 0usize..4,
    ) {
        let bytes = near_valid(&lead, dim(shape.0), dim(shape.1), &entries, tweak);
        check(&bytes)?;
    }

    #[test]
    fn word_aligned_payloads_never_panic_a_decoder(
        words in collection::vec(0u64..u64::MAX, 18..26),
    ) {
        // Covers the exact lengths of the stats (20 words) and tstats
        // (23 words) responses, and their neighbours.
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        check(&bytes)?;
    }
}
