//! Robustness net for the binary wire decoders: whatever bytes arrive,
//! every `wire::decode_*` returns a value or a typed [`WireError`] —
//! it never panics and never hangs. A request payload that decodes is
//! also filled into a matrix of its declared shape, and a successful
//! fill must copy the wire bits exactly.
//!
//! Uniformly random bytes almost never get past the length checks, so
//! two more strategies build near-valid payloads. The first puts the
//! shape fields at every offset a decoder reads them from, makes the
//! entry count match the shape (or miss it by one byte), and draws
//! entries from a palette of zeros, signed ones and halves, NaN and
//! −Inf, so rows that cancel to zero mass are common. The second
//! breaks a real named-stats answer in one of the ways its layout
//! allows, and checks the stats decoder's typed answer to each — and
//! that it never allocates more than the payload it was given.

use gcwc_linalg::Matrix;
use gcwc_serve::wire::{self, CompleteRequest, WireError, HEADER_LEN};
use gcwc_serve::StatsSnapshot;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

thread_local! {
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest single request each thread
/// makes.
struct Largest;

// SAFETY: defers every operation to `System`; the thread local is
// const-initialised, so noting a size never allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` contract passes through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

fn note(bytes: usize) {
    let _ = LARGEST_ALLOC.try_with(|c| c.set(c.get().max(bytes)));
}

/// Runs `f`, returning its result and the largest allocation it made.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_ALLOC.with(|c| c.set(0));
    let out = f();
    (out, LARGEST_ALLOC.with(Cell::get))
}

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
    if let Ok((_, req)) = wire::decode_tcomplete_request(bytes) {
        fill(&req)?;
    }
    let _ = wire::decode_tstats_request(bytes);
    let _ = wire::decode_tcomplete_ok(bytes);
    let _ = wire::decode_err(bytes);
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

/// A snapshot holding `values` in table order.
fn snapshot(values: &[u64]) -> StatsSnapshot {
    let mut s = StatsSnapshot::default();
    for (&(_, field), &v) in StatsSnapshot::FIELDS.iter().zip(values) {
        *field(&mut s) = v;
    }
    s
}

/// Ways to break a named-stats payload (see [`broken_stats`]).
const STATS_BREAKS: usize = 10;

/// The tenant's named-stats payload for `s` broken in way `case` (at
/// counter `victim` where a case picks one), and the answer a decoder
/// owes it: the snapshot when the payload is still well formed, else
/// the typed error.
fn broken_stats(
    s: &StatsSnapshot,
    victim: usize,
    case: usize,
) -> (Vec<u8>, Result<StatsSnapshot, WireError>) {
    let mut frame = Vec::new();
    wire::encode_tstats(&mut frame, 1, 7, s);
    let mut payload = frame.split_off(HEADER_LEN);
    // Byte offset of each counter's length byte.
    let mut starts = Vec::new();
    let mut at = 10;
    for &(name, _) in StatsSnapshot::FIELDS {
        starts.push(at);
        at += 1 + name.len() + 8;
    }
    let n = starts.len() as u16;
    let (victim_at, victim_len) = (starts[victim], StatsSnapshot::FIELDS[victim].0.len());
    let truncated = |what| Err(WireError::Truncated { what });
    let malformed = |what| Err(WireError::Malformed { what });
    let mut count = |c: u16| payload[8..10].copy_from_slice(&c.to_le_bytes());
    let want = match case {
        // The declared count: none, one, all of them, the type's most.
        0 | 1 => {
            count(case as u16);
            malformed("bytes after the last stats counter")
        }
        2 => {
            count(n);
            Ok(*s)
        }
        3 => {
            count(u16::MAX);
            truncated("stats counter")
        }
        // A name of length 0.
        4 => {
            payload[victim_at] = 0;
            malformed("stats counter name")
        }
        // A name of length 255 that no build knows: skipped.
        5 => {
            let long = [255].into_iter().chain([b'x'; 255]);
            payload.splice(victim_at..victim_at + 1 + victim_len, long);
            let mut kept = *s;
            *StatsSnapshot::FIELDS[victim].1(&mut kept) = 0;
            Ok(kept)
        }
        // The last name's length runs past the end.
        6 => {
            payload[*starts.last().expect("a counter")] = 255;
            truncated("stats counter")
        }
        // A name byte UTF-8 never uses.
        7 => {
            payload[victim_at + 1] = 0xff;
            malformed("stats counter name")
        }
        // The last value one byte short.
        8 => {
            payload.pop();
            truncated("stats counter")
        }
        // One byte after the last counter.
        _ => {
            payload.push(0);
            malformed("bytes after the last stats counter")
        }
    };
    (payload, want)
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
    fn near_valid_stats_payloads_get_typed_answers(
        values in collection::vec(0u64..u64::MAX, StatsSnapshot::FIELDS.len()),
        victim in 0usize..StatsSnapshot::FIELDS.len(),
        case in 0usize..STATS_BREAKS,
    ) {
        let s = snapshot(&values);
        let (payload, want) = broken_stats(&s, victim, case);
        check(&payload)?;
        let (got, largest) = largest_alloc(|| wire::decode_tstats(&payload));
        prop_assert_eq!(got, want.map(|s| (7, s)), "case {}", case);
        prop_assert!(
            largest <= payload.len(),
            "decoding {} bytes allocated {} at once (case {})",
            payload.len(),
            largest,
            case
        );
    }
}
