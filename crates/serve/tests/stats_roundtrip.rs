//! The stats schema, pinned by one round trip: every [`StatsSnapshot`]
//! field crosses the wire (opcode 0x86) under its own name and comes
//! back equal. A field left out of [`StatsSnapshot::FIELDS`] never
//! reaches the wire, so it decodes as 0 and fails here, and so does a
//! table line that reads the wrong field or repeats a name.

use gcwc_serve::wire::{self, Opcode, HEADER_LEN};
use gcwc_serve::StatsSnapshot;
use std::collections::{BTreeMap, HashSet};

/// A snapshot whose fields all hold distinct non-zero values. The
/// literal names every field, so a new field does not compile until it
/// is given a value here.
fn distinct() -> StatsSnapshot {
    StatsSnapshot {
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
        graph_generation: 21,
        quota_rejected: u64::MAX,
    }
}

/// Every field of `s` by name, read from its `Debug` form: the
/// struct's own field list, independent of [`StatsSnapshot::FIELDS`].
fn fields_by_name(s: &StatsSnapshot) -> BTreeMap<String, u64> {
    let debug = format!("{s:?}");
    let body = debug
        .strip_prefix("StatsSnapshot { ")
        .and_then(|d| d.strip_suffix(" }"))
        .expect("a struct's Debug form");
    body.split(", ")
        .map(|field| {
            let (name, value) = field.split_once(": ").expect("`name: value`");
            (name.to_owned(), value.parse().expect("a u64 value"))
        })
        .collect()
}

#[test]
fn every_counter_round_trips_by_name() {
    let sent = distinct();
    let by_field = fields_by_name(&sent);
    let values: HashSet<u64> = by_field.values().copied().collect();
    assert_eq!(values.len(), by_field.len(), "every field holds its own value");

    let names: HashSet<&str> = StatsSnapshot::FIELDS.iter().map(|&(name, _)| name).collect();
    assert_eq!(names.len(), StatsSnapshot::FIELDS.len(), "stats names must be distinct");
    let by_table: BTreeMap<String, u64> =
        sent.named().map(|(name, value)| (name.to_owned(), value)).collect();
    assert_eq!(by_table, by_field, "the table must name every field after itself");

    let mut frame = Vec::new();
    wire::encode_tstats(&mut frame, 3, 9, &sent);
    let header = wire::decode_header(&frame).unwrap().expect("a whole header");
    assert_eq!((header.opcode, header.request_id), (Opcode::RespTStats, 3));
    assert_eq!(header.payload_len, frame.len() - HEADER_LEN);
    let (tenant, back) = wire::decode_tstats(&frame[HEADER_LEN..]).unwrap();
    assert_eq!(tenant, 9);
    assert_eq!(fields_by_name(&back), by_field, "every field must come back by name");
}
