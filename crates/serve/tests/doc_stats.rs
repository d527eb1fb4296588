//! Doc lock: the README/DESIGN sentences documenting how many counter
//! fields the `stats` and `tstats` lines and the binary `stats` frame
//! carry are checked against the *real* encoder output. Adding a
//! counter without updating the docs (or vice versa) fails this suite,
//! not a reader's expectations.

use gcwc_serve::{protocol, wire, StatsSnapshot};

fn fixture() -> StatsSnapshot {
    let mut fields = [0u64; StatsSnapshot::TENANT_FIELDS];
    for (i, f) in fields.iter_mut().enumerate() {
        *f = i as u64 + 1;
    }
    StatsSnapshot::from_tenant_fields(fields)
}

/// The legacy text `stats` line is the keyword plus exactly 18 counter
/// fields; the tenant-scoped `tstats` line is the keyword, the tenant
/// id, and exactly [`StatsSnapshot::TENANT_FIELDS`] counters; the
/// binary `stats` payload is exactly 20 `u64`s.
#[test]
fn stats_lines_carry_the_documented_field_counts() {
    let s = fixture();

    let mut line = String::new();
    protocol::write_stats(&mut line, &s);
    let legacy_fields = line.split_whitespace().count() - 1;
    assert_eq!(legacy_fields, 18, "legacy stats line drifted: {line:?}");

    line.clear();
    protocol::write_tstats(&mut line, 7, &s);
    let tenant_fields = line.split_whitespace().count() - 2;
    assert_eq!(tenant_fields, StatsSnapshot::TENANT_FIELDS, "tstats line drifted: {line:?}");
    assert_eq!(tenant_fields, 22, "TENANT_FIELDS changed without updating the docs suite");

    assert_eq!(binary_stats_words(&s), 20, "binary stats frame drifted");
}

/// `u64`s in the binary `stats` response payload.
fn binary_stats_words(s: &StatsSnapshot) -> usize {
    let mut frame = Vec::new();
    wire::encode_stats(&mut frame, 0, s);
    (frame.len() - wire::HEADER_LEN) / 8
}

/// README.md and DESIGN.md each state all three counts in prose; the
/// sentences are located by the exact phrases asserted here, built
/// from the *measured* field counts so the docs can only pass when
/// they match the encoders.
#[test]
fn readme_and_design_document_the_measured_field_counts() {
    let s = fixture();
    let mut line = String::new();
    protocol::write_stats(&mut line, &s);
    let legacy_fields = line.split_whitespace().count() - 1;
    line.clear();
    protocol::write_tstats(&mut line, 7, &s);
    let tenant_fields = line.split_whitespace().count() - 2;
    let binary_words = binary_stats_words(&s);

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for doc in ["README.md", "DESIGN.md"] {
        // Prose wraps at 72 columns; fold the docs to single-space so
        // a phrase split across a line break still matches.
        let text = std::fs::read_to_string(format!("{root}/{doc}"))
            .unwrap()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        let legacy_phrase = format!("exactly {legacy_fields} counter fields");
        assert!(
            text.contains(&legacy_phrase),
            "{doc} must state the legacy stats line carries \"{legacy_phrase}\""
        );
        let tenant_phrase = format!("carries exactly {tenant_fields}");
        assert!(
            text.contains(&tenant_phrase),
            "{doc} must state the tstats line \"{tenant_phrase}\" fields"
        );
        let binary_phrase = format!("exactly {binary_words} little-endian `u64`s");
        assert!(
            text.contains(&binary_phrase),
            "{doc} must state the binary stats frame carries \"{binary_phrase}\""
        );
    }
}
