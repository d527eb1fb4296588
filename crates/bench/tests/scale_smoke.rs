//! Smoke coverage for the scale sweep (`exp_runner scale-sweep`): the
//! downsampled ×10 sweep produces a `BENCH_scale.json` with every
//! schema field present and sane, and the GCWC rows hold the
//! steady-state training step at **zero** heap allocations (the
//! counting allocator below makes that a real measurement).
//!
//! The test is `#[ignore]`d: it takes minutes in debug builds, so the
//! CI `scale` job runs it in release instead of the tier-1 test pass.

use gcwc_bench::allocs::CountingAlloc;
use gcwc_bench::scalesweep::{run, to_json, ScaleSweepConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
#[ignore = "minutes in a debug build; the CI scale job runs it in release"]
fn smoke_sweep_writes_valid_schema() {
    gcwc_linalg::parallel::set_global_threads(1);
    let cfg = ScaleSweepConfig { scales: vec![10], steps: 2, serve_reqs: 2, seed: 42 };
    let report = run(&cfg);

    assert_eq!(report.rows.len(), 2, "one GCWC and one GCWC-M2 row per scale");
    for row in &report.rows {
        assert_eq!(row.scale, 10);
        assert_eq!(row.edges, 1720);
        assert!(row.train_step_ns > 0);
        assert!(row.serve_p50_ns > 0 && row.serve_p50_ns <= row.serve_p99_ns);
        assert!(row.peak_rss_kb > 0, "VmHWM must be readable on Linux CI");
    }
    let gcwc_row = &report.rows[0];
    assert_eq!((gcwc_row.variant, gcwc_row.shards), ("GCWC", 1));
    assert_eq!(
        gcwc_row.allocs_per_step, 0,
        "steady-state training step must stay allocation-free at scale"
    );
    let m2 = &report.rows[1];
    assert_eq!((m2.variant, m2.shards), ("GCWC-M2", 2));

    let json = to_json(&report);
    for field in [
        "\"rows\"",
        "\"scale\"",
        "\"edges\"",
        "\"variant\"",
        "\"shards\"",
        "\"train_step_ns\"",
        "\"serve_p50_ns\"",
        "\"serve_p99_ns\"",
        "\"peak_rss_kb\"",
        "\"allocs_per_step\"",
    ] {
        assert!(json.contains(field), "schema field {field} missing from {json}");
    }
    assert!(json.starts_with("{\n") && json.ends_with("}\n"));
}
