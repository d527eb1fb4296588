//! The scaling record end to end: `exp_runner --smoke --threads=1
//! scaling --json` runs every configuration of the ×1 grid in a child
//! process of its own and writes `BENCH_scaling.json` with every column.
//! It runs in a temporary directory, so nothing lands in the tree.

use std::process::Command;

/// The value of `key` in one JSON row line, as written.
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let at = row.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("{key} missing: {row}"));
    let rest = &row[at + key.len() + 4..];
    rest[..rest.find([',', '}']).expect("value ends")].trim_matches('"')
}

#[test]
fn smoke_grid_writes_one_sound_row_per_configuration() {
    let dir = std::env::temp_dir().join(format!("gcwc-scaling-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_exp_runner"))
        .args(["--smoke", "--threads=1", "scaling", "--json"])
        .current_dir(&dir)
        .output()
        .expect("run exp_runner");
    let json = std::fs::read_to_string(dir.join("BENCH_scaling.json"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.status.success(), "exp_runner failed: {}", String::from_utf8_lossy(&out.stderr));
    let json = json.expect("BENCH_scaling.json written");

    let rows: Vec<&str> = json.lines().filter(|l| l.trim_start().starts_with("{\"")).collect();
    let mut configs: Vec<String> =
        rows.iter().map(|r| format!("{} K={}", field(r, "model"), field(r, "shards"))).collect();
    configs.sort_unstable();
    assert_eq!(
        configs,
        ["A-GCWC K=1", "A-GCWC K=2", "A-GCWC K=4", "GCWC K=1", "GCWC K=2", "GCWC K=4"],
        "one row per model and K at ×1 and one thread"
    );

    for row in &rows {
        assert_eq!(field(row, "failed"), "null", "failed row: {row}");
        assert_eq!((field(row, "scale"), field(row, "threads")), ("1", "1"));
        assert_eq!(field(row, "edges"), "172");
        for key in ["batch_wall_s", "batch_cpu_s", "predict_s", "peak_rss_mb", "allocs_per_step"] {
            let v: f64 = field(row, key).parse().unwrap_or_else(|_| panic!("{key} in {row}"));
            assert!(v > 0.0, "{key} must be above 0: {row}");
        }
        for key in ["tv_all", "tv_boundary"] {
            let v = field(row, key);
            if field(row, "shards") == "1" {
                assert_eq!(v, "null", "K = 1 has no distance from itself: {row}");
            } else {
                let v: f64 = v.parse().unwrap_or_else(|_| panic!("{key} in {row}"));
                assert!((0.0..=1.0).contains(&v), "{key} outside [0, 1]: {row}");
            }
        }
    }
}
