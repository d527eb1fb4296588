//! Process and thread resource readings: CPU time from `getrusage`,
//! peak resident set size from `/proc/self/status`, and the provenance
//! every record carries.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct TimeVal {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two `timeval`s, then 14 `long`
/// counters this benchmark does not read.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    _rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_THREAD: c_int = 1;

fn rusage_cpu_ns(who: c_int) -> u64 {
    let mut usage = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        _rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // kernel's layout, and `who` is one of the two values the kernel
    // accepts for it.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let us = |t: &TimeVal| t.sec as u64 * 1_000_000 + t.usec as u64;
    (us(&usage.utime) + us(&usage.stime)) * 1_000
}

/// User + system CPU of the whole process (every thread, live or
/// exited), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    rusage_cpu_ns(RUSAGE_SELF)
}

/// User + system CPU of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    rusage_cpu_ns(RUSAGE_THREAD)
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An environment variable's value, with unset reported as `unset`.
pub fn env_or_unset(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unset".to_owned())
}

/// The source tree the benchmark was built from: an FNV-1a digest of
/// every Rust source file and manifest under `crates/` and `perfbench/`.
/// Unlike a commit hash it also tells an uncommitted change from its
/// parent, and it reads the same in a checkout without git metadata.
pub fn source_tree() -> String {
    let mut files = Vec::new();
    for root in ["crates", "perfbench"] {
        collect_sources(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = crate::stats::Fnv::new();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        if let Ok(data) = std::fs::read(f) {
            h.bytes(&data);
        }
    }
    format!("tree-{:016x}", h.finish())
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if name.to_string_lossy().starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
