//! Append-only record log with crash-safe segment files.
//!
//! Records accumulate in a pre-allocated in-memory buffer (the
//! *active* segment); once it reaches the configured capacity it is
//! written out as one immutable segment file through
//! `gcwc_nn::persist::write_atomic` — the file either exists whole or
//! not at all, so a crash at any instant leaves only complete segments
//! on disk (plus at most one `segment-XXXXXXXX.seg.tmp` leftover, which
//! [`RecordLog::open`] discards). The durability unit is the segment: a
//! crash loses at most the records of the active buffer, never tears a
//! published one.
//!
//! Segment format (text, speeds as raw `f64` bit patterns in hex so
//! replay is bit-lossless):
//!
//! ```text
//! gcwc-ingest-segment v1
//! records N
//! <edge> <timestamp> <speed-bits-hex>   × N
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use gcwc_nn::persist;

use crate::record::SpeedRecord;
use crate::IngestError;

const MAGIC: &str = "gcwc-ingest-segment v1";
const SEGMENT_EXT: &str = "seg";

/// Append-only segment log; see the module docs.
pub struct RecordLog {
    dir: PathBuf,
    segment_capacity: usize,
    /// Active (not yet published) segment, pre-allocated to capacity
    /// so the steady-state append path performs no heap allocation.
    active: Vec<SpeedRecord>,
    /// Index of the next segment file to publish.
    next_seq: u64,
    /// Records already published to disk.
    persisted: u64,
    /// Serialisation scratch, reused across segment writes.
    scratch: String,
}

impl RecordLog {
    /// Opens (or creates) the log in `dir`, validating every existing
    /// segment and discarding `.tmp` leftovers of a crashed write.
    /// `segment_capacity` is the records-per-segment durability unit.
    pub fn open(dir: &Path, segment_capacity: usize) -> Result<Self, IngestError> {
        assert!(segment_capacity >= 1, "segment capacity must be at least 1");
        fs::create_dir_all(dir)?;
        let mut max_seq = None;
        let mut persisted = 0u64;
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if name.ends_with(".tmp") {
                // A crash between tmp write and rename: the segment was
                // never published, so the leftover carries no data the
                // log ever acknowledged.
                let _ = fs::remove_file(&path);
                continue;
            }
            let Some(seq) = parse_segment_name(name) else { continue };
            let records = read_segment(&path)?;
            persisted += records.len() as u64;
            max_seq = Some(max_seq.map_or(seq, |m: u64| m.max(seq)));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            segment_capacity,
            active: Vec::with_capacity(segment_capacity),
            next_seq: max_seq.map_or(0, |m| m + 1),
            persisted,
            scratch: String::new(),
        })
    }

    /// Appends one record. Returns `true` when the append published a
    /// full segment to disk (the caller's durability signal). The
    /// non-publishing path is allocation-free.
    pub fn append(&mut self, rec: SpeedRecord) -> Result<bool, IngestError> {
        // Failpoint: an injected disk error refuses the record before
        // any state changes, so the caller can retry it verbatim.
        if gcwc_failpoint::triggered(crate::failsite::LOG_APPEND) {
            return Err(IngestError::Io(std::io::Error::other(format!(
                "failpoint {}: injected append failure",
                crate::failsite::LOG_APPEND
            ))));
        }
        self.active.push(rec);
        if self.active.len() >= self.segment_capacity {
            self.publish_active()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Publishes a partial active buffer as a (short) segment; a no-op
    /// when the buffer is empty. Call on shutdown so no acknowledged
    /// record is lost.
    pub fn flush(&mut self) -> Result<(), IngestError> {
        if self.active.is_empty() {
            return Ok(());
        }
        self.publish_active()
    }

    /// Records buffered in memory, not yet durable.
    pub fn pending(&self) -> usize {
        self.active.len()
    }

    /// Records published to disk.
    pub fn persisted(&self) -> u64 {
        self.persisted
    }

    /// Published segment paths in append order.
    pub fn segments(&self) -> Result<Vec<PathBuf>, IngestError> {
        let mut seqs: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if let Some(seq) = parse_segment_name(name) {
                seqs.push((seq, path));
            }
        }
        seqs.sort_by_key(|(seq, _)| *seq);
        Ok(seqs.into_iter().map(|(_, p)| p).collect())
    }

    /// Replays every published record in append order — the recovery
    /// path that rebuilds the window aggregator after a restart.
    pub fn replay(&self) -> Result<Vec<SpeedRecord>, IngestError> {
        let mut out = Vec::with_capacity(self.persisted as usize);
        for path in self.segments()? {
            out.extend(read_segment(&path)?);
        }
        Ok(out)
    }

    fn publish_active(&mut self) -> Result<(), IngestError> {
        let path = self.dir.join(format!("segment-{:08}.{SEGMENT_EXT}", self.next_seq));
        self.scratch.clear();
        let _ = writeln!(self.scratch, "{MAGIC}");
        let _ = writeln!(self.scratch, "records {}", self.active.len());
        for r in &self.active {
            let _ = writeln!(self.scratch, "{} {} {:016x}", r.edge, r.timestamp, r.speed.to_bits());
        }
        persist::write_atomic(&path, &self.scratch)?;
        self.persisted += self.active.len() as u64;
        self.active.clear();
        self.next_seq += 1;
        Ok(())
    }
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("segment-")?;
    let seq = rest.strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    seq.parse().ok()
}

fn read_segment(path: &Path) -> Result<Vec<SpeedRecord>, IngestError> {
    crate::read_file(path, |r| {
        r.expect(MAGIC)?;
        r.expect("records")?;
        let count = r.number("the record count")?;
        // `<edge> <timestamp> <speed>` takes three tokens.
        r.list(count, 3, |r| {
            Ok(SpeedRecord {
                edge: r.number("an edge")?,
                timestamp: r.number("a timestamp")?,
                speed: r.f64("a speed")?,
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gcwc-ingest-log-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(edge: u32, t: u64, v: f64) -> SpeedRecord {
        SpeedRecord { edge, timestamp: t, speed: v }
    }

    #[test]
    fn appends_publish_full_segments() {
        let dir = tmpdir("publish");
        let mut log = RecordLog::open(&dir, 3).unwrap();
        assert!(!log.append(rec(0, 1, 5.0)).unwrap());
        assert!(!log.append(rec(1, 2, 6.5)).unwrap());
        assert!(log.append(rec(2, 3, 7.25)).unwrap());
        assert_eq!(log.pending(), 0);
        assert_eq!(log.persisted(), 3);
        assert_eq!(log.segments().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_is_bit_lossless_in_append_order() {
        let dir = tmpdir("replay");
        let records: Vec<SpeedRecord> =
            (0..7).map(|i| rec(i, 100 + i as u64, (i as f64) * 0.1 + f64::MIN_POSITIVE)).collect();
        let mut log = RecordLog::open(&dir, 3).unwrap();
        for &r in &records {
            log.append(r).unwrap();
        }
        log.flush().unwrap();
        let back = log.replay().unwrap();
        assert_eq!(back.len(), records.len());
        for (a, b) in back.iter().zip(&records) {
            assert_eq!(a.speed.to_bits(), b.speed.to_bits());
            assert_eq!((a.edge, a.timestamp), (b.edge, b.timestamp));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_resumes_sequence_and_count() {
        let dir = tmpdir("reopen");
        let mut log = RecordLog::open(&dir, 2).unwrap();
        for i in 0..4 {
            log.append(rec(i, i as u64, 1.0)).unwrap();
        }
        drop(log);
        let mut log = RecordLog::open(&dir, 2).unwrap();
        assert_eq!(log.persisted(), 4);
        for i in 4..6 {
            log.append(rec(i, i as u64, 2.0)).unwrap();
        }
        assert_eq!(log.segments().unwrap().len(), 3);
        assert_eq!(log.replay().unwrap().len(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_discards_tmp_leftovers_and_rejects_torn_segments() {
        let dir = tmpdir("torn");
        fs::write(dir.join("segment-00000000.seg.tmp"), "half a write").unwrap();
        let log = RecordLog::open(&dir, 2).unwrap();
        assert_eq!(log.persisted(), 0);
        assert!(!dir.join("segment-00000000.seg.tmp").exists());
        // A published-but-mangled segment is a hard error, not silent
        // data loss; a record count the file cannot hold (up to `usize::MAX`)
        // is the same error, not an allocation failure.
        for count in ["5", "18446744073709551615"] {
            let text = format!("gcwc-ingest-segment v1\nrecords {count}\n1 2 0\n");
            fs::write(dir.join("segment-00000001.seg"), text).unwrap();
            let err = RecordLog::open(&dir, 2).err().expect("a corrupt segment must not open");
            assert!(
                matches!(&err, IngestError::Corrupt { reason, .. }
                    if reason == "malformed file: expected an edge, found end of input"),
                "records {count}: {err}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_of_empty_buffer_is_noop() {
        let dir = tmpdir("noop");
        let mut log = RecordLog::open(&dir, 4).unwrap();
        log.flush().unwrap();
        assert!(log.segments().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
