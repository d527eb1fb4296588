//! The single-owner ingestion pipeline: log every record durably, fold
//! it into the sliding window, and surface sealed slots for refresh.
//!
//! One thread owns the [`Pipeline`]; producers reach it through the
//! [`crate::Intake`] queue. Every accepted record is appended to the
//! [`RecordLog`] *first* (the log is the durable source of truth —
//! late records are logged too, even though the window drops them) and
//! then offered to the [`Aggregator`]. Sealed slots accumulate in an
//! internal buffer until the refresh driver takes them.

use std::sync::Arc;

use gcwc_serve::IngestStats;

use crate::log::RecordLog;
use crate::record::SpeedRecord;
use crate::window::{Aggregator, SealedSlot};
use crate::IngestError;

/// Log + window behind one `ingest` call; see the module docs.
pub struct Pipeline {
    log: RecordLog,
    window: Aggregator,
    /// Sealed slots not yet consumed by the refresh driver.
    ready: Vec<SealedSlot>,
    stats: Option<Arc<IngestStats>>,
}

impl Pipeline {
    /// A pipeline over the given log and window.
    pub fn new(log: RecordLog, window: Aggregator) -> Self {
        Self { log, window, ready: Vec::new(), stats: None }
    }

    /// Mirrors pipeline counters into the serving engine's stats (the
    /// same [`IngestStats`] handed to `Engine::attach_ingest`).
    pub fn with_stats(mut self, stats: Arc<IngestStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Ingests one record: durable log append, then window fold.
    /// Returns `true` when the window accepted it, `false` when its
    /// slot had already sealed (the record is still logged).
    ///
    /// A record whose edge is outside the window's graph, or whose
    /// speed is not finite, is refused with
    /// [`IngestError::InvalidRecord`] before anything happens: it is
    /// not logged, not folded and not counted. Any other `Err` means
    /// the log refused the record — nothing was folded, so the caller
    /// can retry the same record.
    pub fn ingest(&mut self, rec: SpeedRecord) -> Result<bool, IngestError> {
        if rec.edge as usize >= self.window.config().num_edges {
            return Err(IngestError::InvalidRecord { record: rec, reason: "edge out of range" });
        }
        if !rec.speed.is_finite() {
            return Err(IngestError::InvalidRecord { record: rec, reason: "non-finite speed" });
        }
        self.log.append(rec)?;
        let accepted = self.window.offer(rec);
        if let Some(stats) = &self.stats {
            stats.add_records(1);
            if !accepted {
                stats.late_dropped();
            }
        }
        Ok(accepted)
    }

    /// Seals every slot the watermark has passed; returns how many.
    pub fn seal_ready(&mut self) -> Result<usize, IngestError> {
        let sealed = self.window.seal_ready(&mut self.ready)?;
        self.note_sealed(sealed);
        Ok(sealed)
    }

    /// Seals every open slot regardless of the watermark (end of
    /// stream / shutdown).
    pub fn seal_all(&mut self) -> Result<usize, IngestError> {
        let sealed = self.window.seal_all(&mut self.ready)?;
        self.note_sealed(sealed);
        Ok(sealed)
    }

    fn note_sealed(&self, sealed: usize) {
        if let Some(stats) = &self.stats {
            for _ in 0..sealed {
                stats.slot_sealed();
            }
        }
    }

    /// Takes the slots sealed since the last call, oldest first — the
    /// refresh driver's input.
    pub fn take_sealed(&mut self) -> Vec<SealedSlot> {
        std::mem::take(&mut self.ready)
    }

    /// Sealed slots awaiting [`Pipeline::take_sealed`].
    pub fn sealed_pending(&self) -> usize {
        self.ready.len()
    }

    /// Flushes the log's active buffer to disk (shutdown path).
    pub fn flush(&mut self) -> Result<(), IngestError> {
        self.log.flush()
    }

    /// The underlying record log.
    pub fn log(&self) -> &RecordLog {
        &self.log
    }

    /// The sliding-window aggregator.
    pub fn window(&self) -> &Aggregator {
        &self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowConfig;
    use gcwc_traffic::HistogramSpec;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gcwc-ingest-pipe-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> WindowConfig {
        WindowConfig {
            num_edges: 3,
            spec: HistogramSpec::hist4(),
            slot_secs: 100,
            slots_per_day: 4,
            grace_secs: 0,
            min_records: 1,
            retain_slots: 8,
        }
    }

    fn rec(edge: u32, t: u64, v: f64) -> SpeedRecord {
        SpeedRecord { edge, timestamp: t, speed: v }
    }

    #[test]
    fn records_flow_log_then_window() {
        let dir = tmpdir("flow");
        let log = RecordLog::open(&dir, 2).unwrap();
        let mut pipe = Pipeline::new(log, Aggregator::new(cfg()));
        assert!(pipe.ingest(rec(0, 10, 5.0)).unwrap());
        assert!(pipe.ingest(rec(1, 110, 6.0)).unwrap());
        assert_eq!(pipe.seal_ready().unwrap(), 1);
        let sealed = pipe.take_sealed();
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].slot, 0);
        assert_eq!(pipe.log().persisted(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn late_records_are_logged_but_not_folded() {
        let dir = tmpdir("late");
        let log = RecordLog::open(&dir, 16).unwrap();
        let mut pipe = Pipeline::new(log, Aggregator::new(cfg()));
        pipe.ingest(rec(0, 10, 5.0)).unwrap();
        pipe.ingest(rec(0, 150, 6.0)).unwrap();
        pipe.seal_ready().unwrap(); // seals slot 0
        assert!(!pipe.ingest(rec(0, 20, 9.0)).unwrap());
        assert_eq!(pipe.window().late_dropped(), 1);
        pipe.flush().unwrap();
        // The late record still made it to the durable log.
        assert_eq!(pipe.log().replay().unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_records_are_refused_before_the_log() {
        let dir = tmpdir("invalid");
        let stats = Arc::new(IngestStats::new());
        let log = RecordLog::open(&dir, 2).unwrap();
        let mut pipe = Pipeline::new(log, Aggregator::new(cfg())).with_stats(Arc::clone(&stats));
        pipe.ingest(rec(0, 10, 5.0)).unwrap();
        let before = (pipe.log().pending(), pipe.log().persisted(), pipe.window().accepted());
        // `cfg()` has 3 edges: edge 3 is the first out of range.
        for bad in [rec(3, 20, 5.0), rec(1, 20, f64::NAN), rec(1, 20, f64::NEG_INFINITY)] {
            let Err(IngestError::InvalidRecord { record, .. }) = pipe.ingest(bad) else {
                panic!("{bad:?} was not refused as an invalid record");
            };
            assert_eq!(record.speed.to_bits(), bad.speed.to_bits());
            assert_eq!((record.edge, record.timestamp), (bad.edge, bad.timestamp));
            let after = (pipe.log().pending(), pipe.log().persisted(), pipe.window().accepted());
            assert_eq!(after, before, "{bad:?} moved the log or the window");
        }
        assert_eq!(stats.snapshot()[0], 1, "a refused record is not counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_mirror_pipeline_counters() {
        let dir = tmpdir("stats");
        let stats = Arc::new(IngestStats::new());
        let log = RecordLog::open(&dir, 16).unwrap();
        let mut pipe = Pipeline::new(log, Aggregator::new(cfg())).with_stats(Arc::clone(&stats));
        pipe.ingest(rec(0, 10, 5.0)).unwrap();
        pipe.ingest(rec(1, 150, 6.0)).unwrap();
        pipe.seal_ready().unwrap();
        pipe.ingest(rec(0, 20, 9.0)).unwrap(); // late
        let [records, sealed, late, applied, rolled_back, age] = stats.snapshot();
        assert_eq!(records, 3);
        assert_eq!(sealed, 1);
        assert_eq!(late, 1);
        assert_eq!((applied, rolled_back), (0, 0));
        assert_eq!(age, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
