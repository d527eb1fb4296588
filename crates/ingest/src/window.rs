//! Sliding-window aggregation: records → per-slot `W` weight matrices.
//!
//! Records are folded into per-(slot, edge) speed lists; a slot is
//! **sealed** — its histograms built into a [`WeightMatrix`] — once
//! the *watermark* (maximum observed event time minus the grace
//! window) passes the slot's end. Records for a not-yet-sealed slot
//! are accepted no matter how late they arrive relative to other
//! records; records for an already-sealed slot are counted and
//! dropped.
//!
//! **Determinism.** Sealed matrices depend only on the *set* of
//! records accepted into the slot, never their arrival order: the
//! histogram build counts bucket memberships (exact integer
//! increments) and divides once, and the coverage rule is a pure count
//! threshold. Feeding any permutation or chunking of the same record
//! stream and then sealing yields `to_bits`-identical matrices —
//! pinned by the `determinism` proptest suite.

use std::collections::BTreeMap;

use gcwc::TrainSample;
use gcwc_traffic::{Context, HistogramSpec, WeightMatrix};

use crate::record::SpeedRecord;
use crate::IngestError;

/// Shape of the sliding window.
#[derive(Clone, Copy, Debug)]
pub struct WindowConfig {
    /// Number of edges `n` in the served graph.
    pub num_edges: usize,
    /// Histogram specification shared with training/serving.
    pub spec: HistogramSpec,
    /// Slot length in seconds (the paper's 15-min slots: 900).
    pub slot_secs: u64,
    /// Slots per day (96 in the paper); slot index modulo this is the
    /// time-of-day context, and whole days rotate the day-of-week.
    pub slots_per_day: usize,
    /// Grace window in seconds: a slot seals only once the maximum
    /// observed event time exceeds its end by this much, so records up
    /// to `grace_secs` out of order are still accepted.
    pub grace_secs: u64,
    /// An edge's histogram instantiates only from at least this many
    /// records (the `min_records` of `TrafficData::ground_truth`).
    pub min_records: usize,
    /// Sealed slots retained for fine-tuning + validation; older ones
    /// slide out.
    pub retain_slots: usize,
}

impl WindowConfig {
    /// The paper's slot shape (15-min slots, 96/day) over `n` edges
    /// with a one-slot grace window and a two-day retention.
    pub fn paper(num_edges: usize, spec: HistogramSpec) -> Self {
        Self {
            num_edges,
            spec,
            slot_secs: 900,
            slots_per_day: 96,
            grace_secs: 900,
            min_records: 3,
            retain_slots: 192,
        }
    }
}

/// Per-edge record lists of one open slot, recycled across slots so
/// the steady-state intake path stays allocation-free.
struct SlotAccum {
    speeds: Vec<Vec<f64>>,
    count: usize,
}

impl SlotAccum {
    fn new(num_edges: usize) -> Self {
        Self { speeds: (0..num_edges).map(|_| Vec::new()).collect(), count: 0 }
    }

    fn reset(&mut self) {
        for v in &mut self.speeds {
            v.clear(); // keeps capacity for the next slot
        }
        self.count = 0;
    }
}

/// One sealed time slot: the observed weight matrix plus its context.
#[derive(Clone, Debug)]
pub struct SealedSlot {
    /// Global slot index (`timestamp / slot_secs`).
    pub slot: u64,
    /// The slot's observed `W`: per-edge speed histograms, zero rows
    /// for edges below the record threshold.
    pub weights: WeightMatrix,
    /// Context of the slot (time-of-day / day-of-week / coverage).
    pub context: Context,
    /// Records folded into the slot.
    pub records: usize,
}

impl SealedSlot {
    /// An estimation-task training sample: complete the slot's own
    /// matrix, scored on its covered rows — the streaming analogue of
    /// `build_samples(.., TaskKind::Estimation, ..)`.
    pub fn to_sample(&self, index: usize) -> TrainSample {
        TrainSample {
            snapshot_index: index,
            input: self.weights.matrix().clone(),
            label: self.weights.matrix().clone(),
            label_mask: self.weights.row_flags(),
            context: self.context.clone(),
            history: Vec::new(),
        }
    }
}

/// The sliding-window aggregator; see the module docs.
pub struct Aggregator {
    cfg: WindowConfig,
    /// Open slots by slot index (`BTreeMap` so sealing walks them in
    /// time order).
    open: BTreeMap<u64, SlotAccum>,
    /// Recycled accumulators of previously sealed slots.
    free: Vec<SlotAccum>,
    /// Sealed slots, oldest first, at most `retain_slots`.
    sealed: Vec<SealedSlot>,
    /// Every slot below this index is closed: records for it are late.
    sealed_upto: u64,
    /// Maximum event time observed (drives the watermark).
    max_ts: u64,
    accepted: u64,
    late_dropped: u64,
}

impl Aggregator {
    /// An empty window.
    pub fn new(cfg: WindowConfig) -> Self {
        assert!(cfg.num_edges > 0, "aggregator needs at least one edge");
        assert!(cfg.slot_secs > 0, "slot length must be positive");
        assert!(cfg.slots_per_day > 0, "slots_per_day must be positive");
        Self {
            cfg,
            open: BTreeMap::new(),
            free: Vec::new(),
            sealed: Vec::new(),
            sealed_upto: 0,
            max_ts: 0,
            accepted: 0,
            late_dropped: 0,
        }
    }

    /// The window configuration.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Offers one record. Returns `true` when it was folded into an
    /// open slot, `false` when its slot already sealed (counted as a
    /// late drop). Allocation-free once the slot's per-edge buffers
    /// are warm.
    ///
    /// # Panics
    /// Panics if the record's edge is out of range. [`crate::Pipeline`]
    /// refuses such records, and non-finite speeds, before they get
    /// here.
    pub fn offer(&mut self, rec: SpeedRecord) -> bool {
        assert!(
            (rec.edge as usize) < self.cfg.num_edges,
            "record edge {} out of range {}",
            rec.edge,
            self.cfg.num_edges
        );
        let slot = rec.slot(self.cfg.slot_secs);
        if slot < self.sealed_upto {
            self.late_dropped += 1;
            return false;
        }
        if rec.timestamp > self.max_ts {
            self.max_ts = rec.timestamp;
        }
        let accum = self.open.entry(slot).or_insert_with(|| {
            self.free.pop().unwrap_or_else(|| SlotAccum::new(self.cfg.num_edges))
        });
        accum.speeds[rec.edge as usize].push(rec.speed);
        accum.count += 1;
        self.accepted += 1;
        true
    }

    /// Event-time watermark: everything at or before this instant is
    /// considered complete.
    pub fn watermark(&self) -> u64 {
        self.max_ts.saturating_sub(self.cfg.grace_secs)
    }

    /// Seals every open slot whose end the watermark has passed,
    /// appending the results to `out` in slot order, and returns how
    /// many sealed. Sealing is transactional per slot: the
    /// `ingest.slot.seal` failpoint is evaluated *before* any state
    /// changes, so an injected failure leaves the slot open and a
    /// retry seals it identically.
    pub fn seal_ready(&mut self, out: &mut Vec<SealedSlot>) -> Result<usize, IngestError> {
        // Slots with id < close_before end at or before the watermark.
        let close_before = self.watermark() / self.cfg.slot_secs;
        let mut sealed = 0usize;
        while let Some((&slot, _)) = self.open.first_key_value() {
            if slot >= close_before {
                break;
            }
            self.seal_slot(slot, out)?;
            sealed += 1;
        }
        if close_before > self.sealed_upto {
            self.sealed_upto = close_before;
        }
        Ok(sealed)
    }

    /// Seals every open slot regardless of the watermark — shutdown
    /// and end-of-stream path.
    pub fn seal_all(&mut self, out: &mut Vec<SealedSlot>) -> Result<usize, IngestError> {
        let mut sealed = 0usize;
        while let Some((&slot, _)) = self.open.first_key_value() {
            self.seal_slot(slot, out)?;
            self.sealed_upto = self.sealed_upto.max(slot + 1);
            sealed += 1;
        }
        Ok(sealed)
    }

    fn seal_slot(&mut self, slot: u64, out: &mut Vec<SealedSlot>) -> Result<(), IngestError> {
        if gcwc_failpoint::triggered(crate::failsite::SLOT_SEAL) {
            return Err(IngestError::Injected(crate::failsite::SLOT_SEAL));
        }
        let mut accum = self.open.remove(&slot).expect("slot is open");
        let rows: Vec<Option<Vec<f64>>> = accum
            .speeds
            .iter()
            .map(|r| if r.len() >= self.cfg.min_records { self.cfg.spec.build(r) } else { None })
            .collect();
        let weights = WeightMatrix::from_rows(rows, self.cfg.spec.buckets);
        let row_flags = weights.row_flags();
        let context = Context {
            time_of_day: (slot % self.cfg.slots_per_day as u64) as usize,
            day_of_week: ((slot / self.cfg.slots_per_day as u64) % 7) as usize,
            intervals_per_day: self.cfg.slots_per_day,
            row_flags,
        };
        let sealed = SealedSlot { slot, weights, context, records: accum.count };
        out.push(sealed.clone());
        self.sealed.push(sealed);
        if self.sealed.len() > self.cfg.retain_slots {
            let excess = self.sealed.len() - self.cfg.retain_slots;
            self.sealed.drain(..excess);
        }
        accum.reset();
        self.free.push(accum);
        Ok(())
    }

    /// Sealed slots still inside the retention window, oldest first.
    pub fn sealed(&self) -> &[SealedSlot] {
        &self.sealed
    }

    /// Slots currently open (accumulating records).
    pub fn open_slots(&self) -> usize {
        self.open.len()
    }

    /// Records accepted into slots.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Records dropped because their slot had already sealed.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WindowConfig {
        WindowConfig {
            num_edges: 4,
            spec: HistogramSpec::hist4(),
            slot_secs: 100,
            slots_per_day: 8,
            grace_secs: 50,
            min_records: 2,
            retain_slots: 16,
        }
    }

    fn rec(edge: u32, t: u64, v: f64) -> SpeedRecord {
        SpeedRecord { edge, timestamp: t, speed: v }
    }

    #[test]
    fn watermark_sealing_respects_grace() {
        let mut agg = Aggregator::new(cfg());
        agg.offer(rec(0, 10, 5.0));
        agg.offer(rec(0, 20, 6.0));
        let mut out = Vec::new();
        // Watermark = 20 - 50 (saturating) = 0: nothing seals.
        assert_eq!(agg.seal_ready(&mut out).unwrap(), 0);
        // Event at t=149: watermark 99 < 100, slot 0 still open.
        agg.offer(rec(1, 149, 7.0));
        assert_eq!(agg.seal_ready(&mut out).unwrap(), 0);
        // Event at t=150: watermark 100 closes slot 0.
        agg.offer(rec(1, 150, 8.0));
        assert_eq!(agg.seal_ready(&mut out).unwrap(), 1);
        assert_eq!(out[0].slot, 0);
        assert_eq!(out[0].records, 2);
    }

    #[test]
    fn late_records_within_grace_are_accepted_then_dropped_after_seal() {
        let mut agg = Aggregator::new(cfg());
        agg.offer(rec(0, 10, 5.0));
        // t=140 advances the watermark to 90: slot 0 (end 100) is
        // still open, so this "late" record for it is accepted.
        agg.offer(rec(1, 140, 9.0));
        assert!(agg.offer(rec(0, 50, 6.0)));
        let mut out = Vec::new();
        agg.offer(rec(2, 160, 9.0)); // watermark 110 seals slot 0
        assert_eq!(agg.seal_ready(&mut out).unwrap(), 1);
        // Slot 0 is sealed now: the same record is counted + dropped.
        assert!(!agg.offer(rec(0, 50, 6.0)));
        assert_eq!(agg.late_dropped(), 1);
        assert_eq!(agg.accepted(), 4);
    }

    #[test]
    fn sealed_matrix_matches_direct_histogram_build() {
        let mut agg = Aggregator::new(cfg());
        let speeds = [1.0, 2.0, 11.0, 25.0];
        for (i, &v) in speeds.iter().enumerate() {
            agg.offer(rec(0, 10 + i as u64, v));
        }
        agg.offer(rec(1, 20, 5.0)); // below min_records -> uncovered
        let mut out = Vec::new();
        agg.seal_all(&mut out).unwrap();
        assert_eq!(out.len(), 1);
        let w = &out[0].weights;
        assert!(w.is_covered(0));
        assert!(!w.is_covered(1));
        let expect = HistogramSpec::hist4().build(&speeds).unwrap();
        assert_eq!(w.row(0).unwrap(), &expect[..]);
    }

    #[test]
    fn context_tracks_time_of_day_and_weekday() {
        let mut agg = Aggregator::new(cfg());
        // Slot 9 = day 1, time-of-day 1 (8 slots/day).
        agg.offer(rec(0, 910, 5.0));
        agg.offer(rec(0, 920, 5.0));
        let mut out = Vec::new();
        agg.seal_all(&mut out).unwrap();
        assert_eq!(out[0].slot, 9);
        assert_eq!(out[0].context.time_of_day, 1);
        assert_eq!(out[0].context.day_of_week, 1);
    }

    #[test]
    fn retention_slides_old_slots_out() {
        let mut small = cfg();
        small.retain_slots = 2;
        let mut agg = Aggregator::new(small);
        for slot in 0..5u64 {
            agg.offer(rec(0, slot * 100 + 1, 5.0));
            agg.offer(rec(0, slot * 100 + 2, 6.0));
        }
        let mut out = Vec::new();
        agg.seal_all(&mut out).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(agg.sealed().len(), 2);
        assert_eq!(agg.sealed()[0].slot, 3);
        assert_eq!(agg.sealed()[1].slot, 4);
    }

    #[test]
    fn empty_slots_between_records_produce_no_sealed_slot() {
        let mut agg = Aggregator::new(cfg());
        agg.offer(rec(0, 10, 5.0));
        agg.offer(rec(0, 20, 5.0));
        agg.offer(rec(0, 510, 7.0)); // slots 1..4 empty
        agg.offer(rec(0, 520, 7.0));
        let mut out = Vec::new();
        agg.seal_all(&mut out).unwrap();
        assert_eq!(out.iter().map(|s| s.slot).collect::<Vec<_>>(), vec![0, 5]);
    }
}
