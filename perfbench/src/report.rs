//! The record a workload run produces: per-phase op accounting, every
//! metric with its unit and sample count, the run's provenance, and
//! the one-line result the benchmark ends with.

use std::fmt::Write as _;

use crate::stats;

/// Op accounting of one phase.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase name (`setup`, `latency`, `capacity`, `replay`).
    pub name: &'static str,
    /// Ops started.
    pub attempted: u64,
    /// Ops that completed and passed every check.
    pub succeeded: u64,
    /// Ops refused, expired, degraded, wrongly shaped or check-failing.
    pub failed: u64,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (percentiles and medians).
    pub samples: Option<usize>,
}

/// Everything one workload run reports.
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    phases: Vec<Phase>,
    metrics: Vec<Metric>,
    absent: Vec<(&'static str, String)>,
    failures: Vec<String>,
    failure_count: u64,
    notes: Vec<(String, String)>,
}

/// Failure descriptions kept verbatim in the record; the rest are
/// only counted.
const KEPT_FAILURES: usize = 16;

impl Report {
    /// An empty record for one run.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Self {
            workload: workload.to_owned(),
            seed,
            trace,
            phases: Vec::new(),
            metrics: Vec::new(),
            absent: Vec::new(),
            failures: Vec::new(),
            failure_count: 0,
            notes: Vec::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Adds a phase's op accounting.
    pub fn phase(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metric_n(name, value, unit, None);
    }

    /// Records a metric with the sample count behind it.
    pub fn metric_n(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Records `p50_ms` over all latencies and `p90_ms` as the median of
    /// window tails (see [`stats::windowed_percentile`]), each with its
    /// sample count, and returns the latencies sorted.
    ///
    /// # Panics
    /// Panics when the phase gathered too few samples to report p90.
    pub fn latency(&mut self, in_order: &[f64]) -> Vec<f64> {
        let sorted = stats::sorted(in_order.to_vec());
        let n = sorted.len();
        let short = || format!("only {n} latency samples; p90 needs {}", stats::min_samples(0.9));
        let p50 = stats::percentile(&sorted, 0.5).unwrap_or_else(|| panic!("{}", short()));
        let (p90, windows) =
            stats::windowed_percentile(in_order, 0.9).unwrap_or_else(|| panic!("{}", short()));
        self.metric_n("p50_ms", p50, "ms", Some(n));
        self.metric_n("p90_ms", p90, "ms", Some(n));
        self.note("p90_windows", windows);
        sorted
    }

    /// Records a metric this workload cannot measure: it reads 0 and
    /// the record says why.
    pub fn absent(&mut self, name: &'static str, unit: &'static str, why: impl Into<String>) {
        self.metrics.push(Metric { name, value: 0.0, unit, samples: Some(0) });
        self.absent.push((name, why.into()));
    }

    /// Records a failed check (an op's or the run's).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failure_count += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what.into());
        }
    }

    /// Adds a free-form provenance or context note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// A metric's value, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Prints the human-readable table, the full record as one JSON
    /// line, and finally the result line, restricted to `names` (the
    /// metric set `BENCHMARK.json` declares for this mode).
    pub fn print(&self, names: &[(&'static str, &'static str)]) {
        let attempted: u64 = self.phases.iter().map(|p| p.attempted).sum();
        let failed: u64 = self.phases.iter().map(|p| p.failed).sum();
        println!("# workload {} seed {} trace {}", self.workload, self.seed, u8::from(self.trace));
        for (k, v) in &self.notes {
            println!("# {k}: {v}");
        }
        for p in &self.phases {
            println!(
                "# phase {:<10} attempted {:>8} succeeded {:>8} failed {:>6}",
                p.name, p.attempted, p.succeeded, p.failed
            );
        }
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  (n = {n})"));
            println!("# {:<24} {:>16.6} {}{n}", m.name, m.value, m.unit);
        }
        for (name, why) in &self.absent {
            println!("# absent {name}: {why}");
        }
        for f in &self.failures {
            println!("# FAILED {f}");
        }
        println!("{}", self.record_json(attempted, failed));

        let mut out = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("workload {} did not report {name}", self.workload));
            assert_eq!(m.unit, *unit, "metric {name} reported in the wrong unit");
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(out, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", m.value);
        }
        let correct = self.failure_count == 0 && failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{out}}}}}",
            attempted.max(1)
        );
    }

    fn record_json(&self, attempted: u64, failed: u64) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"attempted\": \
             {attempted}, \"failed\": {failed}, \"failures\": {}",
            self.workload, self.seed, self.trace, self.failure_count
        );
        s.push_str(", \"provenance\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"));
        }
        s.push_str("}, \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{{\"name\": \"{}\", \"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}",
                p.name, p.attempted, p.succeeded, p.failed
            );
        }
        s.push_str("], \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let n = m.samples.map_or("null".to_owned(), |n| n.to_string());
            let _ = write!(
                s,
                "{sep}{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {n}}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("], \"absent\": [");
        for (i, (name, why)) in self.absent.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(s, "{sep}{{\"name\": \"{name}\", \"why\": \"{}\"}}", why.replace('"', "'"));
        }
        s.push_str("]}}");
        s
    }
}
