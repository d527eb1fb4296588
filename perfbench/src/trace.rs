//! In-memory spans for the traced run.
//!
//! A span records a name, its start and end, the span that caused it,
//! and the op it belongs to. Spans are opened and closed from the
//! benchmark's own code around calls into the program's public
//! functions; nothing inside the program is instrumented. Per-layer
//! metrics are medians of span self times, and the spans are written
//! out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span covers, e.g. `wire.encode`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (`u64::MAX`
    /// while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// Records spans in memory; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span, closed with [`Tracer::end`].
#[must_use = "close the span with Tracer::end"]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: u64::MAX, parent, op });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, op);
        let out = f();
        self.end(s);
        out
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ms) of spans named `name`, summed per op, for every
    /// op `keep` accepts: one value per op, in op order.
    pub fn per_op_ms(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        let mut by_op = std::collections::BTreeMap::<u64, f64>::new();
        for (s, ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            if s.name == name && keep(s.op) {
                *by_op.entry(s.op).or_default() += ns as f64 / 1e6;
            }
        }
        by_op.into_values().collect()
    }

    /// Median over ops of [`Tracer::per_op_ms`] for every op; 0 when no
    /// such span was recorded.
    pub fn op_median_ms(&self, name: &str) -> f64 {
        let v = self.per_op_ms(name, |_| true);
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times_ns(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Tracing overhead from a replay run in two passes, each op traced in
/// exactly one of them: the median over ops of traced over untraced
/// wall time. Pairing per op keeps a slow spell of the host from
/// reading as overhead.
#[derive(Default)]
pub struct Overhead {
    pairs: std::collections::BTreeMap<u64, [Option<f64>; 2]>,
}

impl Overhead {
    /// Whether `op` is traced in `pass` (0 or 1).
    pub fn traced(op: u64, pass: u64) -> bool {
        (op + pass).is_multiple_of(2)
    }

    /// Records one op's wall time in one pass.
    pub fn record(&mut self, op: u64, traced: bool, ms: f64) {
        self.pairs.entry(op).or_default()[usize::from(traced)] = Some(ms);
    }

    /// Median overhead in percent over ops measured both ways.
    pub fn pct(&self) -> f64 {
        let ratios: Vec<f64> =
            self.pairs.values().filter_map(|p| Some((p[1]? / p[0]? - 1.0) * 100.0)).collect();
        if ratios.is_empty() {
            0.0
        } else {
            crate::stats::median(&ratios)
        }
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover. Overlapping children are counted
/// once (their union is subtracted), and children are clipped to the
/// parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let (lo, hi) = (s.start_ns, s.end_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(hi));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (hi - lo).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [span(0, 100, None), span(10, 30, Some(0)), span(50, 60, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children cover 10..40 and 30..70: the union is 60, not 70.
        let spans = [span(0, 100, None), span(10, 40, Some(0)), span(30, 70, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 40);
        // A child nested inside another child's interval adds nothing.
        let spans = [span(0, 100, None), span(10, 90, Some(0)), span(20, 30, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(50, 100, None), span(40, 60, Some(0)), span(90, 120, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        t.time("inner", 1, || std::hint::black_box(0));
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.per_op_ms("outer", |_| true).len(), 1);
        assert!(t.op_median_ms("outer") >= t.op_median_ms("missing"));

        let mut off = Tracer::new(false);
        let s = off.begin("outer", 1);
        off.end(s);
        assert!(off.spans().is_empty());
    }
}
