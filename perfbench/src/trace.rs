//! In-memory span recording around the benchmark's own calls into each
//! layer's public functions. Spans are kept in memory and written out
//! when the run ends; the program itself is not instrumented.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// The span that caused this one, or 0.
    pub parent: u64,
    /// `layer.call`, e.g. `core.execute`.
    pub name: &'static str,
    /// Request id shared by the spans of one request (0 for none).
    pub request: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans when enabled; a disabled tracer only runs the
/// closures it is handed.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, caused by `parent` and
    /// belonging to `request`. `f` receives the new span's id, to pass
    /// on as the parent of nested spans (0 when disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name,
            request,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","request":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer totals of a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerRow {
    /// Spans of the layer.
    pub calls: usize,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self time: each span's duration minus the part of it its
    /// child spans cover.
    pub self_s: f64,
}

/// Self time and totals per layer, keyed by layer name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let row = table.entry(s.layer()).or_default();
        row.calls += 1;
        row.total_s += dur as f64 * 1e-9;
        row.self_s += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    table
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.execute", 0, 1, |id| id), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            request: 1,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, 0, "router.submit", 0, 100),
            // Two overlapping children cover 10..60 once.
            span(2, 1, "http.submit", 10, 50),
            span(3, 1, "http.submit", 20, 60),
        ];
        let t = layer_table(&spans);
        assert_eq!(t["router"].calls, 1);
        assert!((t["router"].self_s - 50e-9).abs() < 1e-15);
        assert_eq!(t["http"].calls, 2);
        assert!((t["http"].total_s - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_carry_parent_and_request() {
        let t = Tracer::new(true);
        t.span("server.round", 0, 7, |outer| {
            t.span("core.execute", outer, 7, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "core.execute").unwrap();
        let outer = spans.iter().find(|s| s.name == "server.round").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.request, 7);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
