//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around its calls into each layer's public functions, kept
//! in memory, and written out once the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Start and end, in milliseconds since the recorder's epoch.
    pub start_ms: f64,
    pub end_ms: f64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The request this span served.
    pub request: usize,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span still open.
    pub fn span<R>(&mut self, name: &'static str, request: usize, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, request: usize) -> usize {
        let id = self.spans.len();
        let start_ms = self.now_ms();
        self.spans.push(Span {
            name,
            start_ms,
            end_ms: start_ms,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Records a span timed elsewhere (on another thread).
    pub fn record(
        &mut self,
        name: &'static str,
        request: usize,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e3;
        let span = Span {
            name,
            start_ms: at(start),
            end_ms: at(end),
            parent,
            request,
        };
        self.spans.push(span);
    }

    pub fn end(&mut self, id: usize) {
        let end = self.now_ms();
        self.spans[id].end_ms = end;
        self.open.retain(|&o| o != id);
    }

    /// The recorded spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {}, \"start_ms\": {:.4}, \"end_ms\": {:.4}}}\n",
                s.name,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ms,
                s.end_ms
            ));
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per span: its duration minus the part of its interval that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ms, s.end_ms));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ms() - covered(c, s.start_ms, s.end_ms))
        .collect()
}

/// Self time summed per span name.
pub fn busy_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// For each span named `root`: the share of its duration covered by its
/// direct children.
pub fn child_coverage(spans: &[Span], root: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == root && s.duration_ms() > 0.0)
        .map(|(s, own)| 1.0 - own / s.duration_ms())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ms: f64, end_ms: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ms,
            end_ms,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0.0, 100.0, None),
            span("parse", 0.0, 10.0, Some(0)),
            span("sweep", 20.0, 90.0, Some(0)),
            span("lru", 30.0, 50.0, Some(2)),
            span("opt", 40.0, 70.0, Some(2)),
        ];
        let t = self_times(&spans);
        // request: 100 − (10 + 70); sweep: 70 − |[30, 70]|.
        assert_eq!(t, vec![20.0, 10.0, 30.0, 20.0, 30.0]);
        let busy = busy_by_name(&spans);
        assert_eq!(busy["request"], 20.0);
        assert_eq!(busy.values().sum::<f64>(), 110.0);
        assert_eq!(child_coverage(&spans, "request"), vec![0.8]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("a", 10.0, 20.0, None),
            span("b", 5.0, 12.0, Some(0)),
            span("c", 18.0, 30.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 6.0);
    }

    #[test]
    fn the_recorder_nests_spans() {
        let mut r = Recorder::default();
        let v = r.span("outer", 3, || 1);
        assert_eq!(v, 1);
        let outer = r.begin("outer", 4);
        r.span("inner", 4, || ());
        r.end(outer);
        assert_eq!(r.spans.len(), 3);
        assert_eq!(r.spans[2].parent, Some(1));
        assert_eq!(r.spans[0].parent, None);
        assert!(r.spans.iter().all(|s| s.end_ms >= s.start_ms));
        let lines = r.to_jsonl();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"name\": \"inner\", \"request\": 4, \"parent\": 1"));
    }
}
