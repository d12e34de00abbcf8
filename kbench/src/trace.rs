//! The benchmark's own span recorder for traced runs.
//!
//! Spans are taken from outside the program, around the calls into each
//! layer (or, for stages the engine times itself, from the `SearchStats`
//! durations of the reply). All spans of one operation share its trace
//! id. They stay in memory and are written out as JSON lines when the run
//! ends.

use koios_common::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per span name: how many spans, their total duration and total self
/// time (duration minus the part covered by child spans).
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span recorder. A disabled recorder keeps nothing.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    // Time spent inside `span` calls: the recorder's own cost.
    cost: Duration,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            cost: Duration::ZERO,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `[start, start + dur)` under `trace`, child of `parent`;
    /// returns the span id (0 when disabled).
    pub fn span(
        &mut self,
        trace: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let t0 = Instant::now();
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
        });
        self.cost += t0.elapsed();
        id
    }

    /// Total time spent recording spans.
    pub fn cost(&self) -> Duration {
        self.cost
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("trace", Json::num(s.trace as f64)),
                ("span", Json::num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("start_ns", Json::num(s.start_ns as f64)),
                ("end_ns", Json::num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// Length of the union of `kids` clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in kids.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(true);
        let t0 = r.origin;
        let ms = Duration::from_millis;
        let root = r.span(1, None, "op", t0, ms(10));
        r.span(1, Some(root), "a", t0 + ms(1), ms(4));
        r.span(1, Some(root), "b", t0 + ms(3), ms(4)); // overlaps a by 2 ms
        let totals = r.totals();
        assert_eq!(totals["op"].self_ns, ms(4).as_nanos() as u64);
        assert_eq!(totals["a"].count, 1);
        assert_eq!(totals["b"].self_ns, ms(4).as_nanos() as u64);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        r.span(1, None, "op", Instant::now(), Duration::from_millis(1));
        assert!(r.spans().is_empty());
    }
}
