//! In-memory span recording for the traced run.
//!
//! The harness wraps each call into a layer's public function in a span:
//! `{id, parent, request, workload, name, start_ns, end_ns}`, pushed into a
//! pre-sized `Vec` and written out once when the run ends. Nothing is
//! recorded inside the program under test — spans inside the stack are a
//! later change — so a layer's time is what its public entry point costs
//! its caller. Self time is a span's duration minus the part of it that
//! its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for a request's root.
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Recorder::begin`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// The span store. A disabled recorder makes [`begin`](Recorder::begin) /
/// [`end`](Recorder::end) no-ops, which is the "tracing off" side of
/// `trace.overhead_ratio`.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, capacity: usize) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Open, request: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: parent.0,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// The handle a root span is opened under.
    pub fn root() -> Open {
        Open(None)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, ready to load into any notebook.
    pub fn dump(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"workload\":\"{workload}\",\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id, span.request, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span), so overlapping or adjacent children are
/// never subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self times grouped by span name, in microseconds.
pub fn self_times_by_name_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        by_name
            .entry(span.name)
            .or_default()
            .push(self_ns as f64 / 1e3);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children_once() {
        let spans = vec![
            span(0, None, "request", 0, 100),
            // Two siblings, then a grandchild under the first.
            span(1, Some(0), "parse", 10, 30),
            span(2, Some(0), "answer", 40, 90),
            span(3, Some(2), "eval", 50, 80),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 20, 30]);
        let by_name = self_times_by_name_us(&spans);
        assert_eq!(by_name["request"], vec![0.03]);
        assert_eq!(by_name["eval"], vec![0.03]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = vec![
            span(0, None, "request", 100, 200),
            span(1, Some(0), "a", 110, 150),
            span(2, Some(0), "b", 140, 170), // overlaps a by 10
            span(3, Some(0), "c", 190, 260), // runs past the parent
        ];
        // Covered: [110,170) = 60 and [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut off = Recorder::new(false, 16);
        let root = off.begin("request", Recorder::root(), 1);
        let child = off.begin("parse", root, 1);
        off.end(child);
        off.end(root);
        assert!(off.spans().is_empty());

        let mut on = Recorder::new(true, 16);
        let root = on.begin("request", Recorder::root(), 1);
        let child = on.begin("parse", root, 1);
        on.end(child);
        on.end(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        let dump = on.dump("point_13k");
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.starts_with(
            "{\"id\":0,\"parent\":null,\"request\":1,\"workload\":\"point_13k\",\"name\":\"request\""
        ));
    }
}
