//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are plain timestamps held in memory and written out when the
//! run ends (`--spans <file>`). A layer's *self* time is its span minus
//! the part of that interval its child spans cover.

use aiga::util::Json;

/// One timed interval: a call into `layer`, made for request `req`,
/// caused by span `parent` (an index into the same trace).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one run, in the order they were recorded.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records a finished span and returns its index (the `parent` of
    /// any span it caused).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the union of its children's
    /// intervals (clipped to the span), in ns.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                // Sweep the sorted intervals, counting overlap once.
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// The trace file: one JSON object per span, one per line, each
    /// with its self time.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        let self_ns = self.self_times_ns();
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::num(id as f64)),
                ("name", Json::str(span.name)),
                ("layer", Json::str(span.layer)),
                ("req", Json::num(span.req as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("start_ns", Json::num(span.start_ns as f64)),
                ("end_ns", Json::num(span.end_ns as f64)),
                ("self_ns", Json::num(self_ns[id] as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            layer: "test",
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut t = Trace::default();
        let root = t.push(span("root", None, 0, 100));
        // Two children overlapping on [30, 40], one nested inside the
        // first, one disjoint, one sticking out past the parent's end.
        let a = t.push(span("a", Some(root), 10, 40));
        t.push(span("b", Some(root), 30, 60));
        t.push(span("a.inner", Some(a), 15, 25));
        t.push(span("c", Some(root), 70, 80));
        t.push(span("d", Some(root), 95, 130));
        let own = t.self_times_ns();
        // Children cover [10,60] ∪ [70,80] ∪ [95,100] = 65 of 100.
        assert_eq!(own[root], 35);
        assert_eq!(own[a], 20); // 30 long, inner covers 10
        assert_eq!(own[2], 30); // leaf: all of it
    }

    #[test]
    fn childless_and_fully_covered_spans() {
        let mut t = Trace::default();
        let root = t.push(span("root", None, 5, 25));
        t.push(span("all", Some(root), 0, 50));
        assert_eq!(t.self_times_ns(), vec![0, 50]);
    }

    #[test]
    fn trace_lines_round_trip_through_json() {
        let mut t = Trace::default();
        let root = t.push(span("root", None, 1, 9));
        t.push(span("kid", Some(root), 2, 3));
        let text = t.render_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let kid = Json::parse(lines[1]).unwrap();
        assert_eq!(kid.field("parent").unwrap().as_u64().unwrap(), 0);
        assert_eq!(kid.field("name").unwrap().as_str().unwrap(), "kid");
        assert_eq!(kid.field("self_ns").unwrap().as_u64().unwrap(), 1);
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
