//! In-memory spans recorded from the benchmark's own code, around the
//! calls into each layer's public functions. Spans inside the program
//! are a later change; nothing here touches the program under test.

use lnpram_bench::json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `simnet.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request all spans of one request share.
    pub request: usize,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span list plus the stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Recorder {
    /// Spans opened from now on belong to `request`.
    pub fn set_request(&mut self, request: usize) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration.
    pub fn end(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = end_ns;
        self.spans[id].duration_ns()
    }

    /// Time `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Attach accumulated leaf times (the `PhaseProfiler`'s per-phase
    /// totals, which are sums over many short windows) to the innermost
    /// open span: the leaves are laid end to end from the parent's
    /// start, so they never overlap and the self-time arithmetic holds.
    pub fn leaves(&mut self, leaves: &[(&'static str, u64)]) {
        let parent = *self.open.last().expect("leaves need an open span");
        let mut at = self.spans[parent].start_ns;
        for &(name, ns) in leaves {
            if ns == 0 {
                continue;
            }
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
                request: self.request,
            });
            at += ns;
        }
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the part of it its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let lo = s.start_ns.max(self.spans[p].start_ns);
                let hi = s.end_ns.min(self.spans[p].end_ns);
                own[p] = own[p].saturating_sub(hi.saturating_sub(lo));
            }
        }
        own
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Durations of every span called `name`, in opening order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// The span list as JSON, one object per span.
    pub fn to_json(&self, workload: &str) -> String {
        let own = self.self_times();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(id, (s, own))| {
                json::Obj::new()
                    .field("id", id)
                    .str_field("name", s.name)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field(
                        "parent",
                        s.parent.map_or("null".to_string(), |p| p.to_string()),
                    )
                    .field("request", s.request)
                    .field("self_ns", own)
                    .render()
            })
            .collect();
        json::Obj::new()
            .str_field("workload", workload)
            .field("spans", json::array_lines(&rows, 4))
            .render_lines(2)
            + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let rec = Recorder {
            spans: vec![
                span("request", 0, 100, None),
                span("simnet.reset", 5, 15, Some(0)),
                span("simnet.run", 20, 90, Some(0)),
                span("simnet.transmit", 20, 50, Some(2)),
                // A child that sticks out of its parent only covers the
                // part inside it.
                span("late", 95, 130, Some(0)),
            ],
            ..Recorder::default()
        };
        assert_eq!(rec.self_times(), vec![100 - 10 - 70 - 5, 10, 40, 30, 35]);
        assert_eq!(rec.total_ns("simnet.run"), 70);
        assert_eq!(rec.durations_ns("request"), vec![100.0]);
    }

    #[test]
    fn nesting_and_leaves() {
        let mut rec = Recorder::default();
        rec.set_request(7);
        rec.begin("request");
        rec.span("routing.inject", || std::hint::black_box(1 + 1));
        rec.leaves(&[
            ("simnet.transmit", 30),
            ("shard.exchange", 0),
            ("simnet.process", 12),
        ]);
        rec.end();
        let s = rec.spans();
        assert_eq!(s.len(), 4, "zero-length leaves are dropped");
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].start_ns, s[0].start_ns);
        assert_eq!(s[3].start_ns, s[2].end_ns, "leaves laid end to end");
        assert!(s.iter().all(|x| x.request == 7));
        let json = rec.to_json("demo");
        assert!(json.contains("\"name\": \"simnet.process\""));
        assert!(json.contains("\"parent\": null"));
    }
}
