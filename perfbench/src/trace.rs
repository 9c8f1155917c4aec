//! In-memory span recorder for traced runs. Spans are recorded around
//! the public calls the benchmark makes; a request's spans share its
//! id. A span's self time is its duration minus its children's — the
//! children may be replays run after the parent (the managed replay of
//! a round trip), so the tree is logical, not a time nesting.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub layer: &'static str,
    pub op: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn rel(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its id (for children).
    pub fn span(
        &mut self,
        req: u64,
        layer: &'static str,
        op: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.rel(start), self.rel(end));
        self.span_ns(req, layer, op, parent, start_ns, end_ns)
    }

    pub fn span_ns(
        &mut self,
        req: u64,
        layer: &'static str,
        op: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            req,
            layer,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Records a span of `dur` starting at `start`.
    pub fn span_dur(
        &mut self,
        req: u64,
        layer: &'static str,
        op: &'static str,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.span(req, layer, op, parent, start, start + dur)
    }

    /// Self time of every span: its duration minus its children's,
    /// saturating at zero.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Durations (`self_time == false`) or self times of the spans
    /// matching `layer` and `op`, in nanoseconds.
    pub fn select(&self, layer: &str, op: &str, self_time: bool) -> Vec<u64> {
        let selfs = if self_time {
            self.self_ns()
        } else {
            Vec::new()
        };
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer == layer && s.op == op)
            .map(|(i, s)| if self_time { selfs[i] } else { s.dur_ns() })
            .collect()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}.{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.layer, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.span_ns(1, "server", "compress", None, 0, 100);
        let m = t.span_ns(1, "managed", "compress", Some(root), 200, 260);
        t.span_ns(1, "codecs", "compress", Some(m), 300, 340);
        t.span_ns(2, "server", "compress", None, 100, 130);
        assert_eq!(t.self_ns(), vec![40, 20, 40, 30]);
        assert_eq!(t.select("server", "compress", true), vec![40, 30]);
        assert_eq!(t.select("server", "compress", false), vec![100, 30]);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"managed.compress\",\"parent\":0"));
    }
}
