//! Spans recorded by the benchmark around its calls into tempo.
//!
//! A traced check opens one root span (`check`) and one child span per
//! public call it makes (`ta.check`, `lang.parse`, `svc.wait`, ...). All
//! spans of a check share the check's index. Spans stay in memory until
//! the run ends; [`self_times`] then reduces them to per-name self time
//! (a span's duration minus the part covered by its children).
//!
//! With tracing off, [`Tracer::call`] runs the closure and records
//! nothing, so the untraced timed window pays no clock reads for spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub check: u64,
    pub name: &'static str,
    /// Index of the parent span in the same tracer, `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open_root: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open_root: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs one whole check under a root span.
    pub fn check<T>(&mut self, check: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            check,
            name: "check",
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.open_root = Some(idx);
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open_root = None;
        out
    }

    /// Runs one public call of tempo under a child span of the open check.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(root) = self.open_root.filter(|_| self.on) else {
            return f();
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            check: self.spans[root].check,
            name,
            parent: Some(root),
            start_ns,
            end_ns,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals of self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
}

impl SelfTime {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Reduces spans (indices local to one tracer) to self time per name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.self_ns += s.dur_ns().saturating_sub(c);
    }
    out
}

/// One JSON object per span, one per line; `pass` names the pass the
/// spans came from and `offset` shifts span ids past earlier dumps.
pub fn render_jsonl(pass: &str, spans: &[Span], offset: usize) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| (p + offset).to_string());
        let _ = writeln!(
            out,
            "{{\"pass\":\"{pass}\",\"id\":{},\"check\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            i + offset,
            s.check,
            s.name,
            parent,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                check: 0,
                name: "check",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                check: 0,
                name: "a",
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                check: 0,
                name: "b",
                parent: Some(0),
                start_ns: 50,
                end_ns: 90,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["check"].self_ns, 30);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 40);
    }

    #[test]
    fn untraced_calls_record_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.check(0, |t| t.call("x", || 7));
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }
}
