//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and end on the run's
//! clock, the span that was open when it started (its parent) and a
//! trace id: the sweep id of a sweep, the job id of a serve request.
//! Spans stay in memory while the run measures and are written out as
//! one JSON document at the end. When recording is off, `open` and
//! `close` do nothing but return, so untraced runs pay one branch per
//! call.

use std::collections::BTreeMap;
use std::path::Path;

use vc_trace::time::Stopwatch;

/// One closed span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    trace: u64,
}

/// Handle of an open span; pass it back to [`Spans::close`].
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Spans {
    on: bool,
    clock: Stopwatch,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Wall time, in ns, during which recording was on.
    recorded_ns: u64,
    on_since: u64,
}

impl Spans {
    /// A recorder that starts switched off.
    pub fn new() -> Self {
        Self {
            on: false,
            clock: Stopwatch::start(),
            spans: Vec::new(),
            stack: Vec::new(),
            recorded_ns: 0,
            on_since: 0,
        }
    }

    /// Switches recording on or off.
    pub fn record(&mut self, on: bool) {
        let now = self.clock.elapsed_nanos();
        if self.on && !on {
            self.recorded_ns += now - self.on_since;
        }
        if on && !self.on {
            self.on_since = now;
        }
        self.on = on;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, trace: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.clock.elapsed_nanos(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            trace,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Sets the trace id of an open span once it is known (a serve
    /// request learns its job id from the submit reply), and of the spans
    /// recorded inside it so far that had none.
    pub fn set_trace(&mut self, open: &Open, trace: u64) {
        if let Some(idx) = open.0 {
            // Every span recorded since `idx` opened is nested in it.
            self.spans[idx].trace = trace;
            for s in &mut self.spans[idx + 1..] {
                if s.trace == 0 {
                    s.trace = trace;
                }
            }
        }
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.clock.elapsed_nanos();
            if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
                self.stack.truncate(pos);
            }
        }
    }

    /// Self time per layer in seconds (a span's duration minus the part
    /// its children cover, summed by the name's `<layer>.` prefix), and
    /// the share of recorded wall time no top-level span covers.
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut top_ns = 0u64;
        for s in &self.spans {
            let d = s.end_ns.saturating_sub(s.start_ns);
            match s.parent {
                Some(p) => child_ns[p] += d,
                None => top_ns += d,
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*child);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        let unattributed = if self.recorded_ns == 0 {
            0.0
        } else {
            1.0 - top_ns as f64 / self.recorded_ns as f64
        };
        (by_layer, unattributed)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as a `vcbench-spans/v1` JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("{\"schema\":\"vcbench-spans/v1\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":\"{:016x}\"}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.trace
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        spans.record(true);
        let outer = spans.open("serve.request", 7);
        let inner = spans.open("json.parse", 7);
        spans.close(inner);
        spans.close(outer);
        spans.record(false);
        assert_eq!(spans.spans[1].parent, Some(0));
        let (layers, unattributed) = spans.self_times();
        assert!(layers["serve"] >= 0.0 && layers["json"] >= 0.0);
        assert!((0.0..=1.0).contains(&unattributed));
        let off = spans.open("graph.gen", 1);
        spans.close(off);
        assert_eq!(spans.len(), 2);
    }
}
