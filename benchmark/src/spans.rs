//! In-memory spans around calls into the program's layers, written out as
//! Chrome `trace_event` JSON (loadable in Perfetto) when the run ends.
//!
//! A span has a name, a start, an end, a parent and the index of the
//! operation it belongs to. A *probe* span times an inner layer's public
//! function called again, after the outer call, on the same input: its
//! parent is that outer span, so the outer span's self time (duration
//! minus its children) becomes an estimate of the outer layer's own work.
//! Probe time is extra work of the traced run and is excluded from the
//! traced operation latency.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::quote;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub tid: u32,
    pub probe: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and per-layer counters when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    probe_ns: u64,
    counters: BTreeMap<&'static str, f64>,
    threads: Vec<ThreadId>,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            probe_ns: 0,
            counters: BTreeMap::new(),
            threads: vec![std::thread::current().id()],
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts operation `op`: later spans carry its index.
    pub fn start_op(&mut self, op: u64) {
        self.op = op;
        self.probe_ns = 0;
    }

    /// Nanoseconds of probe spans recorded since [`Recorder::start_op`].
    pub fn probe_ns(&self) -> u64 {
        self.probe_ns
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            tid: 0,
            probe: false,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.open.last().copied()
    }

    /// Closes a span opened by [`Recorder::enter`].
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&s| s == id) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Runs `f` as a probe of the closed span `of`; does not run it at
    /// all when recording is off.
    pub fn probe<R>(
        &mut self,
        name: &'static str,
        of: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        if !self.enabled {
            return None;
        }
        let start = Instant::now();
        let r = f();
        self.record(
            name,
            start,
            Instant::now(),
            of,
            std::thread::current().id(),
            true,
        );
        Some(r)
    }

    /// Records a span measured elsewhere (e.g. on a pool worker) and
    /// returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        thread: ThreadId,
        probe: bool,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let tid = match self.threads.iter().position(|&t| t == thread) {
            Some(i) => i,
            None => {
                self.threads.push(thread);
                self.threads.len() - 1
            }
        } as u32;
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op: self.op,
            tid,
            probe,
        };
        if probe {
            self.probe_ns += span.dur_ns();
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Adds `v` to the counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// The counter `name` (0 if never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Total self time in milliseconds of the spans named `name`: each
    /// span's duration minus the durations of its children.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let ns: i128 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur_ns() as i128 - c as i128)
            .sum();
        ns as f64 / 1e6
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON of every span, with `context` (a JSON
    /// object) under `otherData`.
    pub fn chrome_trace(&self, context: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":");
        out.push_str(context);
        out.push_str(",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                quote(s.name),
                if s.probe { "probe" } else { "layer" },
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing_and_skips_probes() {
        let mut r = Recorder::new(false);
        let id = r.enter("a");
        r.exit(id);
        assert!(r.probe("b", id, || 1).is_none());
        r.add("c", 1.0);
        assert!(r.spans().is_empty());
        assert_eq!(r.counter("c"), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_probes() {
        let mut r = Recorder::new(true);
        let outer = r.enter("outer");
        let inner = r.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit(inner);
        r.exit(outer);
        r.probe("probe", outer, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let total = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
        let want = total(&spans[0]) - total(&spans[1]) - total(&spans[2]);
        assert!((r.self_ms("outer") - want).abs() < 1e-9);
        assert!(r.probe_ns() > 0);
        crate::json::parse(&r.chrome_trace("{}")).expect("trace is JSON");
    }
}
