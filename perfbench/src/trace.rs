//! In-memory span recorder for the traced run, and the per-layer ledger
//! built from its spans.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public API: name, start, end, the span that caused it, and the id of the
//! operation it belongs to. Stage times the program reports itself
//! (`ReparseReport`, `ApplyOutcome::latency`) are *attached* as child spans
//! of the call that produced them, laid from the parent's start. A span's
//! self time is its duration minus its children's; a root span (one
//! operation) keeps as self time the residual no layer call accounts for.
//!
//! Span names are `layer.call`; roots carry no dot. Spans stay in memory
//! until the run ends and are then written out as one TSV file.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

pub type SpanId = u32;
const NONE: SpanId = SpanId::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's recorder. Disabled recorders record nothing and cost one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u64,
    next_op: u64,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    /// A disabled recorder for client thread `thread`; all recorders of a
    /// run share `epoch` so their timestamps are comparable.
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            enabled: false,
            epoch,
            thread,
            next_op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an operation");
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; a span opened with no span open starts a new operation.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        if parent == NONE {
            self.next_op += 1;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent,
            op: (self.thread << 40) | self.next_op,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.now();
        self.spans[id as usize].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans closed out of order");
    }

    /// Attaches a reported stage time as a child of `parent`.
    pub fn attach(&mut self, parent: SpanId, name: &'static str, d: Duration) -> SpanId {
        if parent == NONE {
            return NONE;
        }
        let p = &self.spans[parent as usize];
        let (start_ns, op) = (p.start_ns, p.op);
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + d.as_nanos() as u64,
            parent,
            op,
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Aggregates of one span name.
#[derive(Debug, Default)]
pub struct NameStats {
    pub dur: Samples,
    pub self_ns: Samples,
}

/// Per-name and per-layer self time over a set of spans (spans of several
/// threads may be concatenated: ids are rebased per thread by `merge`).
#[derive(Debug, Default)]
pub struct Ledger {
    pub names: BTreeMap<&'static str, NameStats>,
    /// Sum of root-span durations (all traced operations).
    pub root_ns: u64,
    /// Per-operation residual: root self time.
    pub residual: Samples,
}

impl Ledger {
    pub fn build(spans: &[Span]) -> Ledger {
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.dur();
            }
        }
        let mut l = Ledger::default();
        for (s, c) in spans.iter().zip(&child) {
            let own = s.dur().saturating_sub(*c);
            let e = l.names.entry(s.name).or_default();
            e.dur.push(s.dur());
            e.self_ns.push(own);
            if s.parent == NONE {
                l.root_ns += s.dur();
                l.residual.push(own);
            }
        }
        l
    }

    /// Self time summed over every span of `layer` (the name's prefix).
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.names
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer) && n.contains('.'))
            .map(|(_, s)| s.self_ns.sum())
            .sum()
    }

    /// A layer's self time as a percentage of all traced operation time.
    pub fn layer_share(&self, layer: &str) -> f64 {
        100.0 * self.layer_self_ns(layer) as f64 / self.root_ns.max(1) as f64
    }

    pub fn residual_share(&self) -> f64 {
        100.0 * self.residual.sum() as f64 / self.root_ns.max(1) as f64
    }
}

/// Concatenates per-thread span vectors, rebasing parent ids.
pub fn merge(per_thread: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for spans in per_thread {
        let base = out.len() as SpanId;
        out.extend(spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }
    out
}

/// Writes spans as TSV: `op name start_ns end_ns parent`.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "op\tname\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        let parent = if s.parent == NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{:x}\t{}\t{}\t{}\t{}",
            s.op, s.name, s.start_ns, s.end_ns, parent
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_residual() {
        let mut t = Tracer::new(Instant::now(), 0);
        assert_eq!(t.begin("op"), NONE, "disabled recorder records nothing");
        t.set_enabled(true);
        let op = t.begin("op");
        let call = t.begin("core.reparse");
        std::thread::sleep(Duration::from_millis(2));
        t.end(call);
        t.attach(call, "lexer.relex", Duration::from_micros(500));
        t.end(op);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == spans[0].op));
        let l = Ledger::build(&spans);
        assert_eq!(l.names["lexer.relex"].self_ns.sum(), 500_000);
        let call_ns = l.names["core.reparse"].dur.sum();
        assert_eq!(l.names["core.reparse"].self_ns.sum(), call_ns - 500_000);
        assert_eq!(l.residual.sum(), l.root_ns - call_ns);
        assert_eq!(l.layer_self_ns("lexer"), 500_000);
        assert_eq!(l.layer_self_ns("op"), 0, "roots belong to no layer");
    }

    #[test]
    fn merge_rebases_parents() {
        let mk = |n| {
            let mut t = Tracer::new(Instant::now(), n);
            t.set_enabled(true);
            let op = t.begin("op");
            let c = t.begin("x.y");
            t.end(c);
            t.end(op);
            t.into_spans()
        };
        let spans = merge(vec![mk(0), mk(1)]);
        assert_eq!(spans[3].parent, 2);
        assert_ne!(spans[0].op, spans[2].op);
    }
}
