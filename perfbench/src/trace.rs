//! In-memory spans and the self-time arithmetic behind the per-layer
//! breakdown.
//!
//! A span records a name, the layer it times, start and end (nanoseconds
//! since the recorder's epoch), its parent span, and the op it belongs to.
//! Spans stay in memory until the run ends. A span's **self time** is its
//! duration minus the durations of its children; the self time of an op's
//! root span is the op's **unattributed** time. Because children nest
//! inside their parent, the layers' self times plus the unattributed time
//! telescope to the op's total exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `exec.value`.
    pub name: &'static str,
    /// The layer the call belongs to, e.g. `qdp_ad.exec`; `op` for roots.
    pub layer: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, `None` for a root.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from one thread. Spans open and close in stack order.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the recorder's epoch at `t` (0 before it).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; root spans (no open parent) start a new op id.
    pub fn open(&mut self, name: &'static str, layer: &'static str) {
        let start = self.now_ns();
        self.open_at(name, layer, start);
    }

    /// Opens a span that started at a known instant (e.g. a scheduled
    /// arrival time).
    pub fn open_at(&mut self, name: &'static str, layer: &'static str, start_ns: u64) {
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn close(&mut self) {
        let end = self.now_ns();
        self.close_at(end);
    }

    /// Closes the innermost open span at a known time.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn close_at(&mut self, end_ns: u64) {
        let i = self.open.pop().expect("close matches an open span");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name, layer);
        let out = f();
        self.close();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hands the spans over, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// One op's attribution: self time per layer, the root's own time, and the
/// total.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpBreakdown {
    /// The op's root span name.
    pub name: &'static str,
    /// Self time per layer, in nanoseconds (may be negative only when
    /// children overlap, which [`OpBreakdown::consistent`] rejects).
    pub layers: BTreeMap<&'static str, i64>,
    /// Self time of the root span.
    pub unattributed_ns: i64,
    /// Duration of the root span.
    pub total_ns: i64,
    /// Self time per span name (for per-call figures such as
    /// `exec.param`), in nanoseconds.
    pub by_name: BTreeMap<&'static str, Vec<i64>>,
}

impl OpBreakdown {
    /// Whether layers + unattributed equal the total and no self time is
    /// negative (children inside their parent, without overlap).
    pub fn consistent(&self) -> bool {
        let layers: i64 = self.layers.values().sum();
        layers + self.unattributed_ns == self.total_ns
            && self.unattributed_ns >= 0
            && self.layers.values().all(|&v| v >= 0)
    }
}

/// Splits a recorder's spans into per-op breakdowns, in op order.
///
/// Parent links index into `spans`, so pass one recorder's spans at a time.
pub fn breakdown(spans: &[Span]) -> Vec<OpBreakdown> {
    let mut child_ns = vec![0i64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns() as i64;
        }
    }
    let mut ops: BTreeMap<u64, OpBreakdown> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = s.duration_ns() as i64 - child_ns[i];
        let op = ops.entry(s.op).or_default();
        match s.parent {
            None => {
                op.name = s.name;
                op.unattributed_ns = own;
                op.total_ns = s.duration_ns() as i64;
            }
            Some(_) => {
                *op.layers.entry(s.layer).or_insert(0) += own;
                op.by_name.entry(s.name).or_default().push(own);
            }
        }
    }
    ops.into_values().collect()
}
