//! Spans recorded from the benchmark's own files around calls into each
//! layer. They are kept in memory and written when the workload ends; a
//! tracer that is off records nothing and reads no clock.

use std::io::Write;
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within a trace.
    pub id: u32,
    /// What was called.
    pub name: &'static str,
    /// The layer that did the work.
    pub layer: &'static str,
    /// The operation this span belongs to; spans of one op share it.
    pub op_id: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace origin.
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub type SpanId = Option<u32>;

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            origin: Instant::now(),
            on: false,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// A recording tracer. `lane` keeps ids of tracers that will be merged
    /// (one per client thread) disjoint.
    #[must_use]
    pub fn on(origin: Instant, lane: u32) -> Self {
        Tracer {
            origin,
            on: true,
            next_id: lane << 24,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span times are relative to.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op_id: u64,
        parent: SpanId,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            layer,
            op_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    /// Closes a span now.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span else { return };
        let now = self.now_ns();
        // The span being closed is almost always among the last few opened.
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = now;
        }
    }

    /// Lays `phases` end to end as children of `parent`, starting where the
    /// parent starts. For calls that return their own phase durations (the
    /// runtime's startup breakdown) instead of timestamps.
    pub fn add_phases(
        &mut self,
        parent: SpanId,
        op_id: u64,
        phases: &[(&'static str, &'static str, Duration)],
    ) {
        let Some(pid) = parent else { return };
        let Some(mut at) = self
            .spans
            .iter()
            .rev()
            .find(|s| s.id == pid)
            .map(|s| s.start_ns)
        else {
            return;
        };
        for (name, layer, d) in phases {
            let id = self.next_id;
            self.next_id += 1;
            let end = at + d.as_nanos() as u64;
            self.spans.push(Span {
                id,
                name,
                layer,
                op_id,
                parent,
                start_ns: at,
                end_ns: end,
            });
            at = end;
        }
    }

    /// Moves another tracer's spans into this one.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, self time included.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"op_id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id, s.name, s.layer, s.op_id, parent, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span, in order: its duration minus the part of its
/// interval that its child spans cover. Overlapping children are counted
/// once, and a child reaching outside its parent is clipped to it.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Total self time per layer, in milliseconds, ordered by layer name.
#[must_use]
pub fn layer_self_ms(spans: &[Span]) -> std::collections::BTreeMap<&'static str, f64> {
    let mut out = std::collections::BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    out
}
