//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around each call into a layer (name,
//! start, end, op id, parent); each op also carries the engine's registry
//! delta over that op. Everything stays in memory until the run ends and is
//! then written out as JSON lines. A span's self time is its duration minus
//! the time its child spans cover (children never overlap: one client
//! thread).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
    pub parent: Option<usize>,
}

pub struct OpRec {
    pub op: u64,
    pub kind: &'static str,
    pub ok: bool,
    /// Registry counters that moved during the op.
    pub delta: Vec<(String, u64)>,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<SpanRec>,
    pub ops: Vec<OpRec>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            op: self.op,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans exit in LIFO order");
    }

    /// Record an already-timed interval as a child of the open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            op: self.op,
            parent: self.stack.last().copied(),
        });
    }

    /// Total self time (ns) per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child[i]);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"type\": \"span\", \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"op\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        for o in &self.ops {
            let delta: Vec<String> = o
                .delta
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            writeln!(
                w,
                "{{\"type\": \"op\", \"op\": {}, \"kind\": \"{}\", \"ok\": {}, \"delta\": {{{}}}}}",
                o.op,
                o.kind,
                o.ok,
                delta.join(", ")
            )?;
        }
        w.flush()
    }
}
