//! End-to-end benchmark of the DataSpread engine.
//!
//! One client thread drives a seeded, fixed op sequence through the public
//! [`Workbook`] API in a closed loop (the next op is sent only after the
//! previous one returns), on a real directory through the default OS VFS
//! with every WAL commit fsynced. See `README.md` in this directory for the
//! workloads, the metric catalogue and how to run it.

pub mod host;
pub mod hybrid;
pub mod oltp;
pub mod rng;
pub mod stats;
pub mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dataspread::obs::{SampleValue, Snapshot};
use dataspread::types::{CellAddr, DsError, DsResult, Value};
use dataspread::{SheetId, Workbook};

use crate::host::HostContext;
use crate::rng::Digest;
use crate::stats::{mean, median, tail};
use crate::trace::{OpRec, Tracer};

/// Op types. The first six are reported end to end; the rest are timed and
/// printed but ride along to keep a workload's state in balance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Kind {
    Edit,
    Scroll,
    InsertRow,
    SqlInsert,
    SqlUpdate,
    Query,
    Formula,
    SqlDelete,
    Param,
}

pub const REPORTED: [Kind; 6] = [
    Kind::Edit,
    Kind::Scroll,
    Kind::InsertRow,
    Kind::SqlInsert,
    Kind::SqlUpdate,
    Kind::Query,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Edit => "edit",
            Kind::Scroll => "scroll",
            Kind::InsertRow => "insert_row",
            Kind::SqlInsert => "sql_insert",
            Kind::SqlUpdate => "sql_update",
            Kind::Query => "query",
            Kind::Formula => "formula",
            Kind::SqlDelete => "sql_delete",
            Kind::Param => "param",
        }
    }

    /// Whether the op writes (and so commits to the WAL).
    pub fn is_write(self) -> bool {
        !matches!(self, Kind::Scroll | Kind::Query)
    }

    /// Whether the op is a SQL statement.
    pub fn is_sql(self) -> bool {
        matches!(
            self,
            Kind::SqlInsert | Kind::SqlUpdate | Kind::SqlDelete | Kind::Query
        )
    }
}

/// Expand per-kind counts into a seeded shuffled schedule.
pub fn schedule(seed: u64, label: &str, counts: &[(Kind, usize)]) -> Vec<Kind> {
    let mut kinds: Vec<Kind> = counts
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    rng::Rng::derive(seed, label).shuffle(&mut kinds);
    kinds
}

/// Ops of one kind per run: `per_second` × the run's scale, at least one.
pub fn count(per_second: f64, scale: f64) -> usize {
    ((per_second * scale).round() as usize).max(1)
}

/// Per-run state the workloads report into: op timing, probes, and the
/// correctness gate.
#[derive(Default)]
pub struct Ctx {
    pub tracer: Option<Tracer>,
    /// Engine time of the op in flight (ns): the sum of its `call`s.
    op_engine_ns: u64,
    /// Per-layer timing samples (µs) from probes.
    pub layer_us: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer count sums.
    pub layer_sum: BTreeMap<&'static str, f64>,
    /// Correctness-gate failures.
    pub mismatches: Vec<String>,
    /// Text and engine µs of the op's SQL statement, kept in traced runs
    /// for the probes that follow the op.
    last_sql: Option<(String, f64)>,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Time one call into the engine. Its duration is part of the op's
    /// latency and, when traced, a span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let start = self.tracer.as_ref().map(Tracer::now_ns);
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.op_engine_ns += ns;
        if let (Some(tr), Some(start)) = (self.tracer.as_mut(), start) {
            tr.record(name, start, start + ns);
        }
        out
    }

    /// Time a probe call made only in traced runs, after the op it probes
    /// (not part of any op's latency or registry delta); returns the result
    /// and its µs.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let start = self.tracer.as_ref().map(Tracer::now_ns);
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(tr), Some(start)) = (self.tracer.as_mut(), start) {
            tr.record(name, start, start + ns);
        }
        (out, ns as f64 / 1e3)
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.layer_us.entry(key).or_default().push(v);
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.layer_sum.entry(key).or_insert(0.0) += v;
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.layer_sum.get(key).copied().unwrap_or(0.0)
    }

    /// Record a gate failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.mismatches.len() < 1000 {
            self.mismatches.push(what());
        }
    }
}

/// One benchmark workload: a seeded setup, a seeded op sequence, and a
/// shadow model the engine's answers are checked against.
pub trait Workload: Sized {
    type Op: Debug;
    const NAME: &'static str;

    /// Build the workbook from seeded inputs and save it durably into `dir`.
    fn setup(dir: &Path, seed: u64, small: bool) -> DsResult<Self>;
    /// The op sequence: a function of the seed and scale only.
    fn generate(seed: u64, scale: f64, small: bool) -> Vec<Self::Op>;
    fn kind(op: &Self::Op) -> Kind;
    /// Class of an op within its kind, for ops of one kind whose costs
    /// differ by design (the hybrid query shapes); see `Pass::p50`.
    fn class(_op: &Self::Op) -> u8 {
        0
    }
    /// Bytes of user data the op writes (values as displayed).
    fn user_bytes(op: &Self::Op) -> u64;
    /// Run one op through the engine, checking its answer against the
    /// shadow model; `Err` is a failed op.
    fn exec(&mut self, op: &Self::Op, ctx: &mut Ctx) -> DsResult<()>;
    /// Traced runs only: per-layer probes for an op that has just run, made
    /// after its latency and registry delta are taken.
    fn probe(&mut self, _op: &Self::Op, _ctx: &mut Ctx) -> DsResult<()> {
        Ok(())
    }
    /// End-of-run checks (full recompute, table-vs-region equality, ...).
    fn final_gate(&mut self, ctx: &mut Ctx) -> DsResult<()>;
    fn wb(&self) -> &Workbook;
    fn wb_mut(&mut self) -> &mut Workbook;
    /// A cell of the first sheet that no formula reads.
    fn unread_cell(i: usize) -> CellAddr;
    /// Digest of the contents the shadow model expects.
    fn expected_digest(&self) -> u64;
    /// Digest of a workbook's contents (live, or reopened after restart).
    fn digest(wb: &mut Workbook) -> DsResult<u64>;
}

/// Digest one cell or field value. Numbers digest by value, so `Int(4)` and
/// `Float(4.0)` agree.
pub fn digest_value(d: &mut Digest, v: &Value) {
    match v {
        Value::Int(i) => d.write(format!("n{}", *i as f64).as_bytes()),
        Value::Float(f) => d.write(format!("n{f}").as_bytes()),
        Value::Empty => d.write(b"e"),
        other => d.write(format!("s{}", other.display_string()).as_bytes()),
    }
}

/// Equal as displayed numbers when both are numeric (`Int(4)` equals
/// `Float(4.0)`), else equal as values.
pub fn same(got: &Value, want: &Value) -> bool {
    match (num(got), num(want)) {
        (Some(x), Some(y)) => x == y,
        _ => got == want,
    }
}

/// Numeric view of a value (`None` for empty or non-numeric).
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Ten-times smaller inputs, for the benchmark's own smoke tests.
    pub small: bool,
    /// Scratch directory for workbook stores; created and removed by `run`.
    pub work: PathBuf,
    /// Where a traced run writes its spans (JSON lines).
    pub trace_out: Option<PathBuf>,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (host, per-op sample counts, errors).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let ms: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            ms.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Digest and per-kind counts of an op sequence.
pub fn sequence_digest<W: Workload>(ops: &[W::Op]) -> (u64, Vec<(Kind, usize)>) {
    let mut counts: BTreeMap<Kind, usize> = BTreeMap::new();
    let mut d = Digest::default();
    for op in ops {
        *counts.entry(W::kind(op)).or_insert(0) += 1;
        d.write(format!("{op:?}").as_bytes());
    }
    (d.finish(), counts.into_iter().collect())
}

/// Points of the pass, evenly spaced, at which the run builds two more
/// set-ups and reopens a copy of its store (see `README.md`, "How a run
/// works"). With the set-up before the pass and the reopen after it, a run
/// times `2 × MARKS + 1` set-ups and `MARKS + 1` opens, spread over the
/// whole run, so one slow host period cannot cover them all.
const MARKS: usize = 4;

pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        oltp::Oltp::NAME => run_workload::<oltp::Oltp>(cfg),
        hybrid::Hybrid::NAME => run_workload::<hybrid::Hybrid>(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected table_oltp or hybrid_bound)"
        )),
    }
}

/// What one pass over the op sequence measured.
struct Pass {
    /// Engine µs per op kind and class (see [`Workload::class`]),
    /// successful ops only.
    lat: BTreeMap<(Kind, u8), Vec<f64>>,
    /// Engine time of the successful ops, in seconds.
    engine_s: f64,
    failed: usize,
    /// Registry deltas summed per op kind (traced passes only).
    deltas: BTreeMap<Kind, BTreeMap<String, u64>>,
    user_bytes: u64,
}

impl Pass {
    /// Successful ops per second of engine time, over the whole pass.
    fn ops_per_s(&self) -> f64 {
        let n: usize = self.lat.values().map(Vec::len).sum();
        n as f64 / self.engine_s.max(1e-9)
    }

    /// All engine µs of one kind, whatever its class.
    fn kind(&self, k: Kind) -> Vec<f64> {
        self.lat
            .range((k, 0)..=(k, u8::MAX))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// The reported p50 of one kind over the whole pass: the mean of its
    /// classes' medians. With one class this is the plain median; with
    /// several (the hybrid query shapes) it weighs each shape alike instead
    /// of landing on the edge between two shapes' latencies.
    fn p50(&self, k: Kind) -> f64 {
        let meds: Vec<f64> = self
            .lat
            .range((k, 0)..=(k, u8::MAX))
            .map(|(_, v)| median(v))
            .collect();
        if meds.is_empty() {
            0.0
        } else {
            meds.iter().sum::<f64>() / meds.len() as f64
        }
    }
}

fn run_workload<W: Workload>(cfg: &Config) -> Result<Report, String> {
    let _ = std::fs::remove_dir_all(&cfg.work);
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("work dir: {e}"))?;
    let result = run_in::<W>(cfg);
    let _ = std::fs::remove_dir_all(&cfg.work);
    result
}

fn run_in<W: Workload>(cfg: &Config) -> Result<Report, String> {
    let mut notes = Vec::new();
    let host = HostContext::probe(&cfg.work).map_err(|e| format!("host probe: {e}"))?;
    notes.push(format!("host {}", host.json()));

    let ops = W::generate(cfg.seed, cfg.seconds as f64, cfg.small);
    let (op_digest, op_counts) = sequence_digest::<W>(&ops);
    let counts: Vec<String> = op_counts
        .iter()
        .map(|(k, n)| format!("{}={n}", k.name()))
        .collect();
    notes.push(format!(
        "ops {} seed={} digest={op_digest:016x} n={} {}",
        W::NAME,
        cfg.seed,
        ops.len(),
        counts.join(" ")
    ));

    let mut ctx = Ctx::default();
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes,
    };
    let setup = |name: &str| -> Result<(W, PathBuf, f64), String> {
        let dir = cfg.work.join(name);
        let t = Instant::now();
        let w = W::setup(&dir, cfg.seed, cfg.small).map_err(|e| format!("setup: {e}"))?;
        Ok((w, dir, t.elapsed().as_secs_f64()))
    };

    if !cfg.trace {
        let (mut w, dir, secs) = setup("setup0")?;
        let mut setup_s = vec![secs];
        let mut open_ms = Vec::new();
        let marks: Vec<usize> = (1..=MARKS).map(|k| k * ops.len() / (MARKS + 1)).collect();
        let pass = run_pass(&mut w, &ops, &mut ctx, &mut |i, w, ctx| {
            if marks.contains(&i) {
                for _ in 0..2 {
                    let (extra, extra_dir, secs) = setup(&format!("setup{}", setup_s.len()))?;
                    setup_s.push(secs);
                    drop(extra);
                    let _ = std::fs::remove_dir_all(extra_dir);
                }
                open_ms.push(reopen(w, &dir, cfg, ctx)?);
            }
            Ok(())
        })?;
        open_ms.push(reopen(&w, &dir, cfg, &mut ctx)?);
        drop(w);
        report.attempted = ops.len();
        report.failed = pass.failed;
        report.notes.extend(op_notes(&pass, "untraced"));
        report.notes.push(format!("setup_s samples {setup_s:.4?}"));
        report.notes.push(format!("open_ms samples {open_ms:.3?}"));
        let mut m = |name: &str, value: f64, unit: &'static str| {
            report.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
            })
        };
        m("setup_s", median(&setup_s), "s");
        m("ops_per_s", pass.ops_per_s(), "1/s");
        m("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB");
        for k in REPORTED {
            m(&format!("{}_p50_us", k.name()), pass.p50(k), "us");
        }
        m("open_ms", mean(&open_ms), "ms");
    } else {
        // An untraced pass gives the baseline engine time; a second set-up
        // runs the same sequence traced.
        let (mut w, dir, _) = setup("plain")?;
        let plain = run_pass(&mut w, &ops, &mut ctx, &mut |_, _, _| Ok(()))?;
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
        let (mut w, dir, _) = setup("traced")?;
        ctx.tracer = Some(Tracer::default());
        let traced = run_pass(&mut w, &ops, &mut ctx, &mut |_, _, _| Ok(()))?;
        report.attempted = 2 * ops.len();
        report.failed = plain.failed + traced.failed;
        // Per-layer probes that need the whole run behind them.
        let wal_bytes = std::fs::metadata(dir.join(dataspread::relstore::snapshot::WAL_FILE))
            .map_or(0, |m| m.len());
        ctx.add("persist.wal_bytes_at_open", wal_bytes as f64);
        reopen(&w, &dir, cfg, &mut ctx)?;
        traced_epilogue(&mut w, &mut ctx);
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
        // Engine time only: probes, snapshots and span bookkeeping between
        // engine calls are left out, so this is what tracing adds to the
        // engine calls themselves (plus host drift between the passes).
        let overhead = 1.0 - plain.engine_s / traced.engine_s;
        report.notes.extend(op_notes(&plain, "untraced"));
        report.notes.extend(op_notes(&traced, "traced"));
        report.metrics = layer_metrics(&ctx, &traced, overhead);
        let tracer = ctx.tracer.as_ref().expect("traced pass has a tracer");
        for (name, ns) in tracer.self_times() {
            report.notes.push(format!(
                "self {name:<24} {:.3} ms total, {:.2} us/op",
                ns as f64 / 1e6,
                ns as f64 / 1e3 / ops.len() as f64
            ));
        }
        if let Some(path) = &cfg.trace_out {
            tracer
                .write_jsonl(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            report
                .notes
                .push(format!("spans written to {}", path.display()));
        }
    }
    if report.failed > 0 {
        report.correct = false;
    }
    if !ctx.mismatches.is_empty() {
        report.correct = false;
        report.notes.push(format!(
            "gate: {} mismatches; first: {}",
            ctx.mismatches.len(),
            ctx.mismatches[0]
        ));
    }
    Ok(report)
}

/// One line per op kind: sample count, reported p50, the tail used, and the
/// kind's share of the pass's engine time.
fn op_notes(pass: &Pass, label: &str) -> Vec<String> {
    let kinds: BTreeSet<Kind> = pass.lat.keys().map(|(k, _)| *k).collect();
    kinds
        .into_iter()
        .map(|k| {
            let mut v = pass.kind(k);
            v.sort_by(f64::total_cmp);
            let (tl, tv) = tail(&v);
            let share = v.iter().sum::<f64>() / 1e6 / pass.engine_s.max(1e-9);
            let reported = if REPORTED.contains(&k) { "" } else { " (not reported)" };
            format!(
                "{label} op {:<10} n={:<6} p50_us={:.1} {tl}_us={tv:.1} engine_share={share:.3}{reported}",
                k.name(),
                v.len(),
                pass.p50(k),
            )
        })
        .collect()
}

/// Every counter of a registry snapshot, plus `<name>_sum` and
/// `<name>_count` for each histogram.
fn counters(snap: &Snapshot) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for s in &snap.samples {
        match &s.value {
            SampleValue::Counter(v) => {
                out.insert(s.name.clone(), *v);
            }
            SampleValue::Histogram(h) => {
                out.insert(format!("{}_sum", s.name), h.sum);
                out.insert(format!("{}_count", s.name), h.count);
            }
            SampleValue::Gauge(_) => {}
        }
    }
    out
}

/// Run the op sequence once, calling `between(i, ..)` before op `i`
/// (outside any op's timing). In traced passes each op's registry delta is
/// taken around the op alone; the layer probes run after it is closed.
fn run_pass<W: Workload>(
    w: &mut W,
    ops: &[W::Op],
    ctx: &mut Ctx,
    between: &mut dyn FnMut(usize, &mut W, &mut Ctx) -> Result<(), String>,
) -> Result<Pass, String> {
    let mut pass = Pass {
        lat: BTreeMap::new(),
        engine_s: 0.0,
        failed: 0,
        deltas: BTreeMap::new(),
        user_bytes: 0,
    };
    for (i, op) in ops.iter().enumerate() {
        between(i, w, ctx)?;
        let kind = W::kind(op);
        pass.user_bytes += W::user_bytes(op);
        ctx.op_engine_ns = 0;
        let before = if ctx.traced() {
            let tr = ctx.tracer.as_mut().expect("traced");
            tr.set_op(i as u64);
            Some((counters(&w.wb().metrics_snapshot()), tr.enter(kind.name())))
        } else {
            None
        };
        let res = w.exec(op, ctx);
        match &res {
            Ok(()) => {
                let us = ctx.op_engine_ns as f64 / 1e3;
                pass.lat.entry((kind, W::class(op))).or_default().push(us);
                pass.engine_s += us / 1e6;
            }
            Err(e) => {
                pass.failed += 1;
                ctx.check(false, || format!("op {i} {op:?} failed: {e}"));
            }
        }
        if let Some((snap, span)) = before {
            let delta: Vec<(String, u64)> = counters(&w.wb().metrics_snapshot())
                .into_iter()
                .filter_map(|(k, a)| {
                    let b = snap.get(&k).copied().unwrap_or(0);
                    (a > b).then(|| (k, a - b))
                })
                .collect();
            let sums = pass.deltas.entry(kind).or_default();
            for (k, v) in &delta {
                *sums.entry(k.clone()).or_insert(0) += v;
            }
            let tr = ctx.tracer.as_mut().expect("traced");
            tr.exit(span);
            tr.ops.push(OpRec {
                op: i as u64,
                kind: kind.name(),
                ok: res.is_ok(),
                delta,
            });
            if res.is_ok() {
                let probed = w.probe(op, ctx).and_then(|()| sql_probes(w.wb_mut(), ctx));
                ctx.check(probed.is_ok(), || {
                    format!("probes of op {i} failed: {probed:?}")
                });
            }
            ctx.last_sql = None;
        }
    }
    let gate = |e: DsError| format!("end-of-pass gate: {e}");
    w.final_gate(ctx).map_err(gate)?;
    let live = W::digest(w.wb_mut()).map_err(gate)?;
    let expected = w.expected_digest();
    ctx.check(live == expected, || {
        format!("live contents digest {live:016x} != shadow {expected:016x}")
    });
    Ok(pass)
}

/// Copy the store in `dir` of the live workload `w` (every commit is
/// fsynced, so the copy is what a restart at this point would find) and
/// time `Workbook::open` on the copy. Open folds the WAL into a new
/// checkpoint, so each open needs a copy of its own. The reopened contents
/// must digest to the shadow model. Returns the open's ms.
fn reopen<W: Workload>(w: &W, dir: &Path, cfg: &Config, ctx: &mut Ctx) -> Result<f64, String> {
    let copy = cfg.work.join("reopen");
    copy_dir(dir, &copy).map_err(|e| format!("copying store: {e}"))?;
    let t = Instant::now();
    let mut wb = Workbook::open(&copy).map_err(|e| format!("reopen: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let got = W::digest(&mut wb).map_err(|e| format!("digest: {e}"))?;
    let expected = w.expected_digest();
    ctx.check(got == expected, || {
        format!("reopened contents digest {got:016x} != shadow {expected:016x}")
    });
    drop(wb);
    let _ = std::fs::remove_dir_all(&copy);
    Ok(ms)
}

/// Traced-run probes over the finished workbook: edits nothing reads, full
/// recompute, the binding layer's no-change sync, and checkpoint.
fn traced_epilogue<W: Workload>(w: &mut W, ctx: &mut Ctx) {
    for i in 0..50 {
        let addr = W::unread_cell(i);
        let (r, us) = ctx.probe("calc.unrelated_edit", || {
            w.wb_mut().set_value(SheetId(0), addr, Value::Int(i as i64))
        });
        ctx.check(r.is_ok(), || format!("unrelated edit failed: {r:?}"));
        ctx.sample("calc.unrelated_edit_us", us);
    }
    for _ in 0..3 {
        let (_, us) = ctx.probe("calc.recalculate", || w.wb_mut().recalculate());
        ctx.sample("calc.recalculate_ms", us / 1e3);
    }
    for _ in 0..20 {
        let (_, us) = ctx.probe("bind.sync_noop", || w.wb_mut().sync_bindings());
        ctx.sample("bind.sync_noop_us", us);
    }
    for _ in 0..3 {
        let (r, us) = ctx.probe("persist.checkpoint", || w.wb_mut().checkpoint());
        ctx.check(r.is_ok(), || format!("checkpoint failed: {r:?}"));
        ctx.sample("persist.checkpoint_ms", us / 1e3);
    }
}

/// Copy a store directory and flush the copy, so the opens timed later do
/// not compete with the write-back of the copies.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_file() {
            let dst = to.join(e.file_name());
            std::fs::copy(e.path(), &dst)?;
            std::fs::File::open(&dst)?.sync_all()?;
        }
    }
    Ok(())
}

/// Per-layer metric names, in catalogue order (see `README.md`).
pub const LAYER_METRICS: [(&str, &str); 31] = [
    ("sql.parse_us", "us"),
    ("exec.plan_us", "us"),
    ("exec.execute_us", "us"),
    ("exec.rows_scanned_per_row_out", "ratio"),
    ("exec.join_probe_rows_per_query", "rows"),
    ("posindex.key_at_us", "us"),
    ("table.get_row_us", "us"),
    ("pool.hit_ratio", "ratio"),
    ("pool.evictions_per_op", "count"),
    ("pool.writeback_bytes_per_op", "bytes"),
    ("wal.commits_per_write_op", "count"),
    ("wal.appends_per_commit", "count"),
    ("vfs.fsync_us_per_write_op", "us"),
    ("vfs.write_bytes_per_user_byte", "ratio"),
    ("calc.cells_dirtied_per_edit", "cells"),
    ("calc.cells_recomputed_per_edit", "cells"),
    ("calc.unrelated_edit_us", "us"),
    ("calc.recalculate_ms", "ms"),
    ("formula.parse_us", "us"),
    ("grid.region_us", "us"),
    ("grid.cells_scanned_per_viewport", "cells"),
    ("grid.blocks_read_per_viewport", "blocks"),
    ("bind.refreshes_per_dml", "count"),
    ("bind.cells_diffed_per_dml", "cells"),
    ("bind.sync_noop_us", "us"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.wal_bytes_at_open", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("self.engine_frac", "ratio"),
    ("self.probe_frac", "ratio"),
    ("self.driver_frac", "ratio"),
];

fn layer_metrics(ctx: &Ctx, pass: &Pass, overhead: f64) -> Vec<Metric> {
    let med = |k: &str| ctx.layer_us.get(k).map_or(0.0, |v| median(v));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let total = |name: &str, kinds: &dyn Fn(Kind) -> bool| -> f64 {
        pass.deltas
            .iter()
            .filter(|(k, _)| kinds(**k))
            .map(|(_, d)| d.get(name).copied().unwrap_or(0) as f64)
            .sum()
    };
    let n_of = |kinds: &dyn Fn(Kind) -> bool| -> f64 {
        pass.lat
            .iter()
            .filter(|((k, _), _)| kinds(*k))
            .map(|(_, v)| v.len() as f64)
            .sum()
    };
    let all = |_: Kind| true;
    let sql = |k: Kind| k.is_sql();
    let query = |k: Kind| k == Kind::Query;
    let write = |k: Kind| k.is_write();
    let edit = |k: Kind| k == Kind::Edit;
    let dml = |k: Kind| matches!(k, Kind::SqlInsert | Kind::SqlUpdate | Kind::SqlDelete);
    let ops = n_of(&all);
    let hits = total("pool_hits", &all);
    let misses = total("pool_misses", &all);
    let commits = total("wal_commits", &all);

    // Self time: engine calls, benchmark probes, and the driver itself
    // (shadow checks, generation of SQL text), as shares of op time.
    let selfs = ctx
        .tracer
        .as_ref()
        .map(Tracer::self_times)
        .unwrap_or_default();
    let mut engine = 0u64;
    let mut probe = 0u64;
    let mut driver = 0u64;
    for (name, ns) in &selfs {
        if name.starts_with("engine.") {
            engine += ns;
        } else if REPORTED
            .iter()
            .chain(&[Kind::Formula, Kind::SqlDelete, Kind::Param])
            .any(|k| k.name() == *name)
        {
            driver += ns;
        } else {
            probe += ns;
        }
    }
    let span_total = (engine + probe + driver) as f64;

    let values: BTreeMap<&str, f64> = [
        ("sql.parse_us", med("sql.parse_us")),
        ("exec.plan_us", med("exec.plan_us")),
        ("exec.execute_us", med("exec.execute_us")),
        (
            "exec.rows_scanned_per_row_out",
            ratio(
                total("exec_rows_scanned", &sql),
                total("exec_rows_output", &sql) + ctx.sum("exec.rows_affected"),
            ),
        ),
        (
            "exec.join_probe_rows_per_query",
            ratio(total("exec_join_probe_rows", &query), n_of(&query)),
        ),
        ("posindex.key_at_us", med("posindex.key_at_us")),
        ("table.get_row_us", med("table.get_row_us")),
        ("pool.hit_ratio", ratio(hits, hits + misses)),
        (
            "pool.evictions_per_op",
            ratio(total("pool_evictions", &all), ops),
        ),
        (
            "pool.writeback_bytes_per_op",
            ratio(total("pool_writeback_bytes", &all), ops),
        ),
        ("wal.commits_per_write_op", ratio(commits, n_of(&write))),
        (
            "wal.appends_per_commit",
            ratio(total("wal_appends", &all), commits),
        ),
        (
            "vfs.fsync_us_per_write_op",
            ratio(total("vfs_fsync_ns_sum", &write) / 1e3, n_of(&write)),
        ),
        (
            "vfs.write_bytes_per_user_byte",
            ratio(total("vfs_write_bytes", &write), pass.user_bytes as f64),
        ),
        (
            "calc.cells_dirtied_per_edit",
            ratio(total("calc_cells_dirtied", &edit), n_of(&edit)),
        ),
        (
            "calc.cells_recomputed_per_edit",
            ratio(total("calc_cells_recomputed", &edit), n_of(&edit)),
        ),
        ("calc.unrelated_edit_us", med("calc.unrelated_edit_us")),
        ("calc.recalculate_ms", med("calc.recalculate_ms")),
        ("formula.parse_us", med("formula.parse_us")),
        ("grid.region_us", med("grid.region_us")),
        (
            "grid.cells_scanned_per_viewport",
            ratio(ctx.sum("grid.cells_scanned"), ctx.sum("grid.viewports")),
        ),
        (
            "grid.blocks_read_per_viewport",
            ratio(ctx.sum("grid.blocks_read"), ctx.sum("grid.viewports")),
        ),
        (
            "bind.refreshes_per_dml",
            ratio(total("bind_refreshes", &dml), n_of(&dml)),
        ),
        (
            "bind.cells_diffed_per_dml",
            ratio(total("bind_cells_diffed", &dml), n_of(&dml)),
        ),
        ("bind.sync_noop_us", med("bind.sync_noop_us")),
        ("persist.checkpoint_ms", med("persist.checkpoint_ms")),
        (
            "persist.wal_bytes_at_open",
            ctx.sum("persist.wal_bytes_at_open"),
        ),
        ("trace.overhead_frac", overhead),
        ("self.engine_frac", ratio(engine as f64, span_total)),
        ("self.probe_frac", ratio(probe as f64, span_total)),
        ("self.driver_frac", ratio(driver as f64, span_total)),
    ]
    .into_iter()
    .collect();
    LAYER_METRICS
        .iter()
        .map(|(name, unit)| Metric {
            name: name.to_string(),
            value: values[name],
            unit,
        })
        .collect()
}

/// Run the SQL `sql` as one op's engine call. Traced runs keep its text
/// for [`sql_probes`].
pub fn sql_call(wb: &mut Workbook, ctx: &mut Ctx, sql: &str) -> DsResult<dataspread::QueryResult> {
    let before = ctx.op_engine_ns;
    let out = ctx.call("engine.execute", || wb.execute(sql))?;
    if ctx.traced() {
        if let Some(n) = out.affected() {
            ctx.add("exec.rows_affected", n as f64);
        }
        let us = (ctx.op_engine_ns - before) as f64 / 1e3;
        ctx.last_sql = Some((sql.to_string(), us));
    }
    Ok(out)
}

/// Probes of the op's SQL statement, if it ran one: `parse_statement` on
/// the same text, and for queries `EXPLAIN` (parse and plan). The plan time
/// is `EXPLAIN` less parse; the execute time is the query's engine time
/// less `EXPLAIN`.
fn sql_probes(wb: &mut Workbook, ctx: &mut Ctx) -> DsResult<()> {
    let Some((sql, query_us)) = ctx.last_sql.take() else {
        return Ok(());
    };
    let (r, parse_us) = ctx.probe("sql.parse", || dataspread::sql::parse_statement(&sql));
    r?;
    ctx.sample("sql.parse_us", parse_us);
    if sql.starts_with("SELECT") {
        let text = format!("EXPLAIN {sql}");
        let (r, explain_us) = ctx.probe("exec.plan", || wb.execute(&text));
        r?;
        ctx.sample("exec.plan_us", (explain_us - parse_us).max(0.0));
        ctx.sample("exec.execute_us", (query_us - explain_us).max(0.0));
    }
    Ok(())
}
