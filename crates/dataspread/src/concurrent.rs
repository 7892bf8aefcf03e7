//! The concurrent engine: snapshot-isolated parallel reads and sharded
//! parallel writes over one shared workbook.
//!
//! Two access tiers, cheapest first (protocol details and the full lock
//! discipline: `docs/CONCURRENCY.md`):
//!
//! 1. **[`WorkbookSnapshot`]** — an owned, immutable copy-on-write image of
//!    every table. Taking one costs O(#pages) `Arc` clones per table; using
//!    one costs nothing in locks. Scans over it never block and are never
//!    blocked.
//! 2. **[`SharedWorkbook`]** — `Arc<RwLock<Workbook>>` for multi-threaded
//!    engines. Readers share the workbook read lock and get `&Workbook`:
//!    every read — cells, ranges, viewports, `SELECT` — takes `&self`,
//!    because every `&mut` entry point folds pending recompute before it
//!    returns. Whole-workbook edits (sheet input, SQL DML/DDL — anything
//!    that may touch the workbook-global formula graph or bindings) take
//!    the write lock; and [`SharedWorkbook::with_table_mut`] threads DML to
//!    *one* table through the workbook **read** lock plus that table's
//!    shard write lock, so writers to disjoint tables run in parallel and
//!    each logged operation rides the WAL's group commit.
//!
//! Snapshot semantics: a snapshot (tier 1, or the per-scan
//! [`TableSnapshot`]s a `SELECT` plans against) observes exactly the
//! operations that completed before it was taken — never a torn row, never
//! an uncommitted in-progress write, because the snapshot clone itself
//! runs under the table's read lock which excludes the writer holding the
//! shard exclusively.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use dataspread_relstore::{GroupCommitStats, Table, TableSnapshot};
use dataspread_types::{DsError, DsResult, Value};

use crate::workbook::Workbook;

impl Workbook {
    /// Group-commit counters of the attached WAL (commits vs fsyncs), or
    /// `None` when the workbook has no durable store.
    pub fn group_commit_stats(&self) -> Option<GroupCommitStats> {
        self.store.as_ref().map(|s| s.wal.group_commit_stats())
    }

    /// A consistent snapshot of one table.
    pub fn table_snapshot(&self, table: &str) -> DsResult<TableSnapshot> {
        self.catalog.snapshot_of(table)
    }

    /// An owned consistent image of every catalog table. Tables are
    /// snapshot one at a time (each under its own read lock); the set is
    /// point-in-time per table, not across tables. See
    /// [`WorkbookSnapshot`].
    pub fn snapshot(&self) -> WorkbookSnapshot {
        let mut tables = HashMap::new();
        for name in self.catalog.table_names() {
            if let Ok(snap) = self.catalog.snapshot_of(&name) {
                tables.insert(name.to_ascii_lowercase(), snap);
            }
        }
        WorkbookSnapshot { tables }
    }
}

// ---- tier 1: the owned snapshot ----------------------------------------

/// An owned, immutable image of a workbook's tables: every lookup and scan
/// runs without taking any lock, isolated from all later writes.
///
/// Cheap by construction — pages are copy-on-write ([`TableSnapshot`]), so
/// the snapshot shares page memory with the live tables until a writer
/// actually changes a shared page.
#[derive(Clone, Debug)]
pub struct WorkbookSnapshot {
    /// Keyed by lower-cased table name (SQL identifiers are
    /// case-insensitive).
    tables: HashMap<String, TableSnapshot>,
}

impl WorkbookSnapshot {
    /// The snapshot of one table, by (case-insensitive) name.
    pub fn table(&self, name: &str) -> DsResult<&TableSnapshot> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DsError::TableNotFound(name.to_string()))
    }

    /// Table names, sorted for deterministic output.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.values().map(|t| t.name().to_string()).collect();
        names.sort();
        names
    }

    /// Number of tables captured.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables were captured.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

// ---- tier 2: the shared workbook ---------------------------------------

/// A workbook behind `Arc<RwLock<..>>`: clone handles freely across
/// threads.
///
/// Lock layering (top to bottom; see `docs/CONCURRENCY.md`):
///
/// * the **workbook lock** — read-shared by reads and by
///   [`SharedWorkbook::with_table_mut`], write-exclusive for whole-workbook
///   edits ([`SharedWorkbook::write`]);
/// * each table's **shard lock** — what actually serializes writers of one
///   table, which is exactly what lets writers of *different* tables run
///   in parallel under the shared workbook read lock.
///
/// Poisoning is absorbed (`into_inner`): a panicking writer may leave a
/// half-applied *logical* edit, but never a torn page — page mutation goes
/// through `&mut` methods that complete or panic before publishing.
#[derive(Clone, Debug)]
pub struct SharedWorkbook {
    inner: Arc<RwLock<Workbook>>,
}

impl SharedWorkbook {
    /// Wrap a workbook for shared use.
    pub fn new(wb: Workbook) -> Self {
        SharedWorkbook {
            inner: Arc::new(RwLock::new(wb)),
        }
    }

    /// Run `f` under the workbook read lock: cell, range and viewport
    /// reads, `SELECT`s and snapshots. Concurrent callers proceed in
    /// parallel; whole-workbook writers wait.
    pub fn read<R>(&self, f: impl FnOnce(&Workbook) -> R) -> R {
        let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
        f(&g)
    }

    /// Run `f` under the workbook **write** lock — the path for sheet
    /// edits, SQL DML/DDL through [`Workbook::execute`], save/checkpoint:
    /// anything that may touch the workbook-global formula graph, the
    /// bindings, or the sheet grid.
    pub fn write<R>(&self, f: impl FnOnce(&mut Workbook) -> R) -> R {
        let mut g = self.inner.write().unwrap_or_else(|e| e.into_inner());
        f(&mut g)
    }

    /// Parallel-write fast path: run `f` on one table under the workbook
    /// *read* lock plus that table's shard write lock. DML to disjoint
    /// tables proceeds concurrently, and with a durable store attached each
    /// logged operation auto-commits through the WAL's group commit (N
    /// concurrent committers, ~1 fsync per batch).
    ///
    /// This is the HTAP path for tables **not** bound to sheet regions: it
    /// bypasses binding re-sync and formula recompute (there is no sheet
    /// state to update). Use [`SharedWorkbook::write`] +
    /// [`Workbook::execute`] for bound tables.
    ///
    /// Deadlock discipline: `f` must not touch the catalog or any other
    /// shard — it owns exactly one shard lock for its duration.
    pub fn with_table_mut<R>(
        &self,
        table: &str,
        f: impl FnOnce(&mut Table) -> DsResult<R>,
    ) -> DsResult<R> {
        let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
        // Reject before taking the shard lock: once the engine is read-only
        // every write path must fail without mutating in-memory state.
        g.ensure_writable()?;
        let mut t = g.catalog().get_mut(table)?;
        f(&mut t)
    }

    /// The engine's current health, under the workbook read lock. Health is
    /// derived from the attached WAL's poison state, so every clone of this
    /// handle observes a degradation the instant it happens.
    pub fn health(&self) -> crate::workbook::EngineHealth {
        let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
        g.health()
    }

    /// Take a [`WorkbookSnapshot`] under the workbook read lock.
    pub fn snapshot(&self) -> WorkbookSnapshot {
        self.read(|s| s.snapshot())
    }

    /// Convenience: one `SELECT` under the read lock.
    pub fn query(&self, sql: &str) -> DsResult<(Vec<String>, Vec<Vec<Value>>)> {
        self.read(|s| s.query(sql))
    }

    /// Recover the owned workbook if this is the last handle; otherwise
    /// hand the shared handle back.
    pub fn try_into_inner(self) -> Result<Workbook, SharedWorkbook> {
        match Arc::try_unwrap(self.inner) {
            Ok(lock) => Ok(lock.into_inner().unwrap_or_else(|e| e.into_inner())),
            Err(inner) => Err(SharedWorkbook { inner }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn seeded() -> Workbook {
        let mut wb = Workbook::new();
        wb.execute("CREATE TABLE t (id INT, v INT)").unwrap();
        wb.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        wb
    }

    #[test]
    fn query_selects_without_mut() {
        let wb = seeded();
        let s: &Workbook = &wb;
        let (cols, rows) = s.query("SELECT v FROM t WHERE id >= 2").unwrap();
        assert_eq!(cols, vec!["v"]);
        assert_eq!(rows, vec![vec![Value::Int(20)], vec![Value::Int(30)]]);
    }

    #[test]
    fn query_rejects_writes_before_running_them() {
        let wb = seeded();
        let s: &Workbook = &wb;
        for (sql, kind) in [
            ("DELETE FROM t WHERE id = 2", "DELETE"),
            ("INSERT INTO t VALUES (4, 40)", "INSERT"),
            ("UPDATE t SET v = 0", "UPDATE"),
            ("DROP TABLE t", "DROP TABLE"),
        ] {
            match s.query(sql) {
                Err(DsError::Sql(msg)) => assert!(msg.contains(kind), "{msg}"),
                other => panic!("{sql}: {other:?}"),
            }
        }
        assert_eq!(s.catalog().get("t").unwrap().row_count(), 3, "nothing ran");
        let (_, rows) = s.query("SELECT SUM(v) FROM t").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(60)]]);
    }

    #[test]
    fn shared_read_serves_grid_reads_under_one_lock() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        let (a1, b1) = ("A1".parse().unwrap(), "B1".parse().unwrap());
        wb.set_input(s, a1, "1").unwrap();
        wb.set_input(s, b1, "=A1*2").unwrap();
        let shared = SharedWorkbook::new(wb);
        let writer = {
            let sh = shared.clone();
            thread::spawn(move || {
                for i in 2..=200 {
                    sh.write(|wb| wb.set_input(s, a1, &i.to_string())).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let sh = shared.clone();
                thread::spawn(move || loop {
                    // Both cells under one read lock: the writer's edit and
                    // its recompute are never observed half-done.
                    let (a, b) = sh.read(|wb| (wb.cell(s, a1), wb.cell(s, b1)));
                    let (Value::Int(a), Value::Int(b)) = (a, b) else {
                        panic!("non-integer cells");
                    };
                    assert_eq!(b, 2 * a, "B1 = A1*2 under one read lock");
                    if a == 200 {
                        break;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn workbook_snapshot_is_isolated() {
        let mut wb = seeded();
        let snap = wb.snapshot();
        wb.execute("INSERT INTO t VALUES (4, 40)").unwrap();
        wb.execute("CREATE TABLE u (x INT)").unwrap();
        assert_eq!(snap.table("t").unwrap().row_count(), 3, "pre-insert image");
        assert!(snap.table("u").is_err(), "created after the snapshot");
        assert_eq!(snap.table_names(), vec!["t"]);
        assert_eq!(wb.catalog().get("t").unwrap().row_count(), 4);
    }

    #[test]
    fn shared_parallel_disjoint_writes_and_reads() {
        let mut wb = Workbook::new();
        wb.execute("CREATE TABLE a (id INT)").unwrap();
        wb.execute("CREATE TABLE b (id INT)").unwrap();
        let shared = SharedWorkbook::new(wb);
        let writers: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let sh = shared.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        sh.with_table_mut(name, |t| t.insert(vec![Value::Int(i)]))
                            .unwrap();
                    }
                })
            })
            .collect();
        let reader = {
            let sh = shared.clone();
            thread::spawn(move || {
                // Row counts only ever grow; a snapshot never sees a torn row.
                let mut last = 0;
                loop {
                    let n = sh.snapshot().table("a").unwrap().row_count();
                    assert!(n >= last);
                    last = n;
                    if n == 100 {
                        break;
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        let wb = shared.try_into_inner().expect("last handle");
        assert_eq!(wb.catalog().get("a").unwrap().row_count(), 100);
        assert_eq!(wb.catalog().get("b").unwrap().row_count(), 100);
    }
}
