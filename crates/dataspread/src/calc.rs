//! Cross-sheet dependency tracking and incremental recomputation.
//!
//! The paper's front half: formula cells over ranges, recomputed
//! *incrementally* — an edit re-evaluates only the formulas downstream of
//! the changed cells, in topological order, never the unrelated ones (the
//! HTAP argument: interactive latency must not pay for workbook size).
//!
//! The sheets record edits (`Sheet::take_pending`); every `&mut` workbook
//! entry point folds them in before it returns, on success and on error
//! (`Workbook::edit`), so the `&self` reads never see a stale cache and
//! never flush:
//!
//! 1. **Structural edits** (insert/delete rows/cols) first rewrite the
//!    references of *other* sheets' formulas pointing at the edited sheet
//!    (the edited sheet already rewrote its own), then trigger a full
//!    recompute — structure changes are rare and invalidate broadly.
//! 2. **Cell edits** seed a dirty set; the affected formulas are found by
//!    range containment against each formula's precedents, closed
//!    transitively, topologically ordered (Kahn), and re-evaluated. Cells
//!    left unordered sit on a reference cycle (or feed from one) and are
//!    poisoned with `#CYCLE!`.
//!
//! [`CalcStats`] is a view over the workbook's metrics registry
//! (`calc_passes` / `calc_cells_dirtied` / `calc_cells_recomputed`, see
//! `docs/OBSERVABILITY.md`); tests use it to pin the "unrelated cells
//! are not recomputed" property, not just final values.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::ControlFlow;

use dataspread_formula::{CellProvider, GridOp};
use dataspread_types::{CellAddr, CellError, Range, SheetRef, Value};

use crate::sheet::Sheet;
use crate::workbook::Workbook;

/// Recomputation counters (cumulative over the workbook's lifetime).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CalcStats {
    /// Formula cells evaluated or poisoned with `#CYCLE!`.
    pub cells_recomputed: u64,
    /// Recalculation passes run (each flush of pending edits is one pass).
    pub passes: u64,
}

/// A formula cell's identity: (sheet index, position).
type CellId = (usize, CellAddr);

/// Cross-sheet cell resolution over the workbook's cached values. Range
/// arguments read through the sheet's cell store by ordered scan.
pub(crate) struct WbCells<'a> {
    sheets: &'a [Sheet],
    by_name: &'a HashMap<String, usize>,
    home: usize,
}

impl WbCells<'_> {
    fn sheet(&self, sheet: &SheetRef) -> Result<&Sheet, CellError> {
        let idx = match sheet {
            SheetRef::Current => self.home,
            SheetRef::Named(n) => *self
                .by_name
                .get(&n.to_ascii_lowercase())
                .ok_or(CellError::Ref)?,
        };
        Ok(&self.sheets[idx])
    }
}

impl CellProvider for WbCells<'_> {
    fn cell_value(&self, sheet: &SheetRef, addr: CellAddr) -> Result<Value, CellError> {
        Ok(self.sheet(sheet)?.value(addr))
    }

    fn for_each_cell(
        &self,
        sheet: &SheetRef,
        range: Range,
        f: &mut dyn FnMut(CellAddr, &Value) -> ControlFlow<()>,
    ) -> Result<(), CellError> {
        let _ = self.sheet(sheet)?.store().visit_ordered(range, f);
        Ok(())
    }
}

impl Workbook {
    /// Resolve a formula's sheet qualifier to a sheet index; `None` when the
    /// named sheet does not exist (the reference evaluates to `#REF!`).
    fn resolve_sheet(&self, home: usize, s: &SheetRef) -> Option<usize> {
        match s {
            SheetRef::Current => Some(home),
            SheetRef::Named(n) => self.by_name.get(&n.to_ascii_lowercase()).copied(),
        }
    }

    /// Every formula cell in the workbook with its resolved precedents.
    fn formula_graph(&self) -> Vec<(CellId, Vec<(usize, Range)>)> {
        let mut out = Vec::new();
        for (i, sheet) in self.sheets.iter().enumerate() {
            for addr in sheet.formula_addrs() {
                let precs = match sheet.formula_ast(addr) {
                    Some(ast) => ast
                        .precedents()
                        .into_iter()
                        .filter_map(|(s, r)| self.resolve_sheet(i, &s).map(|si| (si, r)))
                        .collect(),
                    // Unparseable formulas display #NAME? and read nothing.
                    None => Vec::new(),
                };
                out.push(((i, addr), precs));
            }
        }
        out
    }

    /// Fold every sheet's pending edits into the dependency graph and
    /// recompute what they invalidate. Cheap no-op when nothing is pending.
    /// Called only by `Workbook::edit`, at the end of every workbook-level
    /// edit, and by `open` after WAL replay; tests that batch raw
    /// `sheet_mut` edits call it themselves, as replay does.
    pub(crate) fn flush_grid(&mut self) {
        if self.sheets.iter().all(|s| !s.has_pending()) {
            return;
        }
        let mut dirty: Vec<CellId> = Vec::new();
        let mut structural: Vec<(u64, usize, GridOp)> = Vec::new();
        for i in 0..self.sheets.len() {
            let pending = self.sheets[i].take_pending();
            dirty.extend(pending.cells.into_iter().map(|a| (i, a)));
            structural.extend(pending.ops.into_iter().map(|(seq, op)| (seq, i, op)));
        }
        self.obs.calc_cells_dirtied.add(dirty.len() as u64);
        // Structural edits: the edited sheet rewrote its own references when
        // the edit happened; rewrite the references other sheets hold into
        // it, in edit-clock order. The per-formula stamp check inside
        // `adjust_foreign_refs` keeps temporal correctness when a batch
        // interleaves edits and formula writes (raw `sheet_mut` usage, WAL
        // replay): a formula typed after an edit already uses post-edit
        // coordinates and must not be shifted again.
        structural.sort_by_key(|&(seq, _, _)| seq);
        for &(seq, i, op) in &structural {
            let name = self.sheets[i].name().to_string();
            for j in 0..self.sheets.len() {
                if j != i {
                    self.sheets[j].adjust_foreign_refs(op, seq, &name);
                }
            }
        }
        if !structural.is_empty() {
            self.recompute_all();
        } else {
            self.recompute_after(&dirty);
        }
    }

    /// Re-evaluate every formula in the workbook (topological order, cycles
    /// poisoned). Used after structural edits, sheet creation, and recovery.
    pub(crate) fn recompute_all(&mut self) {
        let graph = self.formula_graph();
        let work: HashSet<CellId> = graph.iter().map(|(id, _)| *id).collect();
        self.recompute_set(graph, work);
    }

    /// Incremental pass: re-evaluate exactly the formulas downstream of the
    /// edited positions.
    fn recompute_after(&mut self, dirty: &[CellId]) {
        if dirty.is_empty() {
            return;
        }
        let graph = self.formula_graph();
        // Seed: edited cells that are themselves formulas must re-evaluate.
        let formula_ids: HashSet<CellId> = graph.iter().map(|(id, _)| *id).collect();
        let mut positions: HashSet<CellId> = dirty.iter().copied().collect();
        let mut work: HashSet<CellId> = dirty
            .iter()
            .copied()
            .filter(|id| formula_ids.contains(id))
            .collect();
        // Transitive closure: a formula joins the work set when any of its
        // precedent ranges contains a changed position (original edits or
        // formulas already scheduled).
        loop {
            let mut grew = false;
            for (id, precs) in &graph {
                if work.contains(id) {
                    continue;
                }
                let hit = precs.iter().any(|(si, range)| {
                    positions
                        .iter()
                        .any(|(pi, pa)| pi == si && range.contains(*pa))
                });
                if hit {
                    work.insert(*id);
                    positions.insert(*id);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        if !work.is_empty() {
            self.recompute_set(graph, work);
        }
    }

    /// Evaluate the formulas in `work` in dependency order; whatever Kahn's
    /// algorithm cannot order is on (or downstream of) a cycle → `#CYCLE!`.
    fn recompute_set(&mut self, graph: Vec<(CellId, Vec<(usize, Range)>)>, work: HashSet<CellId>) {
        self.obs.calc_passes.bump();
        let prec_of: HashMap<CellId, &Vec<(usize, Range)>> = graph
            .iter()
            .filter(|(id, _)| work.contains(id))
            .map(|(id, p)| (*id, p))
            .collect();
        // Deterministic member order keeps evaluation order (and therefore
        // tie-breaks) stable across runs.
        let mut members: Vec<CellId> = work.iter().copied().collect();
        members.sort();
        // Edge g → f when f's precedents contain g (both in the work set).
        // A self-loop (`=A1` in A1) counts like any other cycle edge.
        let mut indegree: HashMap<CellId, usize> = members.iter().map(|id| (*id, 0)).collect();
        let mut dependents: HashMap<CellId, Vec<CellId>> = HashMap::new();
        for &f in &members {
            for (si, range) in prec_of.get(&f).copied().into_iter().flatten() {
                for &g in &members {
                    if g.0 == *si && range.contains(g.1) {
                        *indegree.get_mut(&f).expect("member") += 1;
                        dependents.entry(g).or_default().push(f);
                    }
                }
            }
        }
        let mut queue: VecDeque<CellId> = members
            .iter()
            .copied()
            .filter(|id| indegree[id] == 0)
            .collect();
        let mut done: HashSet<CellId> = HashSet::new();
        // Topological level per cell: roots sit at level 1, a dependent sits
        // one past its deepest evaluated precedent. The max over the pass is
        // the critical-path depth the `calc_topo_depth` gauge reports.
        let mut level: HashMap<CellId, u64> = queue.iter().map(|id| (*id, 1)).collect();
        let mut max_level: u64 = if queue.is_empty() { 0 } else { 1 };
        while let Some(id) = queue.pop_front() {
            if !done.insert(id) {
                continue;
            }
            self.eval_formula_cell(id);
            let lvl = level.get(&id).copied().unwrap_or(1);
            max_level = max_level.max(lvl);
            if let Some(deps) = dependents.get(&id) {
                // Clone: decrementing counts while iterating the edge list.
                for d in deps.clone() {
                    let slot = level.entry(d).or_insert(0);
                    *slot = (*slot).max(lvl + 1);
                    let slot = indegree.get_mut(&d).expect("member");
                    *slot -= 1;
                    if *slot == 0 {
                        queue.push_back(d);
                    }
                }
            }
        }
        self.obs.calc_topo_depth.set(max_level as i64);
        // Leftovers are cyclic (or fed by a cycle): poison them.
        for id in members {
            if !done.contains(&id) {
                self.sheets[id.0].set_cached(id.1, Value::Error(CellError::Cycle));
                self.obs.calc_cells_recomputed.bump();
            }
        }
    }

    /// Evaluate one formula cell against the workbook and cache the result.
    fn eval_formula_cell(&mut self, (i, addr): CellId) {
        let v = match self.sheets[i].formula_ast(addr) {
            Some(ast) => {
                let provider = WbCells {
                    sheets: &self.sheets,
                    by_name: &self.by_name,
                    home: i,
                };
                ast.eval(&provider)
            }
            None => return, // formula removed mid-pass; nothing to do
        };
        self.sheets[i].set_cached(addr, v);
        self.obs.calc_cells_recomputed.bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workbook;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse_a1(s).unwrap()
    }

    #[test]
    fn formula_evaluates_and_tracks_edits() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "2").unwrap();
        wb.set_input(s, a("A2"), "3").unwrap();
        let v = wb.set_input(s, a("B1"), "=SUM(A1:A2)*10").unwrap();
        assert_eq!(v, Value::Int(50));
        // Editing a precedent recomputes the dependent.
        wb.set_input(s, a("A1"), "5").unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Int(80));
        // Clearing a precedent recomputes too.
        wb.set_value(s, a("A2"), Value::Empty).unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Int(50));
    }

    #[test]
    fn chained_formulas_recompute_in_topological_order() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "1").unwrap();
        wb.set_input(s, a("B1"), "=A1+1").unwrap();
        wb.set_input(s, a("C1"), "=B1+1").unwrap();
        wb.set_input(s, a("D1"), "=C1+B1").unwrap();
        assert_eq!(wb.cell(s, a("D1")), Value::Int(5));
        wb.set_input(s, a("A1"), "10").unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Int(11));
        assert_eq!(wb.cell(s, a("C1")), Value::Int(12));
        assert_eq!(wb.cell(s, a("D1")), Value::Int(23));
    }

    #[test]
    fn unrelated_formulas_are_not_recomputed() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "1").unwrap();
        wb.set_input(s, a("Z1"), "100").unwrap();
        wb.set_input(s, a("B1"), "=A1*2").unwrap();
        wb.set_input(s, a("Y1"), "=Z1*2").unwrap();
        let before = wb.calc_stats().cells_recomputed;
        // Touch only A1: exactly one formula (B1) may re-evaluate.
        wb.set_input(s, a("A1"), "7").unwrap();
        let recomputed = wb.calc_stats().cells_recomputed - before;
        assert_eq!(recomputed, 1, "only the dependent formula re-evaluates");
        assert_eq!(wb.cell(s, a("B1")), Value::Int(14));
        assert_eq!(wb.cell(s, a("Y1")), Value::Int(200));
    }

    #[test]
    fn cycles_are_poisoned_not_hung() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "=B1+1").unwrap();
        wb.set_input(s, a("B1"), "=A1+1").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Error(CellError::Cycle));
        assert_eq!(wb.cell(s, a("B1")), Value::Error(CellError::Cycle));
        // Self-reference is the smallest cycle.
        wb.set_input(s, a("C1"), "=C1").unwrap();
        assert_eq!(wb.cell(s, a("C1")), Value::Error(CellError::Cycle));
        // Breaking the cycle heals both cells.
        wb.set_input(s, a("B1"), "1").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Int(2));
    }

    #[test]
    fn cross_sheet_dependencies_recompute() {
        let mut wb = Workbook::new();
        let data = wb.add_sheet("Data").unwrap();
        let s = wb.current_sheet();
        wb.set_input(data, a("A1"), "21").unwrap();
        wb.set_input(s, a("A1"), "=Data!A1*2").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Int(42));
        wb.set_input(data, a("A1"), "50").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Int(100));
        // A reference to a sheet that does not exist is #REF!.
        wb.set_input(s, a("B1"), "=Nope!A1").unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Error(CellError::Ref));
        // Creating the sheet heals it.
        let nope = wb.add_sheet("Nope").unwrap();
        wb.set_input(nope, a("A1"), "9").unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Int(9));
    }

    #[test]
    fn structural_edits_shift_references_across_sheets() {
        let mut wb = Workbook::new();
        let data = wb.add_sheet("Data").unwrap();
        let s = wb.current_sheet();
        wb.set_input(data, a("A5"), "7").unwrap();
        wb.set_input(s, a("A1"), "=Data!A5").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Int(7));
        // Insert rows above the referenced cell on Data: the foreign
        // reference follows the data.
        wb.insert_rows(data, 0, 3).unwrap();
        assert_eq!(wb.formula_text(s, a("A1")), Some("=Data!A8"));
        assert_eq!(wb.cell(s, a("A1")), Value::Int(7));
        // Delete the referenced row: #REF!.
        wb.delete_rows(data, 7, 1).unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Error(CellError::Ref));
    }

    #[test]
    fn delete_rows_shrinks_ranges_and_recomputes() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        for r in 1..=5 {
            wb.set_input(s, a(&format!("A{r}")), "10").unwrap();
        }
        wb.set_input(s, a("C1"), "=SUM(A1:A5)").unwrap();
        assert_eq!(wb.cell(s, a("C1")), Value::Int(50));
        wb.delete_rows(s, 1, 2).unwrap();
        assert_eq!(wb.formula_text(s, a("C1")), Some("=SUM(A1:A3)"));
        assert_eq!(wb.cell(s, a("C1")), Value::Int(30));
        wb.insert_cols(s, 0, 1).unwrap();
        assert_eq!(wb.formula_text(s, a("D1")), Some("=SUM(B1:B3)"));
        assert_eq!(wb.cell(s, a("D1")), Value::Int(30));
    }

    #[test]
    fn later_formulas_are_not_double_shifted_by_batched_structural_edits() {
        // Raw `sheet_mut` edits batch into one flush, as WAL replay does. A
        // formula typed AFTER a structural edit already uses post-edit
        // coordinates; the deferred foreign-reference rewrite must leave it
        // alone (edit-clock stamps).
        let mut wb = Workbook::new();
        let data = wb.add_sheet("Data").unwrap();
        let s = wb.current_sheet();
        wb.set_input(data, a("A5"), "9").unwrap();
        // Pending batch: structural edit, THEN a formula using post-shift
        // coordinates (A5 moved to A6).
        wb.sheet_mut(data).insert_rows(0, 1).unwrap();
        wb.sheet_mut(s).set_input(a("B1"), "=Data!A6").unwrap();
        wb.flush_grid();
        assert_eq!(wb.cell(s, a("B1")), Value::Int(9));
        assert_eq!(wb.formula_text(s, a("B1")), Some("=Data!A6"));
        // The reverse order in one batch still shifts the older formula.
        wb.sheet_mut(s).set_input(a("B2"), "=Data!A6").unwrap();
        wb.sheet_mut(data).insert_rows(0, 1).unwrap();
        wb.flush_grid();
        assert_eq!(wb.cell(s, a("B2")), Value::Int(9));
        assert_eq!(wb.formula_text(s, a("B2")), Some("=Data!A7"));
    }

    #[test]
    fn formula_results_visible_to_sql() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "40").unwrap();
        wb.set_input(s, a("B1"), "=A1+2").unwrap();
        let (_, rows) = wb.query("SELECT RANGEVALUE(B1)").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(42)]]);
        // Via RANGETABLE too.
        wb.set_input(s, a("A2"), "=A1/2").unwrap();
        let (_, rows) = wb.query("SELECT SUM(a) FROM RANGETABLE(A1:A2)").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(60)]]);
    }

    #[test]
    fn error_propagation_through_dependents() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "1").unwrap();
        wb.set_input(s, a("B1"), "=A1/0").unwrap();
        wb.set_input(s, a("C1"), "=B1+1").unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Error(CellError::Div0));
        assert_eq!(wb.cell(s, a("C1")), Value::Error(CellError::Div0));
        // IF can shield dependents from the error.
        wb.set_input(s, a("D1"), "=IF(A1>0,A1,B1)").unwrap();
        assert_eq!(wb.cell(s, a("D1")), Value::Int(1));
    }
}
