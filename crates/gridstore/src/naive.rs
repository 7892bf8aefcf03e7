//! The no-grouping baseline: one hash entry per cell.
//!
//! This is what a key-value dump of cells looks like with no block structure:
//! point reads are fine, but *range* retrieval must inspect every stored cell
//! because nothing ties spatial proximity to storage proximity. Experiment
//! `C5` quantifies the gap versus [`crate::TiledGrid`]/[`crate::BlockGrid`].

use std::collections::HashMap;
use std::ops::ControlFlow;

use dataspread_types::{CellAddr, Range};

use crate::{shift_addr_cols, shift_addr_rows, visit_sorted, CellStore, StoreStats};

/// Per-cell hash map store.
#[derive(Debug, Default)]
pub struct NaiveGrid<T> {
    cells: HashMap<CellAddr, T>,
    stats: StoreStats,
}

impl<T> NaiveGrid<T> {
    pub fn new() -> Self {
        NaiveGrid {
            cells: HashMap::new(),
            stats: StoreStats::default(),
        }
    }

    fn rebuild(&mut self, f: impl Fn(CellAddr) -> Option<CellAddr>) {
        let old = std::mem::take(&mut self.cells);
        let n = old.len() as u64;
        for (a, v) in old {
            if let Some(na) = f(a) {
                self.cells.insert(na, v);
            }
        }
        self.stats.add_write(n);
    }
}

impl<T> CellStore<T> for NaiveGrid<T> {
    fn get(&self, addr: CellAddr) -> Option<&T> {
        self.stats.add_read(1);
        self.cells.get(&addr)
    }

    fn set(&mut self, addr: CellAddr, value: T) -> Option<T> {
        self.stats.add_write(1);
        self.cells.insert(addr, value)
    }

    fn remove(&mut self, addr: CellAddr) -> Option<T> {
        self.stats.add_write(1);
        self.cells.remove(&addr)
    }

    fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn for_each_in_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &T)) {
        // No spatial index: every stored cell is a candidate (and a "block
        // read" — per-cell storage means per-cell blocks).
        self.stats.add_read(self.cells.len() as u64);
        self.stats.add_scanned(self.cells.len() as u64);
        for (a, v) in &self.cells {
            if range.contains(*a) {
                f(*a, v);
            }
        }
    }

    fn visit_ordered(
        &self,
        range: Range,
        f: &mut dyn FnMut(CellAddr, &T) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.stats.add_read(self.cells.len() as u64);
        self.stats.add_scanned(self.cells.len() as u64);
        let hits = self.cells.iter().filter(|(a, _)| range.contains(**a));
        visit_sorted(hits.map(|(a, v)| (*a, v)).collect(), f)
    }

    fn used_bounds(&self) -> Option<Range> {
        let mut it = self.cells.keys();
        let first = *it.next()?;
        let mut bounds = Range::cell(first);
        for a in it {
            bounds = bounds.union(&Range::cell(*a));
        }
        Some(bounds)
    }

    fn insert_rows(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_rows(a, at, count, true));
    }

    fn delete_rows(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_rows(a, at, count, false));
    }

    fn insert_cols(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_cols(a, at, count, true));
    }

    fn delete_cols(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_cols(a, at, count, false));
    }

    fn stats(&self) -> &StoreStats {
        &self.stats
    }

    fn block_count(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_ops() {
        let mut g = NaiveGrid::new();
        let a = CellAddr::new(3, 4);
        assert_eq!(g.set(a, 42), None);
        assert_eq!(g.get(a), Some(&42));
        assert_eq!(g.set(a, 43), Some(42));
        assert_eq!(g.remove(a), Some(43));
        assert_eq!(g.get(a), None);
        assert_eq!(g.cell_count(), 0);
    }

    #[test]
    fn range_scan_filters() {
        let mut g = NaiveGrid::new();
        g.set(CellAddr::new(0, 0), 1);
        g.set(CellAddr::new(5, 5), 2);
        g.set(CellAddr::new(100, 100), 3);
        let got = g.cells_in_range(Range::from_bounds(0, 0, 10, 10));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (CellAddr::new(0, 0), 1));
        assert_eq!(got[1], (CellAddr::new(5, 5), 2));
    }

    #[test]
    fn structural_edits_shift() {
        let mut g = NaiveGrid::new();
        g.set(CellAddr::new(2, 0), "a");
        g.set(CellAddr::new(5, 0), "b");
        g.insert_rows(3, 2);
        assert_eq!(g.get(CellAddr::new(2, 0)), Some(&"a"));
        assert_eq!(g.get(CellAddr::new(7, 0)), Some(&"b"));
        g.delete_rows(0, 3);
        assert_eq!(g.get(CellAddr::new(4, 0)), Some(&"b"));
        assert_eq!(g.cell_count(), 1);
    }

    #[test]
    fn used_bounds_tight() {
        let mut g = NaiveGrid::new();
        assert_eq!(g.used_bounds(), None);
        g.set(CellAddr::new(3, 7), 1);
        g.set(CellAddr::new(9, 2), 1);
        assert_eq!(g.used_bounds(), Some(Range::from_bounds(3, 2, 9, 7)));
    }
}
