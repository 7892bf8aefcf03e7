//! Proximity-block store: the paper-faithful interface storage layout.
//!
//! > "the component groups the cells together by proximity and splits the
//! > groups into data blocks as required by the underlying storage"
//!
//! Cells are gathered into variable-extent blocks of bounded capacity. A new
//! cell joins the nearby block whose bounding rectangle grows the least; a
//! block that outgrows its capacity splits along its longer axis at the
//! median cell. Block rectangles are indexed by the [`RTree`], so a window
//! fetch only opens blocks whose bounds intersect the window.

use std::collections::HashMap;
use std::ops::ControlFlow;

use dataspread_types::{CellAddr, Range};

use crate::rtree::{RTree, Rect};
use crate::{shift_addr_cols, shift_addr_rows, visit_sorted, CellStore, StoreStats};

/// Tuning for the proximity grouping.
#[derive(Clone, Copy, Debug)]
pub struct BlockConfig {
    /// Maximum cells per block before it splits.
    pub capacity: usize,
    /// How far (Chebyshev distance) a cell may be from an existing block and
    /// still join it rather than founding a new block.
    pub proximity: u32,
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig {
            capacity: 256,
            proximity: 8,
        }
    }
}

#[derive(Debug)]
struct Block<T> {
    bounds: Rect,
    cells: HashMap<CellAddr, T>,
}

impl<T> Block<T> {
    fn recompute_bounds(&mut self) {
        let mut it = self.cells.keys();
        let first = it.next().expect("recompute_bounds on empty block");
        let mut b = Rect::point(first.row, first.col);
        for a in it {
            b = b.union(&Rect::point(a.row, a.col));
        }
        self.bounds = b;
    }
}

/// Variable-extent proximity blocks indexed by an R-tree.
#[derive(Debug)]
pub struct BlockGrid<T> {
    cfg: BlockConfig,
    blocks: Vec<Option<Block<T>>>,
    free: Vec<u32>,
    rtree: RTree<u32>,
    cells: usize,
    stats: StoreStats,
}

impl<T> Default for BlockGrid<T> {
    fn default() -> Self {
        BlockGrid::new(BlockConfig::default())
    }
}

impl<T> BlockGrid<T> {
    pub fn new(cfg: BlockConfig) -> Self {
        assert!(cfg.capacity >= 2);
        BlockGrid {
            cfg,
            blocks: Vec::new(),
            free: Vec::new(),
            rtree: RTree::new(8),
            cells: 0,
            stats: StoreStats::default(),
        }
    }

    pub fn config(&self) -> BlockConfig {
        self.cfg
    }

    fn alloc_block(&mut self, block: Block<T>) -> u32 {
        if let Some(id) = self.free.pop() {
            self.blocks[id as usize] = Some(block);
            id
        } else {
            self.blocks.push(Some(block));
            (self.blocks.len() - 1) as u32
        }
    }

    fn block(&self, id: u32) -> &Block<T> {
        self.blocks[id as usize]
            .as_ref()
            .expect("dangling block id")
    }

    fn block_mut(&mut self, id: u32) -> &mut Block<T> {
        self.blocks[id as usize]
            .as_mut()
            .expect("dangling block id")
    }

    /// The block currently holding `addr`, if any.
    fn find_block_of(&self, addr: CellAddr) -> Option<u32> {
        let candidates = self.rtree.point_search(addr.row, addr.col);
        self.stats.add_read(candidates.len() as u64);
        candidates
            .into_iter()
            .find(|&id| self.block(id).cells.contains_key(&addr))
    }

    /// Split an over-capacity block along its longer axis at the median cell.
    fn split_block(&mut self, id: u32) {
        let old_bounds = self.block(id).bounds;
        let mut cells: Vec<(CellAddr, T)> = self.block_mut(id).cells.drain().collect();
        let by_rows = (old_bounds.r1 - old_bounds.r0) >= (old_bounds.c1 - old_bounds.c0);
        if by_rows {
            cells.sort_by_key(|(a, _)| (a.row, a.col));
        } else {
            cells.sort_by_key(|(a, _)| (a.col, a.row));
        }
        let second = cells.split_off(cells.len() / 2);
        let left = self.block_mut(id);
        left.cells.extend(cells);
        left.recompute_bounds();
        let left_bounds = left.bounds;

        let mut right = Block {
            bounds: Rect::point(0, 0),
            cells: second.into_iter().collect(),
        };
        right.recompute_bounds();
        let right_bounds = right.bounds;
        let right_id = self.alloc_block(right);

        self.rtree.update(old_bounds, left_bounds, id);
        self.rtree.insert(right_bounds, right_id);
        self.stats.add_write(2);
    }

    fn rebuild(&mut self, f: impl Fn(CellAddr) -> Option<CellAddr>) {
        let mut all: Vec<(CellAddr, T)> = Vec::with_capacity(self.cells);
        for slot in self.blocks.iter_mut() {
            if let Some(b) = slot.take() {
                all.extend(b.cells);
            }
        }
        self.blocks.clear();
        self.free.clear();
        self.rtree = RTree::new(8);
        self.cells = 0;
        // Deterministic rebuild order keeps blocks spatially coherent.
        all.sort_by_key(|(a, _)| *a);
        for (a, v) in all {
            if let Some(na) = f(a) {
                self.set(na, v);
            }
        }
    }
}

impl<T> CellStore<T> for BlockGrid<T> {
    fn get(&self, addr: CellAddr) -> Option<&T> {
        let id = self.find_block_of(addr)?;
        self.block(id).cells.get(&addr)
    }

    fn set(&mut self, addr: CellAddr, value: T) -> Option<T> {
        // Existing cell: replace in place, bounds unchanged.
        if let Some(id) = self.find_block_of(addr) {
            self.stats.add_write(1);
            return self.block_mut(id).cells.insert(addr, value);
        }
        // New cell: join the nearby block whose bounds grow least.
        let p = self.cfg.proximity;
        let neighborhood = Rect::new(
            addr.row.saturating_sub(p),
            addr.col.saturating_sub(p),
            addr.row.saturating_add(p),
            addr.col.saturating_add(p),
        );
        let candidates = self.rtree.search(neighborhood);
        self.stats.add_read(candidates.len() as u64);
        let cell_rect = Rect::point(addr.row, addr.col);
        let mut best: Option<(u32, u64)> = None;
        for id in candidates {
            let b = self.block(id);
            if b.cells.len() >= self.cfg.capacity {
                continue;
            }
            let grow = b.bounds.enlargement(&cell_rect);
            if best.is_none_or(|(_, g)| grow < g) {
                best = Some((id, grow));
            }
        }
        self.cells += 1;
        self.stats.add_write(1);
        match best {
            Some((id, _)) => {
                let old_bounds = self.block(id).bounds;
                let block = self.block_mut(id);
                block.cells.insert(addr, value);
                let new_bounds = old_bounds.union(&cell_rect);
                if new_bounds != old_bounds {
                    self.block_mut(id).bounds = new_bounds;
                    self.rtree.update(old_bounds, new_bounds, id);
                }
                if self.block(id).cells.len() > self.cfg.capacity {
                    self.split_block(id);
                }
                None
            }
            None => {
                let mut cells = HashMap::new();
                cells.insert(addr, value);
                let id = self.alloc_block(Block {
                    bounds: cell_rect,
                    cells,
                });
                self.rtree.insert(cell_rect, id);
                None
            }
        }
    }

    fn remove(&mut self, addr: CellAddr) -> Option<T> {
        let id = self.find_block_of(addr)?;
        self.stats.add_write(1);
        let old_bounds = self.block(id).bounds;
        let v = self.block_mut(id).cells.remove(&addr);
        if v.is_some() {
            self.cells -= 1;
            if self.block(id).cells.is_empty() {
                self.rtree.remove(old_bounds, id);
                self.blocks[id as usize] = None;
                self.free.push(id);
            } else {
                // Keep bounds tight so window queries stay selective.
                self.block_mut(id).recompute_bounds();
                let nb = self.block(id).bounds;
                if nb != old_bounds {
                    self.rtree.update(old_bounds, nb, id);
                }
            }
        }
        v
    }

    fn cell_count(&self) -> usize {
        self.cells
    }

    fn for_each_in_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &T)) {
        let hits = self.rtree.search(Rect::from_range(range));
        self.stats.add_read(hits.len() as u64);
        for id in hits {
            let b = self.block(id);
            self.stats.add_scanned(b.cells.len() as u64);
            for (a, v) in &b.cells {
                if range.contains(*a) {
                    f(*a, v);
                }
            }
        }
    }

    fn visit_ordered(
        &self,
        range: Range,
        f: &mut dyn FnMut(CellAddr, &T) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let hits = self.rtree.search(Rect::from_range(range));
        self.stats.add_read(hits.len() as u64);
        let mut cells = Vec::new();
        for id in hits {
            let b = self.block(id);
            self.stats.add_scanned(b.cells.len() as u64);
            let inside = b.cells.iter().filter(|(a, _)| range.contains(**a));
            cells.extend(inside.map(|(a, v)| (*a, v)));
        }
        visit_sorted(cells, f)
    }

    fn used_bounds(&self) -> Option<Range> {
        let mut bounds: Option<Rect> = None;
        self.rtree.for_each(&mut |r, _| {
            bounds = Some(match bounds {
                Some(b) => b.union(&r),
                None => r,
            });
        });
        bounds.map(Rect::to_range)
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
        self.blocks.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BlockGrid<i64> {
        BlockGrid::new(BlockConfig {
            capacity: 8,
            proximity: 4,
        })
    }

    #[test]
    fn point_ops() {
        let mut g = tiny();
        let a = CellAddr::new(5, 5);
        assert_eq!(g.set(a, 1), None);
        assert_eq!(g.get(a), Some(&1));
        assert_eq!(g.set(a, 2), Some(1));
        assert_eq!(g.remove(a), Some(2));
        assert_eq!(g.get(a), None);
        assert_eq!(g.cell_count(), 0);
        assert_eq!(g.block_count(), 0);
    }

    #[test]
    fn nearby_cells_share_a_block() {
        let mut g = tiny();
        for c in 0..4u32 {
            g.set(CellAddr::new(0, c), c as i64);
        }
        assert_eq!(g.block_count(), 1, "4 adjacent cells fit one block");
    }

    #[test]
    fn distant_cells_get_separate_blocks() {
        let mut g = tiny();
        g.set(CellAddr::new(0, 0), 1);
        g.set(CellAddr::new(500, 500), 2);
        assert_eq!(g.block_count(), 2);
    }

    #[test]
    fn blocks_split_at_capacity() {
        let mut g = tiny();
        for c in 0..20u32 {
            g.set(CellAddr::new(0, c), c as i64);
        }
        assert_eq!(g.cell_count(), 20);
        assert!(g.block_count() >= 2, "capacity 8 forces splits");
        for c in 0..20u32 {
            assert_eq!(g.get(CellAddr::new(0, c)), Some(&(c as i64)), "col {c}");
        }
    }

    #[test]
    fn range_scan_correct_after_splits() {
        let mut g = tiny();
        for r in 0..10u32 {
            for c in 0..10u32 {
                g.set(CellAddr::new(r, c), (r * 10 + c) as i64);
            }
        }
        let got = g.cells_in_range(Range::from_bounds(2, 2, 4, 4));
        assert_eq!(got.len(), 9);
        assert_eq!(got[0], (CellAddr::new(2, 2), 22));
        assert_eq!(got[8], (CellAddr::new(4, 4), 44));
    }

    #[test]
    fn range_scan_skips_far_blocks() {
        let mut g = tiny();
        for c in 0..8u32 {
            g.set(CellAddr::new(0, c), 1);
        }
        for c in 0..8u32 {
            g.set(CellAddr::new(1000, c), 2);
        }
        g.stats().reset();
        let got = g.cells_in_range(Range::from_bounds(0, 0, 10, 10));
        assert_eq!(got.len(), 8);
        // Only the near block(s) were opened.
        assert!(
            g.stats().cells_scanned() <= 8,
            "scanned {}",
            g.stats().cells_scanned()
        );
    }

    #[test]
    fn structural_edits() {
        let mut g = tiny();
        g.set(CellAddr::new(2, 2), 1);
        g.set(CellAddr::new(6, 2), 2);
        g.insert_rows(4, 10);
        assert_eq!(g.get(CellAddr::new(2, 2)), Some(&1));
        assert_eq!(g.get(CellAddr::new(16, 2)), Some(&2));
        g.delete_rows(0, 3);
        assert_eq!(g.get(CellAddr::new(13, 2)), Some(&2));
        assert_eq!(g.cell_count(), 1);
    }

    #[test]
    fn used_bounds_tracks_blocks() {
        let mut g = tiny();
        assert_eq!(g.used_bounds(), None);
        g.set(CellAddr::new(5, 1), 1);
        g.set(CellAddr::new(2, 9), 1);
        assert_eq!(g.used_bounds(), Some(Range::from_bounds(2, 1, 5, 9)));
    }
}
