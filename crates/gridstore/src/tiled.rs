//! Fixed-extent tile store: the production layout for sheet data.
//!
//! Cells are grouped into `tile_rows × tile_cols` tiles ("data blocks");
//! a window fetch touches exactly the tiles overlapping the window, so the
//! cost is O(window area / tile area) block reads regardless of how much data
//! lives elsewhere on the sheet. Tile extent is a measured trade-off
//! (ablation #2 in DESIGN.md): small tiles waste less space on sparse sheets,
//! large tiles scan faster on dense ones.
//!
//! Range reads walk the range one *band* (a row of tiles) at a time, so the
//! visit comes out row-major with no sort: one hash probe per tile slot of
//! the band, then the band's rows left to right across its tiles. A range
//! that spans more tile slots than the grid has allocated (`A1:XFD1048576`)
//! walks the allocated tiles instead, so a scan costs
//! O(min(range tiles, allocated tiles)) probes.

use std::collections::HashMap;
use std::ops::ControlFlow;

use dataspread_types::{CellAddr, Range};

use crate::{shift_addr_cols, shift_addr_rows, CellStore, StoreStats};

/// Tile extent configuration.
#[derive(Clone, Copy, Debug)]
pub struct TileConfig {
    pub tile_rows: u32,
    pub tile_cols: u32,
}

impl Default for TileConfig {
    fn default() -> Self {
        // 32×32 = 1024 slots ≈ a few KB per tile for typical payloads,
        // matching the disk-block framing of the paper.
        TileConfig {
            tile_rows: 32,
            tile_cols: 32,
        }
    }
}

#[derive(Debug)]
struct Tile<T> {
    slots: Vec<Option<T>>,
    occupied: u32,
}

impl<T> Tile<T> {
    fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Tile { slots, occupied: 0 }
    }
}

/// Sparse grid of fixed-extent tiles.
#[derive(Debug)]
pub struct TiledGrid<T> {
    cfg: TileConfig,
    tiles: HashMap<(u32, u32), Tile<T>>,
    cells: usize,
    stats: StoreStats,
}

impl<T> Default for TiledGrid<T> {
    fn default() -> Self {
        TiledGrid::new(TileConfig::default())
    }
}

impl<T> TiledGrid<T> {
    pub fn new(cfg: TileConfig) -> Self {
        assert!(cfg.tile_rows > 0 && cfg.tile_cols > 0);
        TiledGrid {
            cfg,
            tiles: HashMap::new(),
            cells: 0,
            stats: StoreStats::default(),
        }
    }

    pub fn config(&self) -> TileConfig {
        self.cfg
    }

    #[inline]
    fn tile_coord(&self, addr: CellAddr) -> (u32, u32) {
        (addr.row / self.cfg.tile_rows, addr.col / self.cfg.tile_cols)
    }

    #[inline]
    fn slot_index(&self, addr: CellAddr) -> usize {
        let r = addr.row % self.cfg.tile_rows;
        let c = addr.col % self.cfg.tile_cols;
        (r * self.cfg.tile_cols + c) as usize
    }

    fn rebuild(
        &mut self,
        f: impl Fn(CellAddr) -> Option<CellAddr>,
        from: Option<u32>,
        axis_rows: bool,
    ) {
        // Only tiles that can contain affected cells need rebuilding; tiles
        // strictly before the edit point are untouched (the block-level
        // advantage over the naive store).
        let boundary_tile = from.map(|at| {
            if axis_rows {
                at / self.cfg.tile_rows
            } else {
                at / self.cfg.tile_cols
            }
        });
        let affected: Vec<(u32, u32)> = self
            .tiles
            .keys()
            .copied()
            .filter(|(tr, tc)| match boundary_tile {
                Some(b) => {
                    if axis_rows {
                        *tr >= b
                    } else {
                        *tc >= b
                    }
                }
                None => true,
            })
            .collect();
        let mut moved: Vec<(CellAddr, T)> = Vec::new();
        for coord in &affected {
            let tile = self.tiles.remove(coord).unwrap();
            let base_row = coord.0 * self.cfg.tile_rows;
            let base_col = coord.1 * self.cfg.tile_cols;
            for (i, slot) in tile.slots.into_iter().enumerate() {
                if let Some(v) = slot {
                    let r = base_row + i as u32 / self.cfg.tile_cols;
                    let c = base_col + i as u32 % self.cfg.tile_cols;
                    self.cells -= 1;
                    if let Some(na) = f(CellAddr::new(r, c)) {
                        moved.push((na, v));
                    }
                }
            }
        }
        self.stats.add_write(affected.len() as u64);
        for (a, v) in moved {
            self.set_internal(a, v);
        }
    }

    /// Visit one band's cells inside `range`, row-major. `band` holds the
    /// band's allocated tiles that overlap the range, by ascending tile
    /// column. Counts one block read per tile and every slot inside the
    /// range as scanned, once for the band.
    fn visit_band(
        &self,
        tile_row: u32,
        band: &[(u32, &Tile<T>)],
        range: Range,
        f: &mut dyn FnMut(CellAddr, &T) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if band.is_empty() {
            return ControlFlow::Continue(());
        }
        let (th, tw) = (self.cfg.tile_rows, self.cfg.tile_cols);
        let base_row = tile_row * th;
        let r_lo = range.start.row.max(base_row);
        let r_hi = range.end.row.min(base_row + (th - 1));
        // First column of the tile and the slot offsets inside the range.
        let cols = |tile_col: u32| {
            let base = tile_col * tw;
            let lo = range.start.col.max(base) - base;
            (base, lo, range.end.col.min(base + (tw - 1)) - base)
        };
        let width: u64 = band
            .iter()
            .map(|&(tc, _)| {
                let (_, lo, hi) = cols(tc);
                u64::from(hi - lo + 1)
            })
            .sum();
        self.stats.add_read(band.len() as u64);
        self.stats.add_scanned(u64::from(r_hi - r_lo + 1) * width);
        for r in r_lo..=r_hi {
            let row_slot = ((r - base_row) * tw) as usize;
            for &(tc, tile) in band {
                let (base, lo, hi) = cols(tc);
                let slots = &tile.slots[row_slot + lo as usize..=row_slot + hi as usize];
                for (c, slot) in (base + lo..).zip(slots) {
                    if let Some(v) = slot {
                        f(CellAddr::new(r, c), v)?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    fn set_internal(&mut self, addr: CellAddr, value: T) -> Option<T> {
        let coord = self.tile_coord(addr);
        let idx = self.slot_index(addr);
        let cap = (self.cfg.tile_rows * self.cfg.tile_cols) as usize;
        let tile = self.tiles.entry(coord).or_insert_with(|| Tile::new(cap));
        let old = tile.slots[idx].replace(value);
        if old.is_none() {
            tile.occupied += 1;
            self.cells += 1;
        }
        old
    }
}

impl<T> CellStore<T> for TiledGrid<T> {
    fn get(&self, addr: CellAddr) -> Option<&T> {
        self.stats.add_read(1);
        let tile = self.tiles.get(&self.tile_coord(addr))?;
        tile.slots[self.slot_index(addr)].as_ref()
    }

    fn set(&mut self, addr: CellAddr, value: T) -> Option<T> {
        self.stats.add_write(1);
        self.set_internal(addr, value)
    }

    fn remove(&mut self, addr: CellAddr) -> Option<T> {
        self.stats.add_write(1);
        let coord = self.tile_coord(addr);
        let idx = self.slot_index(addr);
        let tile = self.tiles.get_mut(&coord)?;
        let old = tile.slots[idx].take();
        if old.is_some() {
            tile.occupied -= 1;
            self.cells -= 1;
            if tile.occupied == 0 {
                self.tiles.remove(&coord);
            }
        }
        old
    }

    fn cell_count(&self) -> usize {
        self.cells
    }

    fn for_each_in_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &T)) {
        let _ = self.visit_ordered(range, &mut |a, v| {
            f(a, v);
            ControlFlow::Continue(())
        });
    }

    fn visit_ordered(
        &self,
        range: Range,
        f: &mut dyn FnMut(CellAddr, &T) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let (tr0, tc0) = self.tile_coord(range.start);
        let (tr1, tc1) = self.tile_coord(range.end);
        let mut band: Vec<(u32, &Tile<T>)> = Vec::new();
        let slots = u64::from(tr1 - tr0 + 1) * u64::from(tc1 - tc0 + 1);
        if slots <= self.tiles.len() as u64 {
            for tr in tr0..=tr1 {
                band.clear();
                band.extend((tc0..=tc1).filter_map(|tc| Some((tc, self.tiles.get(&(tr, tc))?))));
                self.visit_band(tr, &band, range, f)?;
            }
            return ControlFlow::Continue(());
        }
        // More tile slots than allocated tiles: walk the allocated tiles
        // inside the range, sorted into bands.
        let mut hits: Vec<((u32, u32), &Tile<T>)> = self
            .tiles
            .iter()
            .filter(|((tr, tc), _)| (tr0..=tr1).contains(tr) && (tc0..=tc1).contains(tc))
            .map(|(coord, tile)| (*coord, tile))
            .collect();
        hits.sort_unstable_by_key(|(coord, _)| *coord);
        for run in hits.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            band.clear();
            band.extend(run.iter().map(|&((_, tc), tile)| (tc, tile)));
            self.visit_band(run[0].0 .0, &band, range, f)?;
        }
        ControlFlow::Continue(())
    }

    fn used_bounds(&self) -> Option<Range> {
        let mut bounds: Option<Range> = None;
        for (coord, tile) in &self.tiles {
            let base_row = coord.0 * self.cfg.tile_rows;
            let base_col = coord.1 * self.cfg.tile_cols;
            for (i, slot) in tile.slots.iter().enumerate() {
                if slot.is_some() {
                    let a = CellAddr::new(
                        base_row + i as u32 / self.cfg.tile_cols,
                        base_col + i as u32 % self.cfg.tile_cols,
                    );
                    bounds = Some(match bounds {
                        Some(b) => b.union(&Range::cell(a)),
                        None => Range::cell(a),
                    });
                }
            }
        }
        bounds
    }

    fn insert_rows(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_rows(a, at, count, true), Some(at), true);
    }

    fn delete_rows(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_rows(a, at, count, false), Some(at), true);
    }

    fn insert_cols(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_cols(a, at, count, true), Some(at), false);
    }

    fn delete_cols(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_cols(a, at, count, false), Some(at), false);
    }

    fn stats(&self) -> &StoreStats {
        &self.stats
    }

    fn block_count(&self) -> usize {
        self.tiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TiledGrid<i64> {
        TiledGrid::new(TileConfig {
            tile_rows: 4,
            tile_cols: 4,
        })
    }

    #[test]
    fn point_ops_cross_tiles() {
        let mut g = small();
        for i in 0..20u32 {
            assert_eq!(g.set(CellAddr::new(i, i), i as i64), None);
        }
        assert_eq!(g.cell_count(), 20);
        assert!(g.block_count() >= 5, "diagonal spans at least 5 tiles");
        for i in 0..20u32 {
            assert_eq!(g.get(CellAddr::new(i, i)), Some(&(i as i64)));
        }
        assert_eq!(g.get(CellAddr::new(0, 1)), None);
    }

    #[test]
    fn remove_drops_empty_tiles() {
        let mut g = small();
        g.set(CellAddr::new(0, 0), 1);
        g.set(CellAddr::new(100, 100), 2);
        assert_eq!(g.block_count(), 2);
        g.remove(CellAddr::new(100, 100));
        assert_eq!(g.block_count(), 1);
        assert_eq!(g.cell_count(), 1);
    }

    #[test]
    fn range_scan_touches_only_overlapping_tiles() {
        let mut g = small();
        // 3 distant clusters.
        for r in 0..4u32 {
            for c in 0..4u32 {
                g.set(CellAddr::new(r, c), 1);
                g.set(CellAddr::new(r + 100, c), 2);
                g.set(CellAddr::new(r, c + 100), 3);
            }
        }
        g.stats().reset();
        let got = g.cells_in_range(Range::from_bounds(0, 0, 3, 3));
        assert_eq!(got.len(), 16);
        assert_eq!(g.stats().blocks_read(), 1, "only one tile overlaps");
    }

    #[test]
    fn range_scan_is_sorted_row_major() {
        let mut g = small();
        g.set(CellAddr::new(1, 5), 1);
        g.set(CellAddr::new(0, 9), 2);
        g.set(CellAddr::new(1, 0), 3);
        let got = g.cells_in_range(Range::from_bounds(0, 0, 10, 10));
        let addrs: Vec<CellAddr> = got.iter().map(|(a, _)| *a).collect();
        let mut sorted = addrs.clone();
        sorted.sort();
        assert_eq!(addrs, sorted);
        assert_eq!(addrs[0], CellAddr::new(0, 9));
    }

    #[test]
    fn range_scan_stats_are_pinned() {
        // 4×4 tiles over rows/cols 0..12; tile (1,1) (rows 4..7, cols 4..7)
        // stays unallocated.
        let mut g = small();
        for r in 0..12u32 {
            for c in 0..12u32 {
                if (r / 4, c / 4) != (1, 1) && (r + c) % 3 == 0 {
                    g.set(CellAddr::new(r, c), (r * 100 + c) as i64);
                }
            }
        }
        // B2:H9 overlaps tile rows 0..=2 and tile cols 0..=1: five allocated
        // tiles, 8×7 slots minus the 4×4 hole.
        let q = Range::from_bounds(1, 1, 8, 7);
        g.stats().reset();
        g.for_each_in_range(q, &mut |_, _| {});
        assert_eq!(
            (g.stats().blocks_read(), g.stats().cells_scanned()),
            (5, 40)
        );
        g.stats().reset();
        let got = g.cells_in_range(q);
        assert_eq!(
            (g.stats().blocks_read(), g.stats().cells_scanned()),
            (5, 40)
        );
        let want: Vec<(CellAddr, i64)> = q
            .iter_cells()
            .filter_map(|a| Some((a, *g.get(a)?)))
            .collect();
        assert_eq!(got, want, "row-major, exactly the stored cells");
    }

    #[test]
    fn ordered_visit_stops_early() {
        let mut g = small();
        for c in 0..10u32 {
            g.set(CellAddr::new(c % 3, c), c as i64);
        }
        let mut seen = Vec::new();
        let flow = g.visit_ordered(Range::from_bounds(0, 0, 9, 9), &mut |a, v| {
            seen.push((a, *v));
            if seen.len() == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(()));
        let cols: Vec<u32> = seen.iter().map(|(a, _)| a.col).collect();
        assert_eq!(cols, vec![0, 3, 6], "row 0 first, left to right");
    }

    #[test]
    fn sheet_sized_range_walks_allocated_tiles() {
        let mut g = small();
        g.set(CellAddr::new(1000, 3), 1);
        g.set(CellAddr::new(5, 2000), 2);
        g.set(CellAddr::new(0, 9), 3);
        g.set(CellAddr::new(7, 1), 4);
        g.stats().reset();
        let all = Range::from_bounds(
            0,
            0,
            dataspread_types::addr::MAX_ROW,
            dataspread_types::addr::MAX_COL,
        );
        let got = g.cells_in_range(all);
        let addrs: Vec<CellAddr> = got.iter().map(|(a, _)| *a).collect();
        assert_eq!(
            addrs,
            vec![
                CellAddr::new(0, 9),
                CellAddr::new(5, 2000),
                CellAddr::new(7, 1),
                CellAddr::new(1000, 3),
            ]
        );
        assert_eq!(g.stats().blocks_read(), 4, "one read per allocated tile");
        assert_eq!(g.stats().cells_scanned(), 4 * 16);
        // Rows 4.. only, still sheet-wide: the row-0 tile is filtered out.
        g.stats().reset();
        let lower = Range::from_bounds(
            4,
            0,
            dataspread_types::addr::MAX_ROW,
            dataspread_types::addr::MAX_COL,
        );
        assert_eq!(g.cells_in_range(lower).len(), 3);
        assert_eq!(g.stats().blocks_read(), 3);
    }

    #[test]
    fn insert_rows_shifts_only_below() {
        let mut g = small();
        g.set(CellAddr::new(1, 1), 10);
        g.set(CellAddr::new(9, 1), 90);
        g.insert_rows(4, 3);
        assert_eq!(g.get(CellAddr::new(1, 1)), Some(&10));
        assert_eq!(g.get(CellAddr::new(12, 1)), Some(&90));
        assert_eq!(g.cell_count(), 2);
    }

    #[test]
    fn delete_rows_drops_band() {
        let mut g = small();
        g.set(CellAddr::new(2, 0), 1);
        g.set(CellAddr::new(5, 0), 2);
        g.set(CellAddr::new(8, 0), 3);
        g.delete_rows(4, 3);
        assert_eq!(g.get(CellAddr::new(2, 0)), Some(&1));
        assert_eq!(g.get(CellAddr::new(5, 0)), Some(&3));
        assert_eq!(g.cell_count(), 2);
    }

    #[test]
    fn insert_cols_shifts() {
        let mut g = small();
        g.set(CellAddr::new(0, 2), 1);
        g.insert_cols(0, 4);
        assert_eq!(g.get(CellAddr::new(0, 6)), Some(&1));
    }

    #[test]
    fn used_bounds_after_edits() {
        let mut g = small();
        g.set(CellAddr::new(3, 3), 1);
        g.set(CellAddr::new(10, 1), 1);
        assert_eq!(g.used_bounds(), Some(Range::from_bounds(3, 1, 10, 3)));
        g.remove(CellAddr::new(10, 1));
        assert_eq!(g.used_bounds(), Some(Range::cell(CellAddr::new(3, 3))));
    }

    #[test]
    fn overwrite_keeps_count() {
        let mut g = small();
        g.set(CellAddr::new(0, 0), 1);
        assert_eq!(g.set(CellAddr::new(0, 0), 2), Some(1));
        assert_eq!(g.cell_count(), 1);
    }
}
