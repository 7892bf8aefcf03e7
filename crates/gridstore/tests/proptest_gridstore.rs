//! Model-based property tests: all three cell stores must agree with a plain
//! `HashMap` model under arbitrary edit sequences, including structural
//! row/column edits and range queries.
//!
//! Driven by `dataspread_testkit` (deterministic seeds) instead of an
//! external property-testing crate — see substitution #4 in `DESIGN.md`.

use std::collections::HashMap;
use std::ops::ControlFlow;

use dataspread_gridstore::block::BlockConfig;
use dataspread_gridstore::{BlockGrid, CellStore, NaiveGrid, TileConfig, TiledGrid};
use dataspread_testkit::{cases, Rng};
use dataspread_types::addr::{MAX_COL, MAX_ROW};
use dataspread_types::{CellAddr, Range};

#[derive(Clone, Debug)]
enum Op {
    Set(u32, u32, i64),
    Remove(u32, u32),
    InsertRows(u32, u32),
    DeleteRows(u32, u32),
    InsertCols(u32, u32),
    DeleteCols(u32, u32),
    /// Range query; corners past the 64×64 edit area reach to the sheet's
    /// last row or column, so the tiled store's allocated-tile walk runs.
    QueryRange(u32, u32, u32, u32),
}

/// A query corner coordinate: mostly inside the edit area, sometimes the
/// sheet's last row/column.
fn arb_corner(rng: &mut Rng, last: u32) -> u32 {
    if rng.below(5) == 0 {
        last
    } else {
        rng.u32_in(0, 64)
    }
}

fn arb_ops(rng: &mut Rng) -> Vec<Op> {
    let len = rng.index(80);
    (0..len)
        .map(|_| match rng.weighted(&[4, 2, 1, 1, 1, 1, 2]) {
            0 => Op::Set(rng.u32_in(0, 64), rng.u32_in(0, 64), rng.i64()),
            1 => Op::Remove(rng.u32_in(0, 64), rng.u32_in(0, 64)),
            2 => Op::InsertRows(rng.u32_in(0, 40), rng.u32_in(1, 4)),
            3 => Op::DeleteRows(rng.u32_in(0, 40), rng.u32_in(1, 4)),
            4 => Op::InsertCols(rng.u32_in(0, 40), rng.u32_in(1, 4)),
            5 => Op::DeleteCols(rng.u32_in(0, 40), rng.u32_in(1, 4)),
            _ => Op::QueryRange(
                rng.u32_in(0, 64),
                rng.u32_in(0, 64),
                arb_corner(rng, MAX_ROW),
                arb_corner(rng, MAX_COL),
            ),
        })
        .collect()
}

struct Model {
    cells: HashMap<CellAddr, i64>,
}

impl Model {
    fn new() -> Self {
        Model {
            cells: HashMap::new(),
        }
    }

    fn apply_shift(&mut self, f: impl Fn(CellAddr) -> Option<CellAddr>) {
        let old = std::mem::take(&mut self.cells);
        for (a, v) in old {
            if let Some(na) = f(a) {
                self.cells.insert(na, v);
            }
        }
    }
}

fn run_store<S: CellStore<i64>>(mut store: S, ops: &[Op]) {
    let mut model = Model::new();
    for op in ops {
        match *op {
            Op::Set(r, c, v) => {
                let a = CellAddr::new(r, c);
                let old_s = store.set(a, v);
                let old_m = model.cells.insert(a, v);
                assert_eq!(old_s, old_m, "set({a}) old value mismatch");
            }
            Op::Remove(r, c) => {
                let a = CellAddr::new(r, c);
                assert_eq!(store.remove(a), model.cells.remove(&a), "remove({a})");
            }
            Op::InsertRows(at, n) => {
                store.insert_rows(at, n);
                model.apply_shift(|a| {
                    if a.row >= at {
                        Some(CellAddr::new(a.row + n, a.col))
                    } else {
                        Some(a)
                    }
                });
            }
            Op::DeleteRows(at, n) => {
                store.delete_rows(at, n);
                model.apply_shift(|a| {
                    if a.row >= at && a.row < at + n {
                        None
                    } else if a.row >= at + n {
                        Some(CellAddr::new(a.row - n, a.col))
                    } else {
                        Some(a)
                    }
                });
            }
            Op::InsertCols(at, n) => {
                store.insert_cols(at, n);
                model.apply_shift(|a| {
                    if a.col >= at {
                        Some(CellAddr::new(a.row, a.col + n))
                    } else {
                        Some(a)
                    }
                });
            }
            Op::DeleteCols(at, n) => {
                store.delete_cols(at, n);
                model.apply_shift(|a| {
                    if a.col >= at && a.col < at + n {
                        None
                    } else if a.col >= at + n {
                        Some(CellAddr::new(a.row, a.col - n))
                    } else {
                        Some(a)
                    }
                });
            }
            Op::QueryRange(r0, c0, r1, c1) => {
                let q = Range::new(CellAddr::new(r0, c0), CellAddr::new(r1, c1));
                let got = store.cells_in_range(q);
                let mut expect: Vec<(CellAddr, i64)> = model
                    .cells
                    .iter()
                    .filter(|(a, _)| q.contains(**a))
                    .map(|(a, v)| (*a, *v))
                    .collect();
                expect.sort_by_key(|(a, _)| *a);
                assert_eq!(got, expect, "range query {q} mismatch");
                // The unordered visit yields the same cells.
                let mut unordered = Vec::new();
                store.for_each_in_range(q, &mut |a, v| unordered.push((a, *v)));
                unordered.sort_by_key(|(a, _)| *a);
                assert_eq!(unordered, expect, "unordered query {q} mismatch");
                // The ordered visit stops where it is told to: a prefix of
                // the row-major answer.
                let stop = expect.len() / 2;
                let mut prefix = Vec::new();
                let flow = store.visit_ordered(q, &mut |a, v| {
                    if prefix.len() == stop {
                        return ControlFlow::Break(());
                    }
                    prefix.push((a, *v));
                    ControlFlow::Continue(())
                });
                assert_eq!(prefix, expect[..stop], "early stop on {q}");
                assert_eq!(flow.is_break(), stop < expect.len(), "flow on {q}");
            }
        }
        assert_eq!(
            store.cell_count(),
            model.cells.len(),
            "cell count after {op:?}"
        );
    }
    // Final full sweep.
    if let Some(bounds) = store.used_bounds() {
        let got = store.cells_in_range(bounds);
        assert_eq!(got.len(), model.cells.len());
    } else {
        assert!(model.cells.is_empty());
    }
}

#[test]
fn naive_matches_model() {
    cases(48, 0x621201, |rng| {
        let ops = arb_ops(rng);
        run_store(NaiveGrid::new(), &ops);
    });
}

#[test]
fn tiled_matches_model() {
    cases(48, 0x621202, |rng| {
        let ops = arb_ops(rng);
        run_store(
            TiledGrid::new(TileConfig {
                tile_rows: 8,
                tile_cols: 8,
            }),
            &ops,
        );
    });
}

#[test]
fn tiled_default_matches_model() {
    cases(48, 0x621203, |rng| {
        let ops = arb_ops(rng);
        run_store(TiledGrid::default(), &ops);
    });
}

#[test]
fn block_matches_model() {
    cases(48, 0x621204, |rng| {
        let ops = arb_ops(rng);
        run_store(
            BlockGrid::new(BlockConfig {
                capacity: 16,
                proximity: 4,
            }),
            &ops,
        );
    });
}

#[test]
fn block_small_capacity_matches_model() {
    // Capacity 2 forces constant splitting — stress for the R-tree churn.
    cases(48, 0x621205, |rng| {
        let ops = arb_ops(rng);
        run_store(
            BlockGrid::new(BlockConfig {
                capacity: 2,
                proximity: 2,
            }),
            &ops,
        );
    });
}
