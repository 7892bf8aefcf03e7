//! Experiment C5: range scans over the three interface-storage layouts
//! (tiled / proximity-block / naive per-cell).
//!
//! Run with `cargo bench -p dataspread --bench rangescan`. Besides wall
//! time, each arm reports the block-touch counters the stores keep — the
//! paper's "disk blocks" accounting. The `formula_sum_sparse_column` arm
//! applies the same accounting to a formula range: an edit recomputes
//! `=SUM(C1:C100000)` over 20,000 stored cells through the workbook.

use std::time::Duration;

use dataspread::gridstore::block::BlockConfig;
use dataspread::gridstore::{BlockGrid, CellStore, NaiveGrid, TileConfig, TiledGrid};
use dataspread::types::{CellAddr, Range, Value};
use dataspread::Workbook;
use dataspread_testkit::{bench, black_box, report_json, Rng};

const TARGET: Duration = Duration::from_millis(150);
/// Sheet extent: SIDE × SIDE cells, ~60% dense (spreadsheets are sparse).
const SIDE: u32 = 512;
const WINDOW: u32 = 40;

fn populate<S: CellStore<i64>>(store: &mut S, rng: &mut Rng) -> usize {
    let mut n = 0;
    for r in 0..SIDE {
        for c in 0..SIDE {
            if rng.below(10) < 6 {
                store.set(CellAddr::new(r, c), (r * SIDE + c) as i64);
                n += 1;
            }
        }
    }
    n
}

fn bench_store<S: CellStore<i64>>(name: &str, mut store: S) {
    let mut rng = Rng::new(0xC5);
    let cells = populate(&mut store, &mut rng);
    store.stats().reset();
    let mut scan_rng = Rng::new(0xC5_C5);
    bench(
        &format!("{name}/window_scan_{WINDOW}x{WINDOW}"),
        TARGET,
        || {
            let r0 = scan_rng.u32_in(0, SIDE - WINDOW);
            let c0 = scan_rng.u32_in(0, SIDE - WINDOW);
            let range = Range::from_bounds(r0, c0, r0 + WINDOW - 1, c0 + WINDOW - 1);
            let mut sum = 0i64;
            store.for_each_in_range(range, &mut |_, v| sum += *v);
            black_box(sum);
        },
    );
    let reads = store.stats().blocks_read();
    let scanned = store.stats().cells_scanned();
    println!(
        "  {name}: {cells} cells in {} blocks; blocks_read={reads} cells_scanned={scanned}",
        store.block_count()
    );
}

/// Stored cells in column C, and the rows the `SUM` covers.
const COLUMN_CELLS: u32 = 20_000;
const SUM_ROWS: u32 = 100_000;

/// Edit one cell of column C; the edit recomputes `G1 = SUM(C1:C100000)`.
fn bench_formula_sum() {
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    let column: Vec<Vec<Value>> = (0..COLUMN_CELLS)
        .map(|r| vec![Value::Int(r as i64)])
        .collect();
    wb.set_region(s, CellAddr::new(0, 2), &column).unwrap();
    let sum = CellAddr::new(0, 6);
    wb.set_input(s, sum, &format!("=SUM(C1:C{SUM_ROWS})"))
        .unwrap();
    let stats = |wb: &Workbook| {
        let st = wb.sheet(s).store().stats();
        (st.blocks_read(), st.cells_scanned())
    };
    let (reads0, scanned0) = stats(&wb);
    let mut rng = Rng::new(0xC5_F0);
    let mut edits = 0u64;
    let m = bench("tiled/formula_sum_sparse_column", TARGET, || {
        let addr = CellAddr::new(rng.u32_in(0, COLUMN_CELLS), 2);
        wb.set_value(s, addr, Value::Int(rng.below(100) as i64))
            .unwrap();
        edits += 1;
    });
    black_box(wb.cell(s, sum));
    let (reads, scanned) = stats(&wb);
    println!(
        "  formula: {COLUMN_CELLS} cells under SUM(C1:C{SUM_ROWS}); per edit blocks_read={:.1} cells_scanned={:.1}",
        (reads - reads0) as f64 / edits as f64,
        (scanned - scanned0) as f64 / edits as f64,
    );
    report_json(
        "rangescan/formula_sum_sparse_column",
        COLUMN_CELLS as usize,
        &m,
    );
}

fn main() {
    println!("C5: {WINDOW}x{WINDOW} window scans over a {SIDE}x{SIDE} sheet");
    bench_store("tiled", TiledGrid::new(TileConfig::default()));
    bench_store("block", BlockGrid::new(BlockConfig::default()));
    bench_store("naive", NaiveGrid::new());
    bench_formula_sum();
}
