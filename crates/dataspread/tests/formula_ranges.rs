//! Formula range arguments read the cell store by ordered scan. These tests
//! hold the scan to the per-cell reference: `CellProvider::for_each_cell`'s
//! default body, which reads every address of the range through
//! `cell_value`. Results must match value for value (float bits included),
//! and which error wins must match too. The block counters pin how much of
//! the store a range read touches.

use dataspread::formula::{CellProvider, Formula};
use dataspread::types::addr::{MAX_COL, MAX_ROW};
use dataspread::types::{CellAddr, CellError, Range, SheetRef, Value};
use dataspread::{SheetId, StoreKind, Workbook};
use dataspread_testkit as testkit;

const KINDS: [StoreKind; 3] = [StoreKind::Tiled, StoreKind::Block, StoreKind::Naive];

/// Random `Data` cells live in this area; everything outside it is empty.
/// It crosses the 32×32 tile boundaries in both directions.
const AREA_ROWS: u32 = 150;
const AREA_COLS: u32 = 70;

fn a(s: &str) -> CellAddr {
    CellAddr::parse_a1(s).unwrap()
}

/// The per-cell reference: implements only `cell_value`, so every range
/// goes through the trait's default `for_each_cell`.
struct PerCell<'a> {
    wb: &'a Workbook,
    data: SheetId,
}

impl CellProvider for PerCell<'_> {
    fn cell_value(&self, sheet: &SheetRef, addr: CellAddr) -> Result<Value, CellError> {
        match sheet {
            SheetRef::Named(n) if n.eq_ignore_ascii_case("Data") => {
                Ok(self.wb.sheet(self.data).value(addr))
            }
            _ => Err(CellError::Ref),
        }
    }
}

fn rand_value(rng: &mut testkit::Rng, errors: bool) -> Value {
    let words = ["apple", "Apple", "kiwi", "fig", "10", ""];
    match rng.weighted(&[30, 6, 20, 15, 10, errors as u32, errors as u32]) {
        0 => Value::Int(rng.u32_in(0, 40) as i64 - 20),
        // Near the integer limits: sums overflow and widen to float.
        1 => {
            let off = rng.below(1000) as i64;
            if rng.bool() {
                Value::Int(i64::MAX - off)
            } else {
                Value::Int(i64::MIN + off)
            }
        }
        2 => Value::Float(rng.f64_in(-1e3, 1e3)),
        3 => Value::text(words[rng.index(words.len() - 1)]),
        4 => Value::Bool(rng.bool()),
        5 => Value::Error(CellError::Div0),
        _ => Value::Error(CellError::Na),
    }
}

/// A random range: mostly inside the populated area (multi-column, across
/// tile boundaries), sometimes past it (empty), sometimes to the sheet's
/// last cell.
fn rand_range(rng: &mut testkit::Rng) -> Range {
    match rng.weighted(&[6, 1, 2]) {
        0 => {
            let (r0, c0) = (rng.u32_in(0, AREA_ROWS), rng.u32_in(0, AREA_COLS));
            let r1 = r0 + rng.u32_in(0, 80);
            let c1 = c0 + rng.u32_in(0, 40);
            Range::from_bounds(r0, c0, r1, c1)
        }
        1 => {
            let r0 = AREA_ROWS + rng.u32_in(0, 500);
            Range::from_bounds(r0, 3, r0 + rng.u32_in(0, 100), 3 + rng.u32_in(0, 40))
        }
        _ => {
            let (r0, c0) = (rng.u32_in(0, 40), rng.u32_in(0, 40));
            Range::from_bounds(r0, c0, MAX_ROW, MAX_COL)
        }
    }
}

/// `range` cut down to the rows (and, unless `keep_width`, the columns) of
/// the populated area. Every cell cut away is empty, and the reference
/// skips empty cells, so the reference's answer is unchanged; this keeps
/// its per-address loop finite on sheet-sized ranges. `VLOOKUP` keeps the
/// width, because its column index is checked against it.
fn clip(range: Range, keep_width: bool) -> Range {
    let end_row = range.end.row.min(range.start.row.max(AREA_ROWS));
    let end_col = if keep_width {
        range.end.col
    } else {
        range.end.col.min(range.start.col.max(AREA_COLS))
    };
    Range::from_bounds(range.start.row, range.start.col, end_row, end_col)
}

/// A random formula over `Data`: the source typed into the workbook and
/// the equivalent source the per-cell reference evaluates.
fn rand_formula(rng: &mut testkit::Rng) -> (String, String) {
    let range = rand_range(rng);
    let at = |r: Range| {
        let (s, e) = (r.start.to_a1(), r.end.to_a1());
        format!("Data!{s}:{e}")
    };
    let func = ["SUM", "COUNT", "AVG", "MIN", "MAX", "CONCAT", "VLOOKUP"][rng.index(7)];
    if func != "VLOOKUP" {
        let (typed, oracle) = (at(range), at(clip(range, false)));
        // A second argument sometimes: a single cell or another range.
        let extra = match rng.below(3) {
            0 => format!(
                ",Data!{}",
                CellAddr::new(rng.u32_in(0, 40), rng.u32_in(0, 40)).to_a1()
            ),
            1 => format!(",{}", at(Range::from_bounds(0, 0, rng.u32_in(0, 60), 1))),
            _ => String::new(),
        };
        return (
            format!("={func}({typed}{extra})"),
            format!("={func}({oracle}{extra})"),
        );
    }
    let needle = match rng.below(4) {
        0 => format!("{}", rng.u32_in(0, 40) as i64 - 20),
        1 => format!("\"{}\"", ["apple", "kiwi", "fig", "10"][rng.index(4)]),
        2 => "TRUE".to_string(),
        _ => format!("{:.1}", rng.f64_in(-100.0, 100.0)),
    };
    let col = rng.u32_in(1, range.width().min(45) + 2);
    let approx = ["TRUE", "FALSE"][rng.index(2)];
    let typed = format!("=VLOOKUP({needle},{},{col},{approx})", at(range));
    let oracle = format!(
        "=VLOOKUP({needle},{},{col},{approx})",
        at(clip(range, true))
    );
    (typed, oracle)
}

fn check_against_reference(wb: &Workbook, data: SheetId, typed: &[(CellAddr, String, String)]) {
    let s = wb.current_sheet();
    let reference = PerCell { wb, data };
    for (addr, src, oracle_src) in typed {
        let want = Formula::parse(oracle_src).unwrap().eval(&reference);
        let got = wb.cell(s, *addr);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{src} (reference {oracle_src})"
        );
    }
}

#[test]
fn range_scan_matches_per_cell_reference() {
    for (k, kind) in KINDS.into_iter().enumerate() {
        testkit::cases(8, 0x5CA7_0000 + k as u64, |rng| {
            let mut wb = Workbook::with_store(kind);
            let data = wb.add_sheet("Data").unwrap();
            let s = wb.current_sheet();
            let errors = rng.below(3) != 0;
            let density = rng.u32_in(2, 15) as u64;
            let mut rows = Vec::new();
            for _ in 0..AREA_ROWS {
                let row: Vec<Value> = (0..AREA_COLS)
                    .map(|_| {
                        if rng.below(100) < density {
                            rand_value(rng, errors)
                        } else {
                            Value::Empty
                        }
                    })
                    .collect();
                rows.push(row);
            }
            wb.set_region(data, a("A1"), &rows).unwrap();
            let typed: Vec<(CellAddr, String, String)> = (0..30)
                .map(|i| {
                    let (src, oracle) = rand_formula(rng);
                    (CellAddr::new(i, 1), src, oracle)
                })
                .collect();
            for (addr, src, _) in &typed {
                wb.set_input(s, *addr, src).unwrap();
            }
            check_against_reference(&wb, data, &typed);
            // Edits recompute through the same scan.
            for _ in 0..10 {
                let addr = CellAddr::new(rng.u32_in(0, AREA_ROWS), rng.u32_in(0, AREA_COLS));
                let v = if rng.bool() {
                    rand_value(rng, errors)
                } else {
                    Value::Empty
                };
                wb.set_value(data, addr, v).unwrap();
            }
            check_against_reference(&wb, data, &typed);
        });
    }
}

#[test]
fn sheet_sized_range_reads_only_allocated_blocks() {
    for kind in KINDS {
        let mut wb = Workbook::with_store(kind);
        let data = wb.add_sheet("Data").unwrap();
        let s = wb.current_sheet();
        wb.set_value(data, a("A1"), Value::Int(1)).unwrap();
        wb.set_value(data, a("C5000"), Value::Int(2)).unwrap();
        wb.set_value(data, a("XFD1048576"), Value::Int(4)).unwrap();
        let store = wb.sheet(data).store();
        let (blocks, before) = (store.block_count() as u64, store.stats().blocks_read());
        let v = wb
            .set_input(s, a("A1"), "=SUM(Data!A1:XFD1048576)")
            .unwrap();
        assert_eq!(v, Value::Int(7), "{kind:?}");
        let read = wb.sheet(data).store().stats().blocks_read() - before;
        assert!(read <= blocks, "{kind:?}: read {read} blocks of {blocks}");
    }
}

#[test]
fn typed_formula_scans_its_range_once() {
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    // A sparse column: one cell every 100 rows, so ten 32-row tiles.
    for r in (0..1000).step_by(100) {
        wb.set_value(s, CellAddr::new(r, 0), Value::Int(r as i64))
            .unwrap();
    }
    let stats = wb.sheet(s).store().stats();
    let (scanned, blocks) = (stats.cells_scanned(), stats.blocks_read());
    let recomputed = wb.calc_stats().cells_recomputed;
    let v = wb.set_input(s, a("B1"), "=SUM(A1:A1000)").unwrap();
    assert_eq!(v, Value::Int(4500));
    assert_eq!(wb.calc_stats().cells_recomputed - recomputed, 1);
    let stats = wb.sheet(s).store().stats();
    // Ten tiles × 32 rows × 1 column, scanned once; the one further block
    // read is `set_input` reading back the value it returns.
    assert_eq!(stats.cells_scanned() - scanned, 320);
    assert_eq!(stats.blocks_read() - blocks, 10 + 1);
}

#[test]
fn lone_sheet_formula_still_evaluates_immediately() {
    let mut sheet = dataspread::Sheet::new("S", StoreKind::Tiled);
    sheet.set_input(a("A1"), "2").unwrap();
    sheet.set_input(a("A40"), "3").unwrap();
    assert_eq!(
        sheet.set_input(a("B1"), "=SUM(A1:A99)").unwrap(),
        Value::Int(5)
    );
    assert_eq!(sheet.value(a("B1")), Value::Int(5));
}

#[test]
fn typed_unparseable_formula_shows_name_error() {
    // The fold has no AST to evaluate, so the typed path caches `#NAME?`
    // itself, over whatever the cell showed before.
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    wb.set_input(s, a("A1"), "5").unwrap();
    let v = wb.set_input(s, a("A1"), "=NOPE(").unwrap();
    assert_eq!(v, Value::Error(CellError::Name));
    assert_eq!(wb.formula_text(s, a("A1")), Some("=NOPE("));
}
