//! `hybrid_bound`: the paper's hybrid case. An `orders` table is ROM-bound
//! to the sheet at `A1`, beside a `customers` table; both are `ANALYZE`d.
//! Summary formulas read the bound columns (`G1 = SUM(qty)`,
//! `G2 = COUNT(id)`), `H1` is a parameter cell that queries read through
//! `RANGEVALUE`, and `SUM`s over 100 bound rows are typed into `K` during
//! the run. Exec, planner and bind do the work, with a working set that fits
//! the buffer pool, and writes run beside reads. Positional inserts go to a
//! small unbound `notes` table, so they stay light beside that work.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use dataspread::types::{CellAddr, DsResult, Range, Value};
use dataspread::{BindModel, SheetId, Workbook};

use crate::rng::{Digest, Rng};
use crate::{count, digest_value, num, same, schedule, sql_call, Ctx, Kind, Workload};

const WIDTH: u32 = 4; // id, cust, qty, price
const VIEW_ROWS: u32 = 50;
const VIEW_COLS: u32 = 10;
/// Summary formulas cover this many rows, beyond any growth in a run.
const CAP: u32 = 100_000;
const SUM_CELL: CellAddr = CellAddr { row: 0, col: 6 };
const COUNT_CELL: CellAddr = CellAddr { row: 1, col: 6 };
const PARAM_CELL: CellAddr = CellAddr { row: 0, col: 7 };
/// Formulas typed during the run go to `K1:K{FORMULA_ROWS}`.
const FORMULA_COL: u32 = 10;
const FORMULA_ROWS: u32 = 50;
/// Rows each typed `SUM` covers.
const FORMULA_SPAN: u32 = 100;
const REGIONS: [&str; 5] = ["north", "south", "east", "west", "central"];
const RANGE_SPAN: i64 = 2000;

pub struct Size {
    orders: i64,
    customers: i64,
    notes: i64,
}

pub fn size(small: bool) -> Size {
    if small {
        Size {
            orders: 2_000,
            customers: 200,
            notes: 50,
        }
    } else {
        Size {
            orders: 20_000,
            customers: 2_000,
            notes: 500,
        }
    }
}

/// `(cust, qty, price × 4)` — prices are quarter units, exact in binary.
type Order = (i64, i64, i64);

fn order_values(id: i64, o: Order) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(o.0),
        Value::Int(o.1),
        Value::Float(o.2 as f64 / 4.0),
    ]
}

fn note_values(id: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::text(format!("note{id}"))]
}

fn random_order(rng: &mut Rng, customers: i64) -> Order {
    (
        rng.range(0, customers - 1),
        rng.range(1, 50),
        rng.range(4, 4000),
    )
}

#[derive(Debug)]
pub enum Op {
    /// One of three analytic shapes, rotating: join + GROUP BY, range
    /// COUNT, and a filter on the parameter cell through RANGEVALUE.
    Query {
        shape: u8,
        lo: i64,
    },
    SqlInsert {
        id: i64,
        order: Order,
    },
    SqlUpdate {
        id: i64,
        qty: i64,
    },
    /// Bound-cell edit of the `qty` shown at display position `pos`, then
    /// read back the `SUM` cell.
    Edit {
        pos: u32,
        qty: i64,
    },
    /// Set the parameter cell.
    Param {
        quarters: i64,
    },
    /// Type `=SUM(C{top+1}:C{top+100})` into `K{at+1}`.
    Formula {
        at: u32,
        top: u32,
    },
    /// Read the 50×10 viewport at display row `top`.
    Scroll {
        top: u32,
    },
    /// `insert_tuple_at` on `notes`.
    InsertRow {
        pos: usize,
        id: i64,
    },
}

pub struct Hybrid {
    wb: Workbook,
    /// Order ids in display order.
    ids: Vec<i64>,
    orders: HashMap<i64, Order>,
    /// Region of each customer id.
    regions: Vec<usize>,
    param_quarters: i64,
    /// Top display row of the `SUM` typed into each `K` cell.
    formulas: Vec<Option<u32>>,
    /// Note ids in display order.
    notes: Vec<i64>,
}

impl Hybrid {
    fn sum_qty(&self) -> i64 {
        self.orders.values().map(|o| o.1).sum()
    }

    /// What a typed `SUM` over display rows `top..top+100` shows now.
    fn window_qty(&self, top: u32) -> i64 {
        let end = (top + FORMULA_SPAN).min(self.ids.len() as u32);
        (top..end)
            .map(|r| self.orders[&self.ids[r as usize]].1)
            .sum()
    }

    fn expected_formula(&self, row: u32) -> Value {
        self.formulas[row as usize].map_or(Value::Empty, |top| Value::Int(self.window_qty(top)))
    }

    fn expected_query(&self, shape: u8, lo: i64) -> Vec<Vec<Value>> {
        match shape {
            0 => {
                let mut by: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
                for o in self.orders.values() {
                    let e = by.entry(REGIONS[self.regions[o.0 as usize]]).or_default();
                    e.0 += 1;
                    e.1 += o.1;
                }
                by.into_iter()
                    .map(|(r, (n, s))| vec![Value::text(r), Value::Int(n), Value::Int(s)])
                    .collect()
            }
            1 => {
                let n = self
                    .orders
                    .keys()
                    .filter(|id| (lo..lo + RANGE_SPAN).contains(*id))
                    .count();
                vec![vec![Value::Int(n as i64)]]
            }
            _ => {
                let (mut n, mut s) = (0, 0);
                for o in self.orders.values() {
                    if o.2 > self.param_quarters {
                        n += 1;
                        s += o.1;
                    }
                }
                vec![vec![Value::Int(n), Value::Int(s)]]
            }
        }
    }
}

fn formula_src(top: u32) -> String {
    format!("=SUM(C{}:C{})", top + 1, top + FORMULA_SPAN)
}

fn query_sql(shape: u8, lo: i64) -> String {
    match shape {
        0 => "SELECT c.region, COUNT(*), SUM(o.qty) FROM orders o JOIN customers c \
              ON o.cust = c.cid GROUP BY c.region"
            .to_string(),
        1 => format!(
            "SELECT COUNT(*) FROM orders WHERE id >= {lo} AND id < {}",
            lo + RANGE_SPAN
        ),
        _ => "SELECT COUNT(*), SUM(qty) FROM orders WHERE price > RANGEVALUE(H1)".to_string(),
    }
}

fn rows_match(got: &[Vec<Value>], want: &[Vec<Value>]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(x, y)| same(x, y)))
}

impl Workload for Hybrid {
    type Op = Op;
    const NAME: &'static str = "hybrid_bound";

    fn setup(dir: &Path, seed: u64, small: bool) -> DsResult<Self> {
        let size = size(small);
        let mut rng = Rng::derive(seed, "hybrid.setup");
        let mut wb = Workbook::new();
        wb.execute("CREATE TABLE orders (id INT, cust INT, qty INT, price FLOAT)")?;
        wb.execute("CREATE TABLE customers (cid INT, name TEXT, region TEXT)")?;
        wb.execute("CREATE TABLE notes (id INT, body TEXT)")?;
        let regions: Vec<usize> = (0..size.customers)
            .map(|_| rng.below(REGIONS.len()))
            .collect();
        let mut orders = HashMap::new();
        {
            let mut t = wb.catalog_mut().get_mut("customers")?;
            for (cid, r) in regions.iter().enumerate() {
                t.insert(vec![
                    Value::Int(cid as i64),
                    Value::text(format!("cust{cid}")),
                    Value::text(REGIONS[*r]),
                ])?;
            }
        }
        {
            let mut t = wb.catalog_mut().get_mut("notes")?;
            for id in 0..size.notes {
                t.insert(note_values(id))?;
            }
        }
        {
            let mut t = wb.catalog_mut().get_mut("orders")?;
            for id in 0..size.orders {
                let o = random_order(&mut rng, size.customers);
                t.insert(order_values(id, o))?;
                orders.insert(id, o);
            }
        }
        wb.execute("ANALYZE")?;
        let s = wb.current_sheet();
        wb.bind_table(s, CellAddr::new(0, 0), "orders", BindModel::Rom)?;
        wb.set_input(s, SUM_CELL, &format!("=SUM(C1:C{CAP})"))?;
        wb.set_input(s, COUNT_CELL, &format!("=COUNT(A1:A{CAP})"))?;
        let param_quarters = 2000;
        wb.set_value(s, PARAM_CELL, Value::Float(param_quarters as f64 / 4.0))?;
        wb.save(dir)?;
        Ok(Hybrid {
            wb,
            ids: (0..size.orders).collect(),
            orders,
            regions,
            param_quarters,
            formulas: vec![None; FORMULA_ROWS as usize],
            notes: (0..size.notes).collect(),
        })
    }

    fn generate(seed: u64, scale: f64, small: bool) -> Vec<Op> {
        let size = size(small);
        let kinds = schedule(
            seed,
            "hybrid.schedule",
            &[
                (Kind::Query, 3 * count(7.0, scale)),
                (Kind::SqlInsert, count(8.0, scale)),
                (Kind::SqlUpdate, count(8.0, scale)),
                (Kind::Edit, count(18.0, scale)),
                (Kind::Param, count(1.0, scale)),
                (Kind::Formula, count(2.0, scale)),
                (Kind::Scroll, count(20.0, scale)),
                (Kind::InsertRow, count(10.0, scale)),
            ],
        );
        let mut rng = Rng::derive(seed, "hybrid.ops");
        let mut n = size.orders as usize;
        let mut next_id = size.orders;
        let mut notes = size.notes as usize;
        let mut queries = 0u8;
        let mut top = 0u32;
        let mut ops = Vec::with_capacity(kinds.len());
        for k in kinds {
            ops.push(match k {
                Kind::Query => {
                    queries = (queries + 1) % 3;
                    Op::Query {
                        shape: queries,
                        lo: rng.range(0, size.orders - RANGE_SPAN),
                    }
                }
                Kind::SqlInsert => {
                    next_id += 1;
                    n += 1;
                    Op::SqlInsert {
                        id: next_id,
                        order: random_order(&mut rng, size.customers),
                    }
                }
                Kind::SqlUpdate => Op::SqlUpdate {
                    id: rng.range(0, size.orders - 1),
                    qty: rng.range(1, 50),
                },
                Kind::Edit => Op::Edit {
                    pos: rng.below(n) as u32,
                    qty: rng.range(1, 50),
                },
                Kind::Param => Op::Param {
                    quarters: rng.range(400, 3600),
                },
                Kind::Formula => Op::Formula {
                    at: rng.below(FORMULA_ROWS as usize) as u32,
                    top: rng.below(n - FORMULA_SPAN as usize) as u32,
                },
                Kind::Scroll => {
                    let max = (n - VIEW_ROWS as usize) as i64;
                    top = (top as i64 + rng.range(-60, 60)).clamp(0, max) as u32;
                    Op::Scroll { top }
                }
                Kind::InsertRow => {
                    notes += 1;
                    Op::InsertRow {
                        pos: rng.below(notes),
                        id: notes as i64 - 1,
                    }
                }
                _ => unreachable!("hybrid schedules no {k:?}"),
            });
        }
        ops
    }

    fn kind(op: &Op) -> Kind {
        match op {
            Op::Query { .. } => Kind::Query,
            Op::SqlInsert { .. } => Kind::SqlInsert,
            Op::SqlUpdate { .. } => Kind::SqlUpdate,
            Op::Edit { .. } => Kind::Edit,
            Op::Param { .. } => Kind::Param,
            Op::Formula { .. } => Kind::Formula,
            Op::Scroll { .. } => Kind::Scroll,
            Op::InsertRow { .. } => Kind::InsertRow,
        }
    }

    fn class(op: &Op) -> u8 {
        match op {
            Op::Query { shape, .. } => *shape,
            _ => 0,
        }
    }

    fn user_bytes(op: &Op) -> u64 {
        let shown = |vals: Vec<Value>| vals.iter().map(|v| v.display_string().len() as u64).sum();
        match op {
            Op::SqlInsert { id, order } => shown(order_values(*id, *order)),
            Op::InsertRow { id, .. } => shown(note_values(*id)),
            Op::SqlUpdate { qty, .. } | Op::Edit { qty, .. } => qty.to_string().len() as u64,
            Op::Param { quarters } => shown(vec![Value::Float(*quarters as f64 / 4.0)]),
            Op::Formula { top, .. } => formula_src(*top).len() as u64,
            Op::Query { .. } | Op::Scroll { .. } => 0,
        }
    }

    fn exec(&mut self, op: &Op, ctx: &mut Ctx) -> DsResult<()> {
        let s = SheetId(0);
        match *op {
            Op::Query { shape, lo } => {
                let sql = query_sql(shape, lo);
                let out = sql_call(&mut self.wb, ctx, &sql)?;
                let mut got = out.rows().map(|(_, r)| r.to_vec()).unwrap_or_default();
                got.sort_by(|a, b| a[0].total_cmp(&b[0]));
                let want = self.expected_query(shape, lo);
                ctx.check(rows_match(&got, &want), || {
                    format!("{sql} returned {got:?}, want {want:?}")
                });
            }
            Op::SqlInsert { id, order } => {
                let sql = format!(
                    "INSERT INTO orders VALUES ({id}, {}, {}, {:?})",
                    order.0,
                    order.1,
                    order.2 as f64 / 4.0
                );
                let out = sql_call(&mut self.wb, ctx, &sql)?;
                ctx.check(out.affected() == Some(1), || format!("{sql}: {out:?}"));
                self.ids.push(id);
                self.orders.insert(id, order);
            }
            Op::SqlUpdate { id, qty } => {
                let sql = format!("UPDATE orders SET qty = {qty} WHERE id = {id}");
                let out = sql_call(&mut self.wb, ctx, &sql)?;
                ctx.check(out.affected() == Some(1), || format!("{sql}: {out:?}"));
                if let Some(o) = self.orders.get_mut(&id) {
                    o.1 = qty;
                }
            }
            Op::Edit { pos, qty } => {
                let wb = &mut self.wb;
                ctx.call("engine.set_value", || {
                    wb.set_value(s, CellAddr::new(pos, 2), Value::Int(qty))
                })?;
                let got = ctx.call("engine.cell", || wb.cell(s, SUM_CELL));
                let id = self.ids[pos as usize];
                if let Some(o) = self.orders.get_mut(&id) {
                    o.1 = qty;
                }
                let want = self.sum_qty();
                ctx.check(num(&got) == Some(want as f64), || {
                    format!("SUM cell {got:?} after edit, want {want}")
                });
            }
            Op::Param { quarters } => {
                let wb = &mut self.wb;
                ctx.call("engine.set_value", || {
                    wb.set_value(s, PARAM_CELL, Value::Float(quarters as f64 / 4.0))
                })?;
                self.param_quarters = quarters;
            }
            Op::Formula { at, top } => {
                let src = formula_src(top);
                let wb = &mut self.wb;
                let got = ctx.call("engine.set_input", || {
                    wb.set_input(s, CellAddr::new(at, FORMULA_COL), &src)
                })?;
                self.formulas[at as usize] = Some(top);
                let want = self.expected_formula(at);
                ctx.check(same(&got, &want), || {
                    format!("K{} = {got:?}, want {want:?}", at + 1)
                });
            }
            Op::Scroll { top } => {
                let range = Range::from_bounds(top, 0, top + VIEW_ROWS - 1, VIEW_COLS - 1);
                let sheet = self.wb.sheet(s);
                let st = sheet.store().stats();
                let (scanned, blocks) = (st.cells_scanned(), st.blocks_read());
                let t = std::time::Instant::now();
                let view = ctx.call("engine.region", || sheet.region(range));
                if ctx.traced() {
                    ctx.sample("grid.region_us", t.elapsed().as_secs_f64() * 1e6);
                    ctx.add("grid.cells_scanned", (st.cells_scanned() - scanned) as f64);
                    ctx.add("grid.blocks_read", (st.blocks_read() - blocks) as f64);
                    ctx.add("grid.viewports", 1.0);
                }
                for (dr, row) in view.iter().enumerate() {
                    let id = self.ids[top as usize + dr];
                    let want = order_values(id, self.orders[&id]);
                    ctx.check(
                        rows_match(&[row[..WIDTH as usize].to_vec()], &[want]),
                        || {
                            format!(
                                "viewport row {} = {row:?}, want order {id}",
                                top as usize + dr
                            )
                        },
                    );
                }
            }
            Op::InsertRow { pos, id } => {
                let wb = &mut self.wb;
                ctx.call("engine.insert_tuple_at", || {
                    wb.insert_tuple_at("notes", pos, note_values(id))
                })?;
                self.notes.insert(pos, id);
            }
        }
        Ok(())
    }

    fn probe(&mut self, op: &Op, ctx: &mut Ctx) -> DsResult<()> {
        if let Op::Formula { top, .. } = *op {
            let src = formula_src(top);
            let (r, us) = ctx.probe("formula.parse", || dataspread::formula::parser::parse(&src));
            r?;
            ctx.sample("formula.parse_us", us);
        }
        Ok(())
    }

    fn final_gate(&mut self, ctx: &mut Ctx) -> DsResult<()> {
        let s = SheetId(0);
        let n = self.ids.len() as u32;
        let sum = self.wb.cell(s, SUM_CELL);
        let region = self
            .wb
            .sheet(s)
            .region(Range::from_bounds(0, 0, n - 1, WIDTH - 1));
        let (_, rows) = self.wb.query("SELECT * FROM orders")?;
        ctx.check(rows_match(&region, &rows), || {
            "bound region differs from SELECT * in positional order".to_string()
        });
        let (_, total) = self.wb.query("SELECT SUM(qty) FROM orders")?;
        let want = self.sum_qty() as f64;
        ctx.check(
            num(&sum) == Some(want)
                && total.first().and_then(|r| r.first()).and_then(num) == Some(want),
            || format!("SUM cell {sum:?}, SELECT SUM(qty) {total:?}, shadow {want}"),
        );
        // The typed formulas: incremental values equal the shadow's and
        // those after a full recalculation.
        let col = Range::from_bounds(0, FORMULA_COL, FORMULA_ROWS - 1, FORMULA_COL);
        let incremental = self.wb.sheet(s).region(col);
        self.wb.recalculate();
        let full = self.wb.sheet(s).region(col);
        for (r, (inc, full)) in incremental.iter().zip(&full).enumerate() {
            let want = self.expected_formula(r as u32);
            ctx.check(same(&inc[0], &want) && same(&full[0], &want), || {
                format!(
                    "K{}: incremental {:?}, full {:?}, want {want:?}",
                    r + 1,
                    inc[0],
                    full[0]
                )
            });
        }
        Ok(())
    }

    fn wb(&self) -> &Workbook {
        &self.wb
    }

    fn wb_mut(&mut self) -> &mut Workbook {
        &mut self.wb
    }

    fn unread_cell(i: usize) -> CellAddr {
        CellAddr::new(10 + i as u32, 9)
    }

    fn expected_digest(&self) -> u64 {
        let mut d = Digest::default();
        for _ in 0..2 {
            // The table in display order, then the bound region showing it.
            for id in &self.ids {
                for v in &order_values(*id, self.orders[id]) {
                    digest_value(&mut d, v);
                }
            }
        }
        digest_value(&mut d, &Value::Int(self.sum_qty()));
        digest_value(&mut d, &Value::Int(self.ids.len() as i64));
        digest_value(&mut d, &Value::Float(self.param_quarters as f64 / 4.0));
        for r in 0..FORMULA_ROWS {
            digest_value(&mut d, &self.expected_formula(r));
        }
        for id in &self.notes {
            for v in &note_values(*id) {
                digest_value(&mut d, v);
            }
        }
        d.finish()
    }

    fn digest(wb: &mut Workbook) -> DsResult<u64> {
        let s = SheetId(0);
        let mut d = Digest::default();
        let n = {
            let t = wb.catalog().get("orders")?;
            for (_, row) in t.scan_window(0, t.row_count())? {
                for v in &row {
                    digest_value(&mut d, v);
                }
            }
            t.row_count() as u32
        };
        wb.cell(s, SUM_CELL);
        for v in wb
            .sheet(s)
            .region(Range::from_bounds(0, 0, n - 1, WIDTH - 1))
            .iter()
            .flatten()
        {
            digest_value(&mut d, v);
        }
        for addr in [SUM_CELL, COUNT_CELL, PARAM_CELL] {
            let v = wb.cell(s, addr);
            digest_value(&mut d, &v);
        }
        let col = Range::from_bounds(0, FORMULA_COL, FORMULA_ROWS - 1, FORMULA_COL);
        for row in wb.sheet(s).region(col) {
            digest_value(&mut d, &row[0]);
        }
        let t = wb.catalog().get("notes")?;
        for (_, row) in t.scan_window(0, t.row_count())? {
            for v in &row {
                digest_value(&mut d, v);
            }
        }
        Ok(d.finish())
    }
}
