//! `table_oltp`: a durable table larger than its buffer pool, scrolled,
//! positionally inserted into, appended to and updated by key. Posindex,
//! the table's pages, the buffer pool, the pager and the WAL do the work;
//! calc and bind are idle. The cell edits go to a small dashboard sheet and
//! the queries to a small `stock` table, so both stay light beside the
//! table work.
//!
//! Row contents are a function of the row id, so the shadow model is the
//! positional id list plus the quantities updates have overwritten.

use std::collections::HashMap;
use std::path::Path;

use dataspread::types::{CellAddr, DsResult, Range, Value};
use dataspread::{SheetId, Workbook};

use crate::rng::{Digest, Rng};
use crate::{count, digest_value, num, schedule, sql_call, Ctx, Kind, Workload};

const TABLE: &str = "items";
const WINDOW: usize = 50;
/// Dashboard inputs `A1:A{DASH}`, totalled in `B1`.
const DASH: u32 = 100;

pub struct Size {
    rows: i64,
    pool_pages: usize,
    stock: i64,
}

pub fn size(small: bool) -> Size {
    if small {
        Size {
            rows: 5_000,
            pool_pages: 16,
            stock: 200,
        }
    } else {
        Size {
            rows: 100_000,
            pool_pages: 256,
            stock: 1_000,
        }
    }
}

fn row_of(id: i64, qty: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::text(format!("item{id}")),
        Value::Int(qty),
        Value::Float(((id * 31) % 1000) as f64 / 4.0),
    ]
}

fn base_qty(id: i64) -> i64 {
    (id * 7919) % 100
}

fn stock_qty(sku: i64) -> i64 {
    (sku * 104_729) % 500
}

/// `stock` rows: `(sku, bin, qty)`, never written during a run.
fn stock_row(sku: i64) -> Vec<Value> {
    vec![
        Value::Int(sku),
        Value::Int(sku % 17),
        Value::Int(stock_qty(sku)),
    ]
}

#[derive(Debug)]
pub enum Op {
    /// `fetch_window(pos, 50)`.
    Scroll { pos: usize },
    /// `insert_tuple_at(pos, row(id))`.
    InsertRow { pos: usize, id: i64 },
    /// Autocommit `INSERT` of `row(id)` (appended).
    SqlInsert { id: i64 },
    /// `UPDATE items SET qty = .. WHERE id = ..`.
    SqlUpdate { id: i64, qty: i64 },
    /// `DELETE FROM items WHERE id = ..`.
    SqlDelete { id: i64 },
    /// Dashboard `A{cell} := val`, then read back the total.
    Edit { cell: u32, val: i64 },
    /// Count and total quantity over a sku range of `stock`.
    Query { lo: i64 },
}

pub struct Oltp {
    wb: Workbook,
    /// Row ids in display order.
    ids: Vec<i64>,
    /// Quantities overwritten by updates.
    qty: HashMap<i64, i64>,
    dash: Vec<i64>,
    stock: i64,
}

impl Oltp {
    fn qty_of(&self, id: i64) -> i64 {
        self.qty.get(&id).copied().unwrap_or_else(|| base_qty(id))
    }

    fn expected_row(&self, id: i64) -> Vec<Value> {
        row_of(id, self.qty_of(id))
    }
}

const QUERY_SPAN: i64 = 100;

impl Workload for Oltp {
    type Op = Op;
    const NAME: &'static str = "table_oltp";

    fn setup(dir: &Path, seed: u64, small: bool) -> DsResult<Self> {
        let size = size(small);
        let mut rng = Rng::derive(seed, "oltp.setup");
        let mut wb = Workbook::new();
        wb.set_default_pool_capacity(size.pool_pages);
        wb.execute("CREATE TABLE items (id INT, name TEXT, qty INT, price FLOAT)")?;
        wb.execute("CREATE TABLE stock (sku INT, bin INT, qty INT)")?;
        {
            let mut t = wb.catalog_mut().get_mut(TABLE)?;
            for id in 0..size.rows {
                t.insert(row_of(id, base_qty(id)))?;
            }
        }
        {
            let mut t = wb.catalog_mut().get_mut("stock")?;
            for sku in 0..size.stock {
                t.insert(stock_row(sku))?;
            }
        }
        let s = wb.current_sheet();
        let dash: Vec<i64> = (0..DASH).map(|_| rng.range(0, 99)).collect();
        let cells: Vec<Vec<Value>> = dash.iter().map(|v| vec![Value::Int(*v)]).collect();
        wb.set_region(s, CellAddr::new(0, 0), &cells)?;
        wb.set_input(s, CellAddr::new(0, 1), &format!("=SUM(A1:A{DASH})"))?;
        wb.save(dir)?;
        Ok(Oltp {
            wb,
            ids: (0..size.rows).collect(),
            qty: HashMap::new(),
            dash,
            stock: size.stock,
        })
    }

    fn generate(seed: u64, scale: f64, small: bool) -> Vec<Op> {
        let size = size(small);
        let kinds = schedule(
            seed,
            "oltp.schedule",
            &[
                (Kind::Scroll, count(375.0, scale)),
                (Kind::InsertRow, count(95.0, scale)),
                (Kind::SqlInsert, count(125.0, scale)),
                (Kind::SqlUpdate, count(9.0, scale)),
                (Kind::SqlDelete, count(4.0, scale)),
                (Kind::Edit, count(40.0, scale)),
                (Kind::Query, count(25.0, scale)),
            ],
        );
        let mut rng = Rng::derive(seed, "oltp.ops");
        // Live ids (unordered) and the next fresh id: the generator tracks
        // only what it needs to pick valid keys and positions.
        let mut live: Vec<i64> = (0..size.rows).collect();
        let mut next_id = size.rows;
        let mut pos = rng.below(size.rows as usize - WINDOW);
        let mut ops = Vec::with_capacity(kinds.len());
        for k in kinds {
            let n = live.len();
            ops.push(match k {
                Kind::Scroll => {
                    let max = n - WINDOW;
                    pos = if rng.chance(0.8) {
                        if rng.chance(0.5) {
                            (pos + WINDOW).min(max)
                        } else {
                            pos.saturating_sub(WINDOW)
                        }
                    } else {
                        rng.below(max + 1)
                    };
                    Op::Scroll { pos }
                }
                Kind::InsertRow => {
                    next_id += 1;
                    live.push(next_id);
                    Op::InsertRow {
                        pos: rng.below(n + 1),
                        id: next_id,
                    }
                }
                Kind::SqlInsert => {
                    next_id += 1;
                    live.push(next_id);
                    Op::SqlInsert { id: next_id }
                }
                Kind::SqlUpdate => Op::SqlUpdate {
                    id: live[rng.below(n)],
                    qty: rng.range(0, 99),
                },
                Kind::SqlDelete => Op::SqlDelete {
                    id: live.swap_remove(rng.below(n)),
                },
                Kind::Edit => Op::Edit {
                    cell: rng.below(DASH as usize) as u32,
                    val: rng.range(0, 99),
                },
                Kind::Query => Op::Query {
                    lo: rng.range(0, size.stock - QUERY_SPAN),
                },
                _ => unreachable!("oltp schedules no {k:?}"),
            });
        }
        ops
    }

    fn kind(op: &Op) -> Kind {
        match op {
            Op::Scroll { .. } => Kind::Scroll,
            Op::InsertRow { .. } => Kind::InsertRow,
            Op::SqlInsert { .. } => Kind::SqlInsert,
            Op::SqlUpdate { .. } => Kind::SqlUpdate,
            Op::SqlDelete { .. } => Kind::SqlDelete,
            Op::Edit { .. } => Kind::Edit,
            Op::Query { .. } => Kind::Query,
        }
    }

    fn user_bytes(op: &Op) -> u64 {
        let row_bytes = |id: i64| {
            row_of(id, base_qty(id))
                .iter()
                .map(|v| v.display_string().len() as u64)
                .sum::<u64>()
        };
        match op {
            Op::InsertRow { id, .. } | Op::SqlInsert { id } => row_bytes(*id),
            Op::SqlUpdate { qty, .. } => qty.to_string().len() as u64,
            Op::Edit { val, .. } => val.to_string().len() as u64,
            Op::SqlDelete { .. } => 1,
            Op::Scroll { .. } | Op::Query { .. } => 0,
        }
    }

    fn exec(&mut self, op: &Op, ctx: &mut Ctx) -> DsResult<()> {
        match *op {
            Op::Scroll { pos } => {
                let wb = &mut self.wb;
                let rows = ctx.call("engine.fetch_window", || {
                    wb.fetch_window(TABLE, pos, WINDOW)
                })?;
                let want = &self.ids[pos..(pos + WINDOW).min(self.ids.len())];
                let ok = rows.len() == want.len()
                    && rows
                        .iter()
                        .zip(want)
                        .all(|((_, r), id)| *r == self.expected_row(*id));
                ctx.check(ok, || {
                    format!("fetch_window({pos}) differs from the shadow")
                });
            }
            Op::InsertRow { pos, id } => {
                let wb = &mut self.wb;
                ctx.call("engine.insert_tuple_at", || {
                    wb.insert_tuple_at(TABLE, pos, row_of(id, base_qty(id)))
                })?;
                self.ids.insert(pos, id);
            }
            Op::SqlInsert { id } => {
                let r = row_of(id, base_qty(id));
                let sql = format!(
                    "INSERT INTO items VALUES ({id}, 'item{id}', {}, {:?})",
                    base_qty(id),
                    num(&r[3]).unwrap_or(0.0)
                );
                let out = sql_call(&mut self.wb, ctx, &sql)?;
                ctx.check(out.affected() == Some(1), || format!("{sql}: {out:?}"));
                self.ids.push(id);
            }
            Op::SqlUpdate { id, qty } => {
                let sql = format!("UPDATE items SET qty = {qty} WHERE id = {id}");
                let out = sql_call(&mut self.wb, ctx, &sql)?;
                ctx.check(out.affected() == Some(1), || format!("{sql}: {out:?}"));
                self.qty.insert(id, qty);
            }
            Op::SqlDelete { id } => {
                let sql = format!("DELETE FROM items WHERE id = {id}");
                let out = sql_call(&mut self.wb, ctx, &sql)?;
                ctx.check(out.affected() == Some(1), || format!("{sql}: {out:?}"));
                if let Some(p) = self.ids.iter().position(|x| *x == id) {
                    self.ids.remove(p);
                }
            }
            Op::Edit { cell, val } => {
                let s = SheetId(0);
                let wb = &mut self.wb;
                ctx.call("engine.set_value", || {
                    wb.set_value(s, CellAddr::new(cell, 0), Value::Int(val))
                })?;
                let got = ctx.call("engine.cell", || wb.cell(s, CellAddr::new(0, 1)));
                self.dash[cell as usize] = val;
                let want: i64 = self.dash.iter().sum();
                ctx.check(num(&got) == Some(want as f64), || {
                    format!("dashboard total {got:?}, want {want}")
                });
            }
            Op::Query { lo } => {
                let hi = lo + QUERY_SPAN;
                let sql = format!(
                    "SELECT COUNT(*), SUM(qty) FROM stock WHERE sku >= {lo} AND sku < {hi}"
                );
                let out = sql_call(&mut self.wb, ctx, &sql)?;
                let skus = lo..hi.min(self.stock);
                let n = skus.clone().count() as i64;
                let total: i64 = skus.map(stock_qty).sum();
                let ok = out.rows().is_some_and(|(_, rows)| {
                    rows.len() == 1
                        && num(&rows[0][0]) == Some(n as f64)
                        && num(&rows[0][1]) == Some(total as f64)
                });
                ctx.check(ok, || {
                    format!("{sql} returned {out:?}, want ({n}, {total})")
                });
            }
        }
        Ok(())
    }

    fn probe(&mut self, op: &Op, ctx: &mut Ctx) -> DsResult<()> {
        if let Op::Scroll { pos } = *op {
            let t = self.wb.catalog().get(TABLE)?;
            let (key, us) = ctx.probe("posindex.key_at", || t.key_at(pos));
            ctx.sample("posindex.key_at_us", us);
            if let Some(key) = key {
                let (r, us) = ctx.probe("relstore.get_row", || t.get_row(key));
                r?;
                ctx.sample("table.get_row_us", us);
            }
        }
        Ok(())
    }

    fn final_gate(&mut self, ctx: &mut Ctx) -> DsResult<()> {
        let (_, rows) = self.wb.query("SELECT COUNT(*) FROM items")?;
        let n = rows.first().and_then(|r| r.first()).and_then(num);
        ctx.check(n == Some(self.ids.len() as f64), || {
            format!("COUNT(*) = {n:?}, shadow has {} rows", self.ids.len())
        });
        Ok(())
    }

    fn wb(&self) -> &Workbook {
        &self.wb
    }

    fn wb_mut(&mut self) -> &mut Workbook {
        &mut self.wb
    }

    fn unread_cell(i: usize) -> CellAddr {
        CellAddr::new(i as u32, 4)
    }

    fn expected_digest(&self) -> u64 {
        let mut d = Digest::default();
        for id in &self.ids {
            for v in &self.expected_row(*id) {
                digest_value(&mut d, v);
            }
        }
        for sku in 0..self.stock {
            for v in &stock_row(sku) {
                digest_value(&mut d, v);
            }
        }
        for v in &self.dash {
            digest_value(&mut d, &Value::Int(*v));
        }
        digest_value(&mut d, &Value::Int(self.dash.iter().sum()));
        d.finish()
    }

    fn digest(wb: &mut Workbook) -> DsResult<u64> {
        let mut d = Digest::default();
        for table in [TABLE, "stock"] {
            let t = wb.catalog().get(table)?;
            for (_, row) in t.scan_window(0, t.row_count())? {
                for v in &row {
                    digest_value(&mut d, v);
                }
            }
        }
        let s = SheetId(0);
        wb.cell(s, CellAddr::new(0, 0));
        let region = wb.sheet(s).region(Range::from_bounds(0, 0, DASH - 1, 1));
        for row in &region {
            digest_value(&mut d, &row[0]);
        }
        digest_value(&mut d, &region[0][1]);
        Ok(d.finish())
    }
}
