//! Durability demo: save → kill the process → reopen → query.
//!
//! Run it twice:
//!
//! ```sh
//! cargo run -q -p dataspread --example persist   # session 1: builds + saves
//! cargo run -q -p dataspread --example persist   # session 2: recovers + verifies
//! ```
//!
//! Session 1 checkpoints a workbook into `$TMPDIR/dataspread-persist-demo`,
//! then runs more DML that is durable through the WAL alone, and exits
//! without another save — the "crash". Session 2 reopens the store: the
//! checkpoint loads, the committed WAL tail replays, and the queries see
//! everything. See `docs/STORAGE.md` for the formats.

use dataspread::Workbook;
use dataspread_types::{CellAddr, Value};

fn main() {
    let dir = std::env::temp_dir().join("dataspread-persist-demo");
    if !dir.exists() {
        // ---- session 1: build, save, then WAL-only DML ------------------
        let mut wb = Workbook::new();
        let sheet = wb.current_sheet();
        wb.set_input(sheet, CellAddr::parse_a1("B1").unwrap(), "90")
            .unwrap();
        wb.execute("CREATE TABLE students (id INT PRIMARY KEY, name TEXT, score REAL)")
            .unwrap();
        wb.execute("INSERT INTO students VALUES (1, 'ada', 91.5), (2, 'alan', 87.0)")
            .unwrap();
        wb.save(&dir).unwrap();
        println!("checkpointed into {}", dir.display());

        // Durable via the WAL only — no further checkpoint before "crash".
        wb.execute("INSERT INTO students VALUES (3, 'grace', 95.25)")
            .unwrap();
        wb.execute("UPDATE students SET score = 99.0 WHERE id = 2")
            .unwrap();
        println!("logged 2 more statements through the WAL; exiting without save");
        println!("run me again to recover");
    } else {
        // ---- session 2: recover and verify ------------------------------
        let wb = Workbook::open(&dir).unwrap();
        let (_, rows) = wb
            .query("SELECT name, score FROM students WHERE score > RANGEVALUE(B1) ORDER BY name")
            .unwrap();
        println!("recovered; students above the B1 cutoff:");
        for row in &rows {
            println!("  {row:?}");
        }
        assert_eq!(
            rows,
            vec![
                vec![Value::text("ada"), Value::Float(91.5)],
                vec![Value::text("alan"), Value::Float(99.0)],
                vec![Value::text("grace"), Value::Float(95.25)],
            ],
            "checkpoint + WAL replay must restore all three statements"
        );
        println!("recovery verified; removing {}", dir.display());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
