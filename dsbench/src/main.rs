//! `dsbench --workload <table_oltp|hybrid_bound> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). Context lines before it start with `#`. Workbook stores
//! live under `.bench_work/` in the current directory and are removed at
//! exit; a traced run leaves its spans in `.bench_out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use dsbench::{run, Config};

fn parse() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let tag = format!("{workload}-{}", std::process::id());
    let trace_out = if trace {
        std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
        Some(PathBuf::from(format!(
            ".bench_out/trace-{workload}-seed{seed}.jsonl"
        )))
    } else {
        None
    };
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        small: false,
        work: PathBuf::from(".bench_work").join(tag),
        trace_out,
    })
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dsbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for n in &report.notes {
                println!("# {n}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dsbench: {e}");
            ExitCode::FAILURE
        }
    }
}
