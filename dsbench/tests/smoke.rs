//! The benchmark's own checks: generation is a function of the seed, and a
//! short run of every workload on shrunken inputs passes its correctness
//! gate, untraced and traced.

use std::path::PathBuf;

use dsbench::hybrid::Hybrid;
use dsbench::oltp::Oltp;
use dsbench::{run, sequence_digest, Config, Workload, LAYER_METRICS};

fn digest<W: Workload>(seed: u64) -> u64 {
    sequence_digest::<W>(&W::generate(seed, 2.0, true)).0
}

#[test]
fn same_seed_same_sequence() {
    assert_eq!(digest::<Oltp>(7), digest::<Oltp>(7));
    assert_eq!(digest::<Hybrid>(7), digest::<Hybrid>(7));
    assert_ne!(digest::<Oltp>(7), digest::<Oltp>(8));
    assert_ne!(digest::<Hybrid>(7), digest::<Hybrid>(8));
}

#[test]
fn op_counts_do_not_depend_on_the_seed() {
    let counts = |seed| sequence_digest::<Hybrid>(&Hybrid::generate(seed, 2.0, true)).1;
    assert_eq!(counts(1), counts(2));
}

fn smoke(workload: &str, trace: bool) {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "dsbench-smoke-{workload}-{trace}-{}",
        std::process::id()
    ));
    let cfg = Config {
        workload: workload.to_string(),
        seed: 3,
        seconds: 1,
        trace,
        small: true,
        work: work.clone(),
        trace_out: None::<PathBuf>,
    };
    let report = run(&cfg).expect("run completes");
    assert!(!work.exists(), "the run removes its work directory");
    assert!(report.correct, "gate failed: {:?}", report.notes);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    if trace {
        for (name, _) in LAYER_METRICS {
            assert!(report.metric(name).is_some(), "missing {name}");
        }
    } else {
        for name in [
            "setup_s",
            "ops_per_s",
            "open_ms",
            "edit_p50_us",
            "query_p50_us",
        ] {
            let v = report.metric(name).unwrap_or(0.0);
            assert!(v > 0.0, "{name} = {v}");
        }
    }
}

#[test]
fn table_oltp_passes_its_gate() {
    smoke("table_oltp", false);
    smoke("table_oltp", true);
}

#[test]
fn hybrid_bound_passes_its_gate() {
    smoke("hybrid_bound", false);
    smoke("hybrid_bound", true);
}
