//! Host context recorded beside every run (never gated on): CPU count, the
//! pure `pwrite`+`fsync` floor of the run's filesystem, and a CPU
//! calibration loop. Together they are the noise floor a comparison between
//! two runs has to clear.

use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

pub struct HostContext {
    pub nproc: usize,
    /// Median µs of one 4 KiB write followed by `fsync`, in the work dir.
    pub fsync_floor_us: f64,
    /// Median ms of a fixed integer loop (lower is a faster or quieter CPU).
    pub cpu_calib_ms: f64,
}

impl HostContext {
    pub fn probe(dir: &Path) -> std::io::Result<HostContext> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let path = dir.join("fsync-floor.tmp");
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        let page = [0x5Au8; 4096];
        let mut fsync = Vec::with_capacity(64);
        for i in 0..64u64 {
            let t = Instant::now();
            f.seek(SeekFrom::Start(i * 4096))?;
            f.write_all(&page)?;
            f.sync_data()?;
            fsync.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(f);
        std::fs::remove_file(&path)?;
        let mut cpu = Vec::with_capacity(5);
        for _ in 0..5 {
            let t = Instant::now();
            let mut x = 1u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            std::hint::black_box(x);
            cpu.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(HostContext {
            nproc,
            fsync_floor_us: median(&fsync),
            cpu_calib_ms: median(&cpu),
        })
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"fsync_floor_us\": {:.3}, \"cpu_calib_ms\": {:.4}}}",
            self.nproc, self.fsync_floor_us, self.cpu_calib_ms
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
