//! The host record printed with every result, process memory, and the
//! CPU clock that times every end-to-end region.
//!
//! The benchmark shares its host with other tenants. Wall times of the
//! same code, runs a few minutes apart, spread by up to a third of
//! their median between quartiles. The end-to-end times are therefore
//! CPU seconds, which leave out time spent waiting for a CPU; the wall
//! seconds are printed beside them.

use std::fs;
use std::process::Command;
use std::time::Instant;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// CPU seconds this process has used so far, summed over all of its
/// threads, ended ones included (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on) and the clock id
    // is a constant the kernel defines.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Both clocks of one timed region.
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// CPU seconds since [`Clock::start`], every thread of the process
    /// counted. Prints a `timing` line with the wall seconds too.
    pub fn cpu_s(&self) -> f64 {
        let cpu = cpu_seconds() - self.cpu;
        println!(
            "timing wall_s={} cpu_s={cpu}",
            self.wall.elapsed().as_secs_f64()
        );
        cpu
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` when the working directory
/// is a git checkout.
fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if id.is_empty() {
        "unknown".to_string()
    } else {
        id
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line describing where a result was measured.
pub fn record(workers: usize) -> String {
    format!(
        "host: nproc={} workers={workers} cpu=\"{}\" commit={} rustc=\"{}\"",
        nproc(),
        cpu_model(),
        commit(),
        rustc_version()
    )
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
