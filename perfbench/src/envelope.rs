//! The run envelope: what a result needs beside it to be compared —
//! git rev, cores, SIMD engine, rustc, thread counts, every
//! `LOSSTOMO_*` knob that was set, and the workload's input sizes.

use crate::{Outcome, RunCfg};
use std::fmt::Write as _;
use std::process::Command;
use std::sync::OnceLock;

/// `LOSSTOMO_*` variables set when the process started.
static KNOBS: OnceLock<Vec<(String, String)>> = OnceLock::new();

/// Records the `LOSSTOMO_*` knobs set by the caller, before the
/// benchmark sets any of its own.
pub fn pin_knobs() {
    KNOBS.get_or_init(|| {
        let mut k: Vec<(String, String)> = std::env::vars()
            .filter(|(name, _)| name.starts_with("LOSSTOMO_"))
            .collect();
        k.sort();
        k
    });
}

/// Thread budget of one run.
#[derive(Debug, Clone, Copy)]
pub struct Threads {
    /// Cores the host exposes.
    pub nproc: usize,
    /// Kernel pool cap (`LOSSTOMO_THREADS`), set in code.
    pub kernel: usize,
    /// Fleet drain workers (0: no fleet).
    pub fleet_workers: usize,
    /// Demux threads (0: no service edge).
    pub demux: usize,
}

/// Caps the kernel pool so a run uses at most `min(nproc, 2)` threads:
/// the streaming workloads run one fleet worker (the main thread) plus
/// the demux thread, so their kernels get one thread; `batch-mesh` runs
/// the kernels alone and gets both.
pub fn cap_threads(workload: &str) -> Threads {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = nproc.min(2);
    let streaming = workload != "batch-mesh";
    let kernel = if streaming {
        budget.saturating_sub(1).max(1)
    } else {
        budget
    };
    // Set before any thread is spawned.
    std::env::set_var("LOSSTOMO_THREADS", kernel.to_string());
    Threads {
        nproc,
        kernel,
        fleet_workers: usize::from(streaming),
        demux: usize::from(streaming),
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        // Look for a repository here only, never in a parent directory.
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The envelope as one JSON object.
pub fn describe(
    workload: &str,
    cfg: &RunCfg,
    threads: Threads,
    trace: bool,
    out: &Outcome,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {trace}, \
         \"git_rev\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"simd_engine\": \"{}\", \
         \"threads\": {{\"kernel\": {}, \"fleet_workers\": {}, \"demux\": {}}}, \
         \"setup_reps\": {}, \"knobs\": {{",
        cfg.seed,
        cfg.seconds,
        esc(&command_line("git", &["rev-parse", "HEAD"])),
        esc(&command_line("rustc", &["--version"])),
        threads.nproc,
        losstomo_linalg::simd::active().name(),
        threads.kernel,
        threads.fleet_workers,
        threads.demux,
        cfg.setup_reps,
    );
    let knobs = KNOBS.get().map(Vec::as_slice).unwrap_or(&[]);
    for (i, (k, v)) in knobs.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": \"{}\"",
            if i > 0 { ", " } else { "" },
            esc(k),
            esc(v)
        );
    }
    s.push_str("}, \"inputs\": {");
    for (i, (k, v)) in out.info.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": \"{}\"",
            if i > 0 { ", " } else { "" },
            esc(k),
            esc(v)
        );
    }
    s.push_str("}}");
    s
}
