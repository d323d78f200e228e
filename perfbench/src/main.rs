//! `perfbench` — the repository benchmark for the `ltm-serve` server.
//!
//! ```text
//! perfbench --workload read_storm|full_reconcile
//!           --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Runs one workload against an in-process server at the `ltm serve`
//! defaults, driven only by generated HTTP traffic, checks the answers,
//! and prints every metric by name and unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`). See README.md for the workloads and metrics.

mod corpus;
mod layers;
mod net;
mod prom;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use workloads::Workload;

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traces and the servers' scratch files go (relative to the
    /// working directory).
    pub out: PathBuf,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload read_storm|full_reconcile \
         --seed N --seconds S --trace 0|1 [--out DIR]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.parse()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    // The servers log refits at info level; keep stderr for warnings.
    ltm_serve::obs::log::set_level(ltm_serve::obs::LogLevel::Warn);
    let scratch = args.out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let origin = Instant::now();
    let result = workloads::run(&args, &scratch, origin);
    let _ = std::fs::remove_dir_all(&scratch);
    let report: Report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    report.print(&args)
}
