//! End-to-end and per-layer benchmark of the BtrBlocks write, read and serve
//! paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <write|read|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end table [`metrics::END_TO_END`]; with `--trace 1`
//! they are the per-layer table [`metrics::PER_LAYER`], measured by a run
//! that records a span around every call into a layer. `perfbench/README.md`
//! explains the workloads and what each metric means on each of them.

mod data;
mod metrics;
mod read;
mod serve;
mod stats;
mod trace;
mod write;

use metrics::Report;
use std::process::ExitCode;
use std::time::Duration;

/// Load threads: the host's core count, as the workloads are sized for.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads of round `i` where serial and parallel rounds alternate, so
/// both see the same host.
pub fn round_threads(i: u64) -> usize {
    if i.is_multiple_of(2) {
        1
    } else {
        nproc()
    }
}

/// One invocation's command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report: Report = match args.workload.as_str() {
        "write" => write::run(args.seed, budget, args.trace),
        "read" => read::run(args.seed, budget, args.trace),
        "serve" => serve::run(args.seed, budget, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other} (write, read, serve)");
            return ExitCode::from(2);
        }
    };
    report.set("peak_rss_mb", stats::peak_rss_mb());
    report.set(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    match report.to_json(args.trace) {
        Ok(line) => {
            eprint!("{}", report.summary(args.trace));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(missing) => {
            eprintln!(
                "perfbench: workload {} did not measure {missing}",
                args.workload
            );
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload serve --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload, "serve");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--seed 1").is_err());
        assert!(args("--workload read --trace 2").is_err());
        assert!(args("--workload read --seconds 0").is_err());
        assert!(args("--workload read --bogus 1").is_err());
        assert!(args("--workload read --seed").is_err());
    }
}
