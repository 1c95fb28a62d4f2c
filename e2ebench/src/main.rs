//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time and prints every metric by name
//! with its unit, then, as the last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Usually started
//! through `run.sh`, which builds it and the `e2clab` CLI first.

use e2ebench::workloads::{Size, Workload, MAX_CONCURRENT};
use e2ebench::Options;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload <study_long|study_wide|study_durable|serve_peak> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a non-negative number")?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // `run.sh` builds the CLI next to this binary.
    let worker_bin = std::env::current_exe()
        .map_err(|e| format!("locate own binary: {e}"))?
        .with_file_name("e2clab");
    if !worker_bin.is_file() {
        return Err(format!("no e2clab binary at {}", worker_bin.display()));
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: Size::Full,
        worker_bin,
        // Relative to the directory the benchmark is started from: the
        // benchmark reads and writes only inside its checkout.
        scratch: PathBuf::from(".e2ebench/scratch"),
        out: PathBuf::from(".e2ebench/out"),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match e2ebench::run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "e2ebench: workload={} seed={} trace={} passes={} max_concurrent={MAX_CONCURRENT} digest={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        outcome.passes,
        outcome.digest
    );
    println!("host: {}", outcome.host.to_json());
    if outcome.host.scratch_on_tmpfs() {
        println!(
            "warning: the journals sit on tmpfs, where fsync is free: the journal layer is hidden"
        );
    }
    for (name, value, unit) in &outcome.metrics {
        let note = match *name {
            "peak_rss_mb" => "  (this process only: farm workers excluded)",
            "cpu_ms_per_trial" => "  (self plus reaped children: farm workers included)",
            n if n.ends_with(".p95") => {
                let count = outcome
                    .metrics
                    .iter()
                    .find(|(m, _, _)| *m == n.replace(".p95", ".n"))
                    .map_or(0.0, |m| m.1);
                if count < e2ebench::MIN_TAIL_SAMPLES as f64 {
                    "  (fewer than 200 samples: read the p50 and the count)"
                } else {
                    ""
                }
            }
            _ => "",
        };
        println!("{name} = {value} {unit}{note}");
    }
    println!(
        "fail_ratio = {} ratio  ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
