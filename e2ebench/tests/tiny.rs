//! A tiny-sized pass of every workload, untraced and traced: the printed
//! metrics are exactly the documented ones, with their units, and every
//! correctness check passes.

use e2ebench::workloads::{Size, Workload};
use e2ebench::{Options, Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The root package's `e2clab` CLI, which the farmed workload spawns as
/// `e2clab worker`, built into this test's target directory as `run.sh`
/// builds it.
fn e2clab() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        // This test runs from `<target>/<profile>/deps/`.
        let exe = std::env::current_exe().expect("the test's own path");
        let target = exe.ancestors().nth(3).expect("a target directory");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "e2clab",
            ])
            .arg("--manifest-path")
            .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml"))
            .arg("--target-dir")
            .arg(target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building e2clab failed");
        target.join("release").join("e2clab")
    })
    .clone()
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "e2ebench-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        worker_bin: e2clab(),
        scratch: root.join("scratch"),
        out: root.join("out"),
    };
    let outcome = e2ebench::run(&opts).expect("the tiny run completes");
    assert!(
        outcome.correct,
        "{}: {:?}",
        workload.name(),
        outcome.problems
    );
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    let expected: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
    assert_eq!(got, expected);
    assert!(outcome.metrics.iter().all(|(_, v, _)| v.is_finite()));
    if trace {
        let spans = root
            .join("out")
            .join(format!("{}-seed7.spans.jsonl", workload.name()));
        let text = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
        assert!(text.starts_with("{\"host\": {\"available_parallelism\""));
        assert!(text.contains("\"name\": \"run\""));
    }
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn study_long_tiny() {
    let e2e = tiny(Workload::StudyLong, false);
    assert!(value(&e2e, "trials_per_s") > 0.0);
    assert!(value(&e2e, "setup_s") > 0.0);
    let traced = tiny(Workload::StudyLong, true);
    assert!(value(&traced, "plantnet.busy_share") > 0.0);
    assert!(value(&traced, "des.events") > 0.0);
    assert_eq!(value(&traced, "journal.records_per_trial"), 0.0);
}

#[test]
fn study_wide_tiny() {
    tiny(Workload::StudyWide, false);
    let traced = tiny(Workload::StudyWide, true);
    assert_eq!(value(&traced, "optim.ask_ms.n"), 14.0);
    assert!(value(&traced, "tune.gap_ms.n") > 0.0);
}

#[test]
fn study_durable_tiny() {
    let e2e = tiny(Workload::StudyDurable, false);
    assert!(value(&e2e, "cpu_ms_per_trial") > 0.0);
    let traced = tiny(Workload::StudyDurable, true);
    // Every committed point went through a worker, bit-identical to the
    // in-process value (else the run would be incorrect).
    assert_eq!(value(&traced, "farm.execute_ms.n"), 12.0);
    assert!(value(&traced, "journal.records_per_trial") >= 3.0);
    assert!(value(&traced, "trace.events") > 0.0);
    assert_eq!(value(&traced, "optim.ask_ms.n"), 0.0);
}

#[test]
fn serve_peak_tiny() {
    tiny(Workload::ServePeak, false);
    let traced = tiny(Workload::ServePeak, true);
    assert_eq!(value(&traced, "serve.eval_ms.n"), 6.0);
    // Six epochs of two trials each, every ask re-made by the replay.
    assert_eq!(value(&traced, "optim.ask_ms.n"), 12.0);
    assert!(value(&traced, "serve.rejected") > 0.0);
    assert!(value(&traced, "serve.offered") > value(&traced, "serve.rejected"));
}

/// `BENCHMARK.json` at the repository root lists exactly these metrics and
/// workloads.
#[test]
fn benchmark_json_matches_the_code() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(
        names,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}
