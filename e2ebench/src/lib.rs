//! End-to-end benchmark of e2clab. See `README.md` in this directory for
//! the workloads, the metrics and what each layer is expected to move.

mod host;
mod layers;
mod spans;
mod stats;
pub mod workloads;

use e2c_tune::clock;
pub use host::Host;
pub use layers::MIN_TAIL_SAMPLES;
use spans::SpanLog;
use stats::iq_mean;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use workloads::{Iteration, Pass, Size, Workload};

/// End-to-end metrics `(name, unit, better)`, measured with tracing off.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("trials_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("cpu_ms_per_trial", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics `(name, unit, better)` of the traced run. Every
/// workload reports all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("plantnet.eval_ms.p50", "ms", "lower"),
    ("plantnet.eval_ms.p95", "ms", "lower"),
    ("plantnet.eval_ms.n", "count", "higher"),
    ("plantnet.busy_share", "ratio", "higher"),
    ("plantnet.sim_requests", "count", "higher"),
    ("plantnet.us_per_request", "us", "lower"),
    ("des.events", "count", "lower"),
    ("des.ns_per_event", "ns", "lower"),
    ("optim.ask_ms.p50", "ms", "lower"),
    ("optim.ask_ms.p95", "ms", "lower"),
    ("optim.ask_ms.n", "count", "higher"),
    ("optim.tell_ms.p50", "ms", "lower"),
    ("optim.share", "ratio", "lower"),
    ("tune.gap_ms.p50", "ms", "lower"),
    ("tune.gap_ms.p95", "ms", "lower"),
    ("tune.gap_ms.n", "count", "higher"),
    ("journal.records_per_trial", "count", "lower"),
    ("journal.bytes_per_trial", "B", "lower"),
    ("journal.append_ms.p50", "ms", "lower"),
    ("journal.append_ms.p95", "ms", "lower"),
    ("journal.append_ms.n", "count", "higher"),
    ("journal.codec_us", "us", "lower"),
    ("journal.share", "ratio", "lower"),
    ("archive.write_ms", "ms", "lower"),
    ("archive.eval_ms.p50", "ms", "lower"),
    ("archive.share", "ratio", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.save_ms", "ms", "lower"),
    ("farm.launch_ms", "ms", "lower"),
    ("farm.execute_ms.p50", "ms", "lower"),
    ("farm.execute_ms.p95", "ms", "lower"),
    ("farm.execute_ms.n", "count", "higher"),
    ("farm.tax_ms.p50", "ms", "lower"),
    ("farm.share", "ratio", "lower"),
    ("serve.eval_ms.p50", "ms", "lower"),
    ("serve.eval_ms.n", "count", "higher"),
    ("serve.offered", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.share", "ratio", "higher"),
    ("workload.arrivals_ms", "ms", "lower"),
    ("other.share", "ratio", "lower"),
    ("trace.overhead", "ratio", "higher"),
    ("setup.share", "ratio", "lower"),
];

/// `(workload, seed, digest)` of full-size runs, checked whenever a run
/// uses one of these seeds.
const EXPECTED: &str = include_str!("../expected.tsv");

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// The `e2clab` binary the farm spawns as `e2clab worker`.
    pub worker_bin: PathBuf,
    /// Root for run journals and archives (removed after the run).
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub problems: Vec<String>,
    pub host: Host,
    pub passes: usize,
    pub digest: String,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload for `seconds` (at least two passes, so determinism
/// is always checked) and compute its metrics.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let scratch = opts.scratch.join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let host = Host::probe(&scratch);
    let outcome = measure(opts, &scratch, host);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn measure(opts: &Options, scratch: &Path, host: Host) -> Result<Outcome, String> {
    let start = clock::now();
    // Per untraced pass: trials/s, set-up s, CPU ms/trial, peak RSS MB.
    let mut untraced: Vec<[f64; 4]> = Vec::new();
    let mut traced_tps: Vec<f64> = Vec::new();
    let mut last_traced: Option<(Iteration, Arc<SpanLog>, usize, PathBuf)> = None;
    let mut digests = Vec::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    // Pass directories are removed with the scratch root after the run,
    // so no pass pays for deleting its predecessor's files.
    let mut k = 0;
    while k < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        // Traced runs alternate untraced and traced passes, so the trace
        // overhead compares neighbours.
        let spans = (opts.trace && k % 2 == 1).then(|| Arc::new(SpanLog::new()));
        let root = spans.as_ref().map(|log| log.open("run", None));
        let dir = scratch.join(format!("pass-{k}"));
        let pass = Pass {
            workload: opts.workload,
            size: opts.size,
            seed: opts.seed,
            worker_bin: &opts.worker_bin,
            dir: dir.clone(),
            spans: spans.clone(),
            parent: root,
        };
        let it = pass.run()?;
        eprintln!(
            "e2ebench: pass {k}{}: wall {:.4} s, setup {:.6} s, cpu {:.3} s, peak rss {:.1} MB, {} trials",
            if spans.is_some() { " (traced)" } else { "" },
            it.wall_s,
            it.setup_s,
            it.cpu_s,
            it.peak_rss_mb,
            it.trials
        );
        digests.push(it.digest.clone());
        attempted += it.attempted;
        failed += it.failed;
        problems.extend(it.problems.iter().map(|p| format!("pass {k}: {p}")));
        let tps = it.trials as f64 / it.wall_s;
        match (spans, root) {
            (Some(log), Some(root)) => {
                log.close(root);
                traced_tps.push(tps);
                last_traced = Some((it, log, root, dir));
            }
            _ => {
                let per_trial = 1e3 / it.trials.max(1) as f64;
                untraced.push([tps, it.setup_s, it.cpu_s * per_trial, it.peak_rss_mb]);
            }
        }
        k += 1;
    }

    if digests.iter().any(|d| *d != digests[0]) {
        problems.push(format!("passes disagree on the output digest: {digests:?}"));
    }
    if opts.size == Size::Full {
        if let Some(want) = expected_digest(opts.workload, opts.seed) {
            if digests[0] != want {
                problems.push(format!(
                    "digest {} differs from the recorded {want} for seed {}",
                    digests[0], opts.seed
                ));
            }
        }
    }
    let column = |i: usize| -> Vec<f64> { untraced.iter().map(|pass| pass[i]).collect() };

    let metrics = match last_traced {
        None => END_TO_END
            .iter()
            .enumerate()
            .map(|(i, &(name, unit, _))| (name, iq_mean(&column(i)), unit))
            .collect(),
        Some((it, log, root, dir)) => {
            let pass = Pass {
                workload: opts.workload,
                size: opts.size,
                seed: opts.seed,
                worker_bin: &opts.worker_bin,
                dir,
                spans: None,
                parent: None,
            };
            let mut layers = layers::measure(&pass, &it, &log, root);
            problems.append(&mut layers.problems);
            let mut values = layers.values;
            values.insert("trace.overhead", iq_mean(&traced_tps) / iq_mean(&column(0)));
            values.insert("setup.share", it.setup_s / it.wall_s);
            write_spans(opts, &host, &log)?;
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    let v = values.get(name).copied().unwrap_or_else(|| {
                        problems.push(format!("per-layer metric {name} was not measured"));
                        0.0
                    });
                    (name, v, unit)
                })
                .collect()
        }
    };
    let mut metrics: Vec<(&'static str, f64, &'static str)> = metrics;
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            problems.push(format!("{name} is not finite"));
            *value = 0.0;
        }
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        host,
        passes: k,
        digest: digests[0].clone(),
    })
}

fn expected_digest(workload: Workload, seed: u64) -> Option<String> {
    EXPECTED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(d)) if w == workload.name() && s.parse() == Ok(seed) => {
                Some(d.to_string())
            }
            _ => None,
        }
    })
}

/// Write the traced run's spans once, after the run, host stamp first.
fn write_spans(opts: &Options, host: &Host, log: &SpanLog) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let path = opts.out.join(format!(
        "{}-seed{}.spans.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let text = format!("{{\"host\": {}}}\n{}", host.to_json(), log.to_jsonl());
    e2c_journal::write_atomic(&path, text.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}
