//! The four workloads, each driven through the public entry points users
//! call: [`OptimizationManager::run`] and [`run_serving`].

use crate::host;
use crate::spans::SpanLog;
use crate::stats::Digest;
use e2c_core::optimization::{EvalContext, JournalConfig, OptimizationManager};
use e2c_core::serving::{run_serving, EpochRow, ServingConfig};
use e2c_core::OptimizationSummary;
use e2c_des::SimTime;
use e2c_tune::clock;
use plantnet::monitor::RepeatedMetrics;
use plantnet::sim::{Experiment, ExperimentSpec};
use plantnet::PoolConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Evaluations in flight in every workload (the host this benchmark was
/// written on has two cores).
pub const MAX_CONCURRENT: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StudyLong,
    StudyWide,
    StudyDurable,
    ServePeak,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StudyLong,
        Workload::StudyWide,
        Workload::StudyDurable,
        Workload::ServePeak,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyLong => "study_long",
            Workload::StudyWide => "study_wide",
            Workload::StudyDurable => "study_durable",
            Workload::ServePeak => "serve_peak",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Full` is the benchmark; `Tiny` keeps every code path of a workload but
/// shrinks its budget, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One optimize study: the conf, the engine run behind each trial and
/// whether the crash-safe, farmed path is on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StudySpec {
    pub(crate) algo: &'static str,
    pub(crate) trials: usize,
    pub(crate) initial: usize,
    /// Simulated seconds per evaluation (warm-up is a tenth, at most 60).
    pub(crate) duration: u64,
    pub(crate) clients: usize,
    /// Journal, trace and archive on, evaluations farmed to `e2clab worker`.
    pub(crate) durable: bool,
}

impl StudySpec {
    pub(crate) fn of(workload: Workload, size: Size) -> Option<StudySpec> {
        let tiny = size == Size::Tiny;
        let spec = match workload {
            Workload::StudyLong => StudySpec {
                algo: "extra_trees",
                trials: if tiny { 4 } else { 16 },
                initial: if tiny { 2 } else { 8 },
                duration: if tiny { 30 } else { 600 },
                clients: if tiny { 20 } else { 140 },
                durable: false,
            },
            Workload::StudyWide => StudySpec {
                algo: "extra_trees",
                trials: if tiny { 14 } else { 200 },
                initial: if tiny { 4 } else { 10 },
                duration: 20,
                clients: 80,
                durable: false,
            },
            Workload::StudyDurable => StudySpec {
                algo: "evolution",
                trials: if tiny { 12 } else { 300 },
                initial: 8,
                duration: 20,
                clients: 20,
                durable: true,
            },
            Workload::ServePeak => return None,
        };
        Some(spec)
    }

    /// The Phase I conf, over the Table II space, as a user would write it.
    pub(crate) fn conf_yaml(&self, name: &str) -> String {
        let mut yaml = format!(
            "name: {name}\noptimization:\n  metric: response_time\n  mode: min\n  name: {name}\n  \
             num_samples: {}\n  max_concurrent: {MAX_CONCURRENT}\n  search:\n    algo: {}\n    \
             n_initial_points: {}\n    initial_point_generator: lhs\n    acq_func: gp_hedge\n  \
             config:\n",
            self.trials, self.algo, self.initial
        );
        for (var, lo, hi) in TABLE_II {
            yaml.push_str(&format!(
                "    - name: {var}\n      type: randint\n      bounds: [{lo}, {hi}]\n"
            ));
        }
        yaml
    }

    /// Arguments of the farm's `e2clab worker` processes: the same engine
    /// run as [`evaluate`].
    pub(crate) fn worker_args(&self) -> Vec<String> {
        [
            "worker",
            "--repeat",
            "1",
            "--duration",
            &self.duration.to_string(),
            "--clients",
            &self.clients.to_string(),
        ]
        .map(str::to_string)
        .to_vec()
    }
}

/// The Table II pools and their bounds, in `PoolConfig` point order.
pub(crate) const TABLE_II: [(&str, u32, u32); 4] = [
    ("http", 20, 60),
    ("download", 20, 60),
    ("simsearch", 20, 60),
    ("extract", 2, 20),
];

/// The serving run: [`ServingConfig::new`] defaults, journaled.
pub(crate) fn serving_config(size: Size, seed: u64, dir: &Path) -> ServingConfig {
    let mut cfg = ServingConfig::new(dir.join("serve"));
    cfg.seed = seed;
    cfg.max_concurrent = MAX_CONCURRENT;
    cfg.journal_dir = Some(dir.join("journal"));
    if size == Size::Tiny {
        cfg.epoch_duration = SimTime::from_secs(20);
        cfg.samples = 2;
    }
    cfg
}

/// One trial's engine run, exactly as `e2clab optimize` and `e2clab
/// worker` evaluate a configuration (one repetition, seed `1000 + trial`).
pub(crate) fn evaluate(
    point: &[f64],
    trial: u64,
    duration: u64,
    clients: usize,
    tracer: Option<e2c_trace::Tracer>,
) -> RepeatedMetrics {
    let mut spec = ExperimentSpec::paper(PoolConfig::from_point(point), clients);
    spec.duration = SimTime::from_secs(duration);
    spec.warmup = SimTime::from_secs((duration / 10).min(60));
    Experiment::run_repeated_traced(spec, 1, 1000 + trial, tracer)
}

/// Sum of the DES kernel's `des/run` event counts in a trace.
pub(crate) fn des_events(tracer: &e2c_trace::Tracer) -> u64 {
    tracer
        .snapshot()
        .iter()
        .filter(|e| e.phase == "des" && e.name == "run")
        .filter_map(|e| match e.fields.get("events") {
            Some(e2c_trace::Value::U64(n)) => Some(*n),
            _ => None,
        })
        .sum()
}

/// Small dense id of the calling thread, for per-thread span grouping.
pub(crate) fn thread_slot() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static SLOT: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// What one pass of a workload produced.
pub(crate) struct Iteration {
    pub(crate) wall_s: f64,
    pub(crate) setup_s: f64,
    pub(crate) cpu_s: f64,
    pub(crate) peak_rss_mb: f64,
    /// Trials committed (for `serve_peak`, epochs × samples).
    pub(crate) trials: u64,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Digest of the (trial id, config, value) rows, or of `serving.csv`.
    pub(crate) digest: String,
    /// Failed correctness checks.
    pub(crate) problems: Vec<String>,
    pub(crate) detail: Detail,
}

/// What a traced run's layer measurements read back.
pub(crate) enum Detail {
    Study {
        summary: Option<Box<OptimizationSummary>>,
        /// The run's trace (durable study only).
        tracer: Option<e2c_trace::Tracer>,
    },
    Serve {
        rows: Vec<EpochRow>,
    },
}

/// Where and how one pass runs.
pub(crate) struct Pass<'a> {
    pub(crate) workload: Workload,
    pub(crate) size: Size,
    pub(crate) seed: u64,
    pub(crate) worker_bin: &'a Path,
    /// Fresh, empty directory for this pass's artifacts.
    pub(crate) dir: PathBuf,
    /// Span log of a traced pass; `None` keeps the objective bare.
    pub(crate) spans: Option<Arc<SpanLog>>,
    pub(crate) parent: Option<usize>,
}

impl Pass<'_> {
    pub(crate) fn run(&self) -> Result<Iteration, String> {
        match StudySpec::of(self.workload, self.size) {
            Some(spec) => self.study(&spec),
            None => self.serve(),
        }
    }

    fn study(&self, spec: &StudySpec) -> Result<Iteration, String> {
        let yaml = spec.conf_yaml(self.workload.name());
        let farm_spec = spec.durable.then(|| {
            e2c_tune::FarmSpec::new(
                self.worker_bin.to_path_buf(),
                spec.worker_args(),
                MAX_CONCURRENT,
                self.seed,
            )
        });
        // The farmed study never enters an objective closure here, so its
        // set-up boundary is our own launch of the same farm.
        let farm_setup_s = match &farm_spec {
            Some(fs) => {
                let t0 = clock::now();
                let conf = parse_conf(&yaml)?;
                let manager = OptimizationManager::new(conf).with_seed(self.seed);
                let farm = e2c_tune::WorkerFarm::launch(fs.clone())
                    .map_err(|e| format!("farm launch: {e}"))?;
                let setup = t0.elapsed().as_secs_f64();
                drop((farm, manager));
                Some(setup)
            }
            None => None,
        };
        let first_entry: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
        let tracer = spec.durable.then(e2c_trace::Tracer::new);
        host::reset_peak_rss()?;
        let cpu0 = host::cpu_seconds()?;
        let t0 = clock::now();

        let conf = parse_conf(&yaml)?;
        let mut manager = OptimizationManager::new(conf).with_seed(self.seed);
        if let (Some(fs), Some(tr)) = (farm_spec, &tracer) {
            let journal = self.dir.join("journal");
            std::fs::create_dir_all(&journal).map_err(|e| format!("journal dir: {e}"))?;
            manager = manager
                .with_archive(self.dir.join("archive"))
                .with_trace(tr.clone())
                .with_journal(JournalConfig::fresh(journal))
                .with_farm(fs);
            if let Some(log) = &self.spans {
                // The farm hands results back on the tuner's worker
                // threads; each return marks the end of an evaluation.
                let (log, parent) = (Arc::clone(log), self.parent);
                manager = manager.with_aux_hook(Arc::new(move |ctx: &EvalContext, _aux| {
                    let now = clock::now();
                    log.record(
                        "tune.return",
                        parent,
                        now,
                        now,
                        vec![("trial", ctx.trial_id), ("thread", thread_slot())],
                    );
                }));
            }
        }
        let (duration, clients) = (spec.duration, spec.clients);
        let entry = Arc::clone(&first_entry);
        let (log, parent) = (self.spans.clone(), self.parent);
        let result = manager.run(move |ctx: &EvalContext| {
            let start = clock::now();
            entry.get_or_init(|| start);
            let Some(log) = &log else {
                return evaluate(&ctx.point, ctx.trial_id, duration, clients, None)
                    .response
                    .mean;
            };
            let tracer = e2c_trace::Tracer::new();
            let m = evaluate(
                &ctx.point,
                ctx.trial_id,
                duration,
                clients,
                Some(tracer.clone()),
            );
            let end = clock::now();
            log.record(
                "plantnet.eval",
                parent,
                start,
                end,
                vec![
                    ("trial", ctx.trial_id),
                    ("thread", thread_slot()),
                    ("des_events", des_events(&tracer)),
                    ("sim_requests", m.runs.iter().map(|r| r.completed).sum()),
                ],
            );
            m.response.mean
        });
        if let (Ok(_), Some(tr)) = (&result, &tracer) {
            let path = self.dir.join("trace").join("trace.jsonl");
            std::fs::create_dir_all(self.dir.join("trace")).map_err(|e| format!("trace: {e}"))?;
            tr.save(&path).map_err(|e| format!("trace save: {e}"))?;
        }

        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds()? - cpu0;
        let peak_rss_mb = host::peak_rss_mb()?;
        let setup_s = match farm_setup_s {
            Some(s) => s,
            None => first_entry
                .get()
                .map(|t| t.duration_since(t0).as_secs_f64())
                .ok_or("the study never evaluated a trial")?,
        };
        let expected = spec.trials as u64;
        let mut problems = Vec::new();
        let (failed, digest, summary) = match result {
            Ok(summary) => {
                let trials = summary.analysis.trials();
                let mut digest = Digest::new();
                for t in trials {
                    digest.u64(t.id);
                    for x in &t.config {
                        digest.f64(*x);
                    }
                    digest.f64(t.value().unwrap_or(f64::NAN));
                }
                if trials.len() as u64 != expected {
                    problems.push(format!(
                        "committed {} trials, expected {expected}",
                        trials.len()
                    ));
                }
                if !summary.best_value.is_some_and(f64::is_finite) {
                    problems.push(format!("best value {:?} is not finite", summary.best_value));
                }
                let failed = trials.iter().filter(|t| t.value().is_none()).count() as u64;
                (failed, digest.hex(), Some(Box::new(summary)))
            }
            Err(e) => {
                problems.push(format!("run failed: {e}"));
                (expected, String::new(), None)
            }
        };
        Ok(Iteration {
            wall_s,
            setup_s,
            cpu_s,
            peak_rss_mb,
            trials: expected - failed,
            attempted: expected,
            failed,
            digest,
            problems,
            detail: Detail::Study { summary, tracer },
        })
    }

    fn serve(&self) -> Result<Iteration, String> {
        host::reset_peak_rss()?;
        let cpu0 = host::cpu_seconds()?;
        let t0 = clock::now();
        // `run_serving` creates its own directories: the set-up a caller
        // owes is the configuration.
        let cfg = serving_config(self.size, self.seed, &self.dir);
        let setup_s = t0.elapsed().as_secs_f64();
        let result = run_serving(&cfg);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds()? - cpu0;
        let peak_rss_mb = host::peak_rss_mb()?;

        let expected = (cfg.epochs * cfg.samples) as u64;
        let mut problems = Vec::new();
        let (failed, digest, rows) = match result {
            Ok(report) => {
                let csv = std::fs::read(&report.csv_path)
                    .map_err(|e| format!("read {}: {e}", report.csv_path.display()))?;
                problems.extend(check_serving_rows(&report.rows, cfg.epochs));
                (0, Digest::new().bytes(&csv).hex(), report.rows)
            }
            Err(e) => {
                problems.push(format!("serving run failed: {e}"));
                (expected, String::new(), Vec::new())
            }
        };
        Ok(Iteration {
            wall_s,
            setup_s,
            cpu_s,
            peak_rss_mb,
            trials: expected - failed,
            attempted: expected,
            failed,
            digest,
            problems,
            detail: Detail::Serve { rows },
        })
    }
}

/// Serving invariants: every arrival is admitted, rejected or shed, and
/// the saturating spring months (May, June) reject.
pub(crate) fn check_serving_rows(rows: &[EpochRow], epochs: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if rows.len() != epochs {
        problems.push(format!("{} serving rows, expected {epochs}", rows.len()));
    }
    for r in rows {
        if r.admitted + r.rejected + r.shed != r.offered {
            problems.push(format!(
                "{}: admitted {} + rejected {} + shed {} != offered {}",
                r.label, r.admitted, r.rejected, r.shed, r.offered
            ));
        }
        if (r.label.ends_with("-05") || r.label.ends_with("-06")) && r.rejected == 0 {
            problems.push(format!("{}: the spring peak rejected nothing", r.label));
        }
    }
    problems
}

fn parse_conf(yaml: &str) -> Result<e2c_conf::schema::OptimizationConf, String> {
    let value = e2c_conf::parse(yaml).map_err(|e| format!("conf: {e}"))?;
    e2c_conf::schema::ExperimentConf::from_value(&value)
        .map_err(|e| format!("conf: {e}"))?
        .optimization
        .ok_or_else(|| "conf has no optimization section".to_string())
}
