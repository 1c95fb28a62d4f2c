//! The traced run's per-layer breakdown. Every number comes from outside
//! the program: timestamps around the objective closure, and calls into
//! each layer's public functions on the artifacts the traced pass left.

use crate::spans::{Span, SpanLog};
use crate::stats::{median, quantile};
use crate::workloads::{des_events, evaluate, Detail, Iteration, Pass, StudySpec, MAX_CONCURRENT};
use e2c_optim::acquisition::Acquisition;
use e2c_optim::bayes::BayesOpt;
use e2c_optim::sampling::InitialDesign;
use e2c_optim::space::{Point, Space};
use e2c_tune::clock;
use e2c_tune::journal::RunEvent;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A p95 needs at least this many samples to be reported as a tail.
pub const MIN_TAIL_SAMPLES: usize = 200;

/// Per-layer metric values of one traced pass.
#[derive(Default)]
pub(crate) struct Layers {
    pub(crate) values: BTreeMap<&'static str, f64>,
    pub(crate) problems: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// `<x>.p50`, `<x>.p95` and `<x>.n` of a latency series.
    fn series(&mut self, names: [&'static str; 3], samples: &[f64]) {
        self.set(names[0], quantile(samples, 0.5));
        self.set(names[1], quantile(samples, 0.95));
        self.set(names[2], samples.len() as f64);
    }

    /// A layer this workload never calls reports zero work.
    fn idle(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }
}

const PLANTNET: [&str; 6] = [
    "plantnet.eval_ms.p50",
    "plantnet.eval_ms.p95",
    "plantnet.eval_ms.n",
    "plantnet.busy_share",
    "plantnet.sim_requests",
    "plantnet.us_per_request",
];
const OPTIM: [&str; 5] = [
    "optim.ask_ms.p50",
    "optim.ask_ms.p95",
    "optim.ask_ms.n",
    "optim.tell_ms.p50",
    "optim.share",
];
const TUNE: [&str; 3] = ["tune.gap_ms.p50", "tune.gap_ms.p95", "tune.gap_ms.n"];
const JOURNAL: [&str; 7] = [
    "journal.records_per_trial",
    "journal.bytes_per_trial",
    "journal.append_ms.p50",
    "journal.append_ms.p95",
    "journal.append_ms.n",
    "journal.codec_us",
    "journal.share",
];
const ARCHIVE_TRACE: [&str; 5] = [
    "archive.write_ms",
    "archive.eval_ms.p50",
    "archive.share",
    "trace.events",
    "trace.save_ms",
];
const FARM: [&str; 6] = [
    "farm.launch_ms",
    "farm.execute_ms.p50",
    "farm.execute_ms.p95",
    "farm.execute_ms.n",
    "farm.tax_ms.p50",
    "farm.share",
];
const SERVE: [&str; 7] = [
    "serve.eval_ms.p50",
    "serve.eval_ms.n",
    "serve.offered",
    "serve.rejected",
    "serve.shed",
    "serve.share",
    "workload.arrivals_ms",
];

/// Measure every layer of the traced pass `it`, whose objective spans are
/// in `log` under `root`.
pub(crate) fn measure(pass: &Pass, it: &Iteration, log: &SpanLog, root: usize) -> Layers {
    let mut layers = Layers::default();
    // Worker time: every evaluation slot for the whole wall.
    let worker_ms = it.wall_s * 1e3 * MAX_CONCURRENT as f64;
    let scratch = pass.dir.join("layers");
    // Shares of worker time the layers account for; the rest is `other`.
    let mut accounted = it.setup_s / it.wall_s;
    let result = match &it.detail {
        Detail::Study { summary, tracer } => {
            let Some(summary) = summary else {
                layers
                    .problems
                    .push("no summary to measure layers on".to_string());
                return layers;
            };
            let spec = StudySpec::of(pass.workload, pass.size).expect("a study workload");
            let trials = summary.analysis.trials();
            if spec.durable {
                durable_layers(
                    pass,
                    &spec,
                    summary,
                    tracer.as_ref(),
                    log,
                    root,
                    &scratch,
                    worker_ms,
                    &mut layers,
                )
            } else {
                let evals: Vec<Span> = log.with(|s| {
                    s.iter()
                        .filter(|s| s.name == "plantnet.eval")
                        .cloned()
                        .collect()
                });
                engine_layers(&evals, worker_ms, &mut layers);
                let gaps = per_thread_gaps(&evals, |s| (s.start_ns, s.end_ns));
                layers.series(TUNE, &gaps);
                let history: Vec<(Point, f64)> = trials
                    .iter()
                    .map(|t| (t.config.clone(), t.value().unwrap_or(f64::NAN)))
                    .collect();
                let opt = BayesOpt::new(summary_space(summary), pass.seed)
                    .acq_func(Acquisition::GpHedge)
                    .initial_point_generator(InitialDesign::Lhs)
                    .n_initial_points(spec.initial);
                optim_replay(vec![(opt, history)], log, root, worker_ms, &mut layers);
                layers.idle(&JOURNAL);
                layers.idle(&ARCHIVE_TRACE);
                layers.idle(&FARM);
                layers.idle(&SERVE);
                Ok(())
            }
        }
        Detail::Serve { rows } => {
            serve_layers(pass, rows, log, root, &scratch, worker_ms, &mut layers)
        }
    };
    if let Err(e) = result {
        layers.problems.push(e);
    }
    for share in [
        "plantnet.busy_share",
        "optim.share",
        "archive.share",
        "journal.share",
        "farm.share",
        "serve.share",
    ] {
        accounted += layers.values.get(share).copied().unwrap_or(0.0);
    }
    // Archive and trace writes run once on the driving thread, with every
    // evaluation slot idle.
    for once in ["archive.write_ms", "trace.save_ms"] {
        accounted += layers.values.get(once).copied().unwrap_or(0.0) / (it.wall_s * 1e3);
    }
    layers.set("other.share", 1.0 - accounted);
    layers
}

/// `plantnet` and `des` from evaluation spans.
fn engine_layers(evals: &[Span], worker_ms: f64, layers: &mut Layers) {
    let ms: Vec<f64> = evals.iter().map(Span::ms).collect();
    let total_ms: f64 = ms.iter().sum();
    let requests: u64 = evals.iter().map(|s| s.count("sim_requests")).sum();
    let events: u64 = evals.iter().map(|s| s.count("des_events")).sum();
    layers.series([PLANTNET[0], PLANTNET[1], PLANTNET[2]], &ms);
    layers.set("plantnet.busy_share", total_ms / worker_ms);
    layers.set("plantnet.sim_requests", requests as f64);
    layers.set(
        "plantnet.us_per_request",
        total_ms * 1e3 / requests.max(1) as f64,
    );
    layers.set("des.events", events as f64);
    layers.set("des.ns_per_event", total_ms * 1e6 / events.max(1) as f64);
}

/// Per worker thread, the time from one evaluation's end to that thread's
/// next evaluation's start: commit, tell, ask, journal and archive work on
/// the critical path. `bounds` gives a span's (start, end) in ns.
fn per_thread_gaps(spans: &[Span], bounds: impl Fn(&Span) -> (u64, u64)) -> Vec<f64> {
    let mut by_thread: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        by_thread
            .entry(span.count("thread"))
            .or_default()
            .push(bounds(span));
    }
    let mut gaps = Vec::new();
    for spans in by_thread.values_mut() {
        spans.sort_unstable();
        for pair in spans.windows(2) {
            gaps.push(pair[1].0.saturating_sub(pair[0].1) as f64 / 1e6);
        }
    }
    gaps
}

/// The study's search space, built by the manager from the run's conf.
fn summary_space(summary: &e2c_core::OptimizationSummary) -> Space {
    e2c_core::OptimizationManager::new(summary.conf.clone()).space()
}

/// Replay committed values, in commit order, through fresh optimizers:
/// `max_concurrent` asks in flight, then one tell and one ask per commit,
/// so every ask fits the surrogate at the run's own history size. Each
/// optimizer is built the way the run built its own, with the run's seed,
/// so every ask must give back the point the run committed; the first
/// divergence of a study is reported. The replay tells its own asked
/// points, keeping the in-flight set as small as the run's.
fn optim_replay(
    studies: Vec<(BayesOpt, Vec<(Point, f64)>)>,
    log: &SpanLog,
    root: usize,
    worker_ms: f64,
    layers: &mut Layers,
) {
    let replay = log.open("optim.replay", Some(root));
    let parent = Some(replay);
    for (study, (mut opt, values)) in studies.into_iter().enumerate() {
        let mut inflight: std::collections::VecDeque<Point> = Default::default();
        let n = values.len();
        let mut asked = 0;
        while asked < MAX_CONCURRENT.min(n) {
            inflight.push_back(log.time("optim.ask", parent, || opt.ask()));
            asked += 1;
        }
        let mut diverged = false;
        for (trial, (committed, value)) in values.into_iter().enumerate() {
            let point = inflight.pop_front().expect("an ask per commit");
            if !diverged && point != committed {
                layers.problems.push(format!(
                    "optimizer replay of study {study} diverged from the run at trial {trial}: \
                     asked {point:?}, the run committed {committed:?}"
                ));
                diverged = true;
            }
            if value.is_finite() {
                log.time("optim.tell", parent, || opt.tell(point, value));
            }
            if asked < n {
                inflight.push_back(log.time("optim.ask", parent, || opt.ask()));
                asked += 1;
            }
        }
    }
    log.close(replay);
    let asks = log.durations_ms("optim.ask");
    let tells = log.durations_ms("optim.tell");
    layers.series([OPTIM[0], OPTIM[1], OPTIM[2]], &asks);
    layers.set("optim.tell_ms.p50", median(&tells));
    layers.set(
        "optim.share",
        (asks.iter().sum::<f64>() + tells.iter().sum::<f64>()) / worker_ms,
    );
}

/// The journal layer: read the run's WALs back, re-append every record
/// to a scratch WAL (fsync'd, as the run does), and round-trip each
/// run-journal record through the wire codec. `serving_wal` holds
/// rendered CSV rows, not run events: it is re-appended and counted, not
/// decoded. Returns the events of each of `run_wals`.
#[allow(clippy::too_many_arguments)]
fn journal_layers(
    serving_wal: Option<&Path>,
    run_wals: &[PathBuf],
    trials: u64,
    scratch: &Path,
    log: &SpanLog,
    root: usize,
    worker_ms: f64,
    layers: &mut Layers,
) -> Result<Vec<Vec<RunEvent>>, String> {
    let replay = log.open("journal.replay", Some(root));
    let parent = Some(replay);
    let (mut records_total, mut bytes) = (0u64, 0u64);
    let (mut codec_ns, mut codec_records) = (0u128, 0u64);
    let mut per_wal_events = Vec::new();
    let wals = serving_wal
        .map(|p| (p, false))
        .into_iter()
        .chain(run_wals.iter().map(|p| (p.as_path(), true)));
    for (i, (path, run_events)) in wals.enumerate() {
        let records =
            e2c_journal::read_records(path).map_err(|e| format!("{}: {e}", path.display()))?;
        bytes += std::fs::metadata(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        records_total += records.len() as u64;
        let mut wal = e2c_journal::Wal::create(&scratch.join(format!("replay-{i}.wal")))
            .map_err(|e| format!("scratch WAL: {e}"))?;
        for record in &records {
            log.time("journal.append", parent, || wal.append(record))
                .map_err(|e| format!("scratch WAL append: {e}"))?;
        }
        if !run_events {
            continue;
        }
        let mut events = Vec::new();
        for record in &records {
            let Ok(line) = std::str::from_utf8(record) else {
                layers.problems.push(format!(
                    "{}: journal record is not UTF-8: {record:?}",
                    path.display()
                ));
                continue;
            };
            let start = clock::now();
            let decoded = RunEvent::parse(line).map(|event| {
                let rendered = event.to_line();
                (event, rendered)
            });
            codec_ns += start.elapsed().as_nanos();
            codec_records += 1;
            let Ok((event, rendered)) = decoded else {
                layers.problems.push(format!(
                    "{}: journal record does not decode: {line:?}",
                    path.display()
                ));
                continue;
            };
            if rendered != line {
                layers.problems.push(format!(
                    "{}: journal record does not re-encode to its own bytes: {line:?}",
                    path.display()
                ));
            }
            events.push(event);
        }
        per_wal_events.push(events);
    }
    log.close(replay);
    let appends = log.durations_ms("journal.append");
    layers.set(
        "journal.records_per_trial",
        records_total as f64 / trials.max(1) as f64,
    );
    layers.set(
        "journal.bytes_per_trial",
        bytes as f64 / trials.max(1) as f64,
    );
    layers.series([JOURNAL[2], JOURNAL[3], JOURNAL[4]], &appends);
    layers.set(
        "journal.codec_us",
        codec_ns as f64 / 1e3 / codec_records.max(1) as f64,
    );
    layers.set("journal.share", appends.iter().sum::<f64>() / worker_ms);
    Ok(per_wal_events)
}

#[allow(clippy::too_many_arguments)]
fn durable_layers(
    pass: &Pass,
    spec: &StudySpec,
    summary: &e2c_core::OptimizationSummary,
    tracer: Option<&e2c_trace::Tracer>,
    log: &SpanLog,
    root: usize,
    scratch: &Path,
    worker_ms: f64,
    layers: &mut Layers,
) -> Result<(), String> {
    let trials = summary.analysis.trials();
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    journal_layers(
        None,
        &[pass.dir.join("journal").join("run.wal")],
        trials.len() as u64,
        scratch,
        log,
        root,
        worker_ms,
        layers,
    )?;

    let archive = scratch.join("archive");
    let write = clock::now();
    summary
        .write_archive(&archive)
        .and_then(|()| e2c_tune::TrialLogger::new(&archive.join("trials"))?.write_all(trials))
        .map_err(|e| format!("archive: {e}"))?;
    log.record("archive.write", Some(root), write, clock::now(), Vec::new());
    // Each evaluation's own record, written on the worker thread that ran
    // it: a directory, then an atomic file write.
    for t in trials {
        let dir = archive.join("evals").join(format!("trial_{}", t.id));
        log.time("archive.eval", Some(root), || {
            std::fs::create_dir_all(&dir).and_then(|()| {
                e2c_core::archive::write_evaluation(
                    &dir,
                    t.id,
                    &t.config,
                    t.value().unwrap_or(f64::NAN),
                )
            })
        })
        .map_err(|e| format!("archive evaluation: {e}"))?;
    }
    let eval_writes = log.durations_ms("archive.eval");
    layers.set("archive.eval_ms.p50", median(&eval_writes));
    layers.set("archive.share", eval_writes.iter().sum::<f64>() / worker_ms);
    let tracer = tracer.ok_or("the durable study ran untraced")?;
    let save = clock::now();
    tracer
        .save(&scratch.join("trace.jsonl"))
        .map_err(|e| format!("trace save: {e}"))?;
    log.record(
        "trace.save",
        Some(root),
        save,
        clock::now(),
        vec![("events", tracer.len() as u64)],
    );
    layers.set("archive.write_ms", log.durations_ms("archive.write")[0]);
    layers.set("trace.events", tracer.len() as f64);
    layers.set("trace.save_ms", log.durations_ms("trace.save")[0]);

    // Farm: launch, then each committed point through a worker and in
    // process; the values must agree to the bit.
    let farm_replay = log.open("farm.replay", Some(root));
    let farm_span = Some(farm_replay);
    let fs = e2c_tune::FarmSpec::new(
        pass.worker_bin.to_path_buf(),
        spec.worker_args(),
        MAX_CONCURRENT,
        pass.seed,
    );
    let farm = log.time("farm.launch", farm_span, || {
        e2c_tune::WorkerFarm::launch(fs)
    })?;
    let mut evals = Vec::new();
    let mut taxes = Vec::new();
    for t in trials {
        let start = clock::now();
        let outcome = farm
            .execute(t.id, 0, &t.config, Some(&e2c_trace::Tracer::new()))
            .map_err(|e| format!("farm execute trial {}: {e}", t.id))?;
        let farmed_at = clock::now();
        log.record(
            "farm.execute",
            farm_span,
            start,
            farmed_at,
            vec![("trial", t.id)],
        );
        let farmed = match outcome {
            e2c_tune::FarmOutcome::Value { value, .. } => value,
            e2c_tune::FarmOutcome::Panicked { payload } => {
                return Err(format!("farm trial {} panicked: {payload}", t.id))
            }
        };
        let tracer = e2c_trace::Tracer::new();
        let m = evaluate(
            &t.config,
            t.id,
            spec.duration,
            spec.clients,
            Some(tracer.clone()),
        );
        let end = clock::now();
        let id = log.record(
            "plantnet.eval",
            farm_span,
            farmed_at,
            end,
            vec![
                ("trial", t.id),
                ("des_events", des_events(&tracer)),
                ("sim_requests", m.runs.iter().map(|r| r.completed).sum()),
            ],
        );
        let eval = log.with(|s| s[id].clone());
        taxes.push((farmed_at - start).as_secs_f64() * 1e3 - eval.ms());
        evals.push(eval);
        let committed = t.value().unwrap_or(f64::NAN);
        if farmed.to_bits() != m.response.mean.to_bits() || farmed.to_bits() != committed.to_bits()
        {
            layers.problems.push(format!(
                "trial {}: farm.execute gave {farmed:?}, in process {:?}, committed {committed:?}",
                t.id, m.response.mean
            ));
        }
    }
    drop(farm);
    log.close(farm_replay);
    engine_layers(&evals, worker_ms, layers);
    let executes = log.durations_ms("farm.execute");
    layers.set("farm.launch_ms", log.durations_ms("farm.launch")[0]);
    layers.series([FARM[1], FARM[2], FARM[3]], &executes);
    layers.set("farm.tax_ms.p50", median(&taxes));
    layers.set("farm.share", taxes.iter().sum::<f64>() / worker_ms);

    // The farm hands results back on the tuner's threads: a thread's next
    // evaluation began its attempt's recorded duration before it returned.
    let secs: BTreeMap<u64, f64> = trials
        .iter()
        .filter_map(|t| Some((t.id, t.attempts.last()?.secs)))
        .collect();
    let returns: Vec<Span> = log.with(|s| {
        s.iter()
            .filter(|s| s.name == "tune.return")
            .cloned()
            .collect()
    });
    let gaps = per_thread_gaps(&returns, |s| {
        let attempt_ns = (secs.get(&s.count("trial")).copied().unwrap_or(0.0) * 1e9) as u64;
        (s.start_ns.saturating_sub(attempt_ns), s.start_ns)
    });
    layers.series(TUNE, &gaps);
    // Evolutionary search: no surrogate to fit.
    layers.idle(&OPTIM);
    layers.idle(&SERVE);
    Ok(())
}

fn serve_layers(
    pass: &Pass,
    rows: &[e2c_core::EpochRow],
    log: &SpanLog,
    root: usize,
    scratch: &Path,
    worker_ms: f64,
    layers: &mut Layers,
) -> Result<(), String> {
    let cfg = crate::workloads::serving_config(pass.size, pass.seed, &pass.dir);
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let journal = cfg.journal_dir.clone().expect("journaled");
    let run_wals: Vec<PathBuf> = (0..cfg.epochs)
        .map(|e| journal.join(format!("epoch_{e:02}")).join("run.wal"))
        .collect();
    let trials = (cfg.epochs * cfg.samples) as u64;
    let serving_wal = journal.join("serving.wal");
    let events = journal_layers(
        Some(&serving_wal),
        &run_wals,
        trials,
        scratch,
        log,
        root,
        worker_ms,
        layers,
    )?;

    // Each epoch's searcher, built as `run_serving` builds it and seeded
    // with the seed its journal's meta record carries, replays that
    // epoch's committed values in commit order.
    let studies = events
        .iter()
        .enumerate()
        .map(|(epoch, events)| {
            let seed = events
                .iter()
                .find_map(|e| match e {
                    RunEvent::Meta { fingerprint, .. } => fingerprint
                        .lines()
                        .find_map(|l| l.strip_prefix("seed=")?.parse::<u64>().ok()),
                    _ => None,
                })
                .ok_or_else(|| format!("epoch {epoch}: no seed in the journal's meta record"))?;
            let asked: BTreeMap<u64, Point> = events
                .iter()
                .filter_map(|e| match e {
                    RunEvent::Ask { trial, config } => Some((*trial, config.clone())),
                    _ => None,
                })
                .collect();
            let values = events
                .iter()
                .filter_map(|e| match e {
                    RunEvent::Tell {
                        trial, feedback, ..
                    } => Some((asked.get(trial)?.clone(), *feedback)),
                    _ => None,
                })
                .collect();
            let opt = BayesOpt::new(Space::plantnet(), seed)
                .acq_func(Acquisition::Ei)
                .initial_point_generator(InitialDesign::Lhs)
                .n_initial_points(cfg.samples.clamp(1, 4));
            Ok((opt, values))
        })
        .collect::<Result<_, String>>()?;
    optim_replay(studies, log, root, worker_ms, layers);

    // Serving engine: each epoch's final evaluation again, at its rate and
    // tuned configuration; and the arrival thinning on its own.
    let policy = plantnet::OverloadPolicy {
        queue_bound: cfg.queue_bound,
        shed_after: cfg.shed_after,
        slo: cfg.slo,
    };
    let replay = log.open("serve.replay", Some(root));
    let parent = Some(replay);
    let mut evals = Vec::new();
    let mut arrivals = Vec::new();
    let mut events_total = 0u64;
    for row in rows {
        let schedule = e2c_workload::RateSchedule::constant(row.rate, cfg.epoch_duration)
            .map_err(|e| format!("epoch {}: {e}", row.epoch))?;
        let start = clock::now();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(pass.seed);
        std::hint::black_box(schedule.arrivals(&mut rng));
        arrivals.push(start.elapsed().as_secs_f64() * 1e3);
        let tracer = e2c_trace::Tracer::new();
        let spec = plantnet::sim::ExperimentSpec::serving(row.config, schedule.horizon());
        let start = clock::now();
        let m = plantnet::Experiment::run_serving_traced(
            spec,
            &schedule,
            Some(policy),
            pass.seed ^ row.epoch as u64,
            Some(tracer.clone()),
        );
        let end = clock::now();
        let events = des_events(&tracer);
        events_total += events;
        let offered = m.overload.map_or(0, |o| o.offered);
        let id = log.record(
            "serve.eval",
            parent,
            start,
            end,
            vec![
                ("epoch", row.epoch as u64),
                ("des_events", events),
                ("offered", offered),
            ],
        );
        evals.push(log.with(|s| s[id].ms()));
    }
    let schedule_start = clock::now();
    std::hint::black_box(
        e2c_workload::serving_schedule(
            &e2c_workload::seasonal::GrowthModel::default(),
            cfg.first_year,
            cfg.epochs,
            cfg.epoch_duration,
            cfg.scale,
        )
        .map_err(|e| format!("serving schedule: {e}"))?,
    );
    let schedule_ms = schedule_start.elapsed().as_secs_f64() * 1e3;
    log.close(replay);
    let eval_ms: f64 = evals.iter().sum();
    layers.set("serve.eval_ms.p50", median(&evals));
    layers.set("serve.eval_ms.n", evals.len() as f64);
    layers.set(
        "serve.offered",
        rows.iter().map(|r| r.offered).sum::<u64>() as f64,
    );
    layers.set(
        "serve.rejected",
        rows.iter().map(|r| r.rejected).sum::<u64>() as f64,
    );
    layers.set(
        "serve.shed",
        rows.iter().map(|r| r.shed).sum::<u64>() as f64,
    );
    // Every trial and each epoch's final evaluation run the engine on
    // the epoch's schedule once.
    layers.set(
        "serve.share",
        eval_ms * (cfg.samples + 1) as f64 / worker_ms,
    );
    layers.set(
        "workload.arrivals_ms",
        median(&arrivals) + schedule_ms / cfg.epochs as f64,
    );
    layers.set("des.events", events_total as f64);
    layers.set(
        "des.ns_per_event",
        eval_ms * 1e6 / events_total.max(1) as f64,
    );
    // The tuner's objective and archive writes are internal to the
    // serving loop: not observable from outside.
    layers.idle(&PLANTNET);
    layers.idle(&TUNE);
    layers.idle(&ARCHIVE_TRACE);
    layers.idle(&FARM);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run journal holding `records`, plus a serving journal holding one
    /// CSV row; returns the problems the journal layer reports.
    fn journal_problems(name: &str, records: &[&[u8]]) -> Vec<String> {
        let dir = std::env::temp_dir().join(format!("e2ebench-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let run_wal = dir.join("run.wal");
        let mut wal = e2c_journal::Wal::create(&run_wal).unwrap();
        for record in records {
            wal.append(record).unwrap();
        }
        let serving_wal = dir.join("serving.wal");
        e2c_journal::Wal::create(&serving_wal)
            .unwrap()
            .append(b"0,2017-01,1.5")
            .unwrap();
        let log = SpanLog::new();
        let root = log.open("run", None);
        let mut layers = Layers::default();
        let events = journal_layers(
            Some(&serving_wal),
            &[run_wal],
            1,
            &dir,
            &log,
            root,
            1.0,
            &mut layers,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            layers.values["journal.records_per_trial"],
            records.len() as f64 + 1.0
        );
        assert_eq!(events.len(), 1);
        layers.problems
    }

    #[test]
    fn run_journal_records_must_decode() {
        let meta = RunEvent::meta("seed=7").to_line();
        let ask = RunEvent::Ask {
            trial: 0,
            config: vec![20.0, 30.0, 40.0, 5.0],
        }
        .to_line();
        assert!(journal_problems("good", &[meta.as_bytes(), ask.as_bytes()]).is_empty());
        let garbled = journal_problems("garbled", &[meta.as_bytes(), b"ask\tnot-a-trial"]);
        assert_eq!(garbled.len(), 1, "{garbled:?}");
        assert!(garbled[0].contains("does not decode"));
        let binary = journal_problems("binary", &[meta.as_bytes(), &[0xff, 0xfe]]);
        assert_eq!(binary.len(), 1, "{binary:?}");
        assert!(binary[0].contains("not UTF-8"));
    }
}
