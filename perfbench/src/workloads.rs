//! The three workloads: their inputs, their timed reps and their traced
//! runs.
//!
//! * `search-w1` — NASAIC on the built-in W1 at the paper budget (500
//!   episodes x (1 + 10) designs).  The RL controller carries the wall.
//! * `sweep-gen96` — Monte-Carlo sampling of a generated ~96-layer,
//!   4-sub-accelerator scenario (200 x 11 designs, beam tier).  No
//!   controller: the scheduler and cost model carry the wall.
//! * `serve-durable` — an in-process daemon with a state directory (job
//!   journal, per-episode checkpoints) serving two closed-loop clients
//!   that alternate W1/W2 jobs at 40 episodes over 8 seeds.  The shared
//!   engine is warm, so reads hit; journal and checkpoint writes sit
//!   beside them.

use crate::layers::{self, CheckpointLayer, Job, ServeLayer, TimedSink, Traced};
use crate::pins::Pins;
use crate::{
    median, median_setup_s, metric, peak_rss_mb, quantile, timed_reps, HasWall, Metric, RunResult,
    PINNED_SEEDS, STATE_ROOT,
};
use nasaic_core::engine::EngineConfig;
use nasaic_core::prelude::*;
use nasaic_core::scenario::generate::GeneratorSpec;
use nasaic_core::scenario::value::ConfigValue;
use nasaic_serve::{Client, Daemon, DaemonHandle, Request, ServeConfig};
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Generated-scenario shape of `sweep-gen96`: requested layers and
/// sub-accelerators (`GeneratorSpec::sized`).
const SWEEP_LAYERS: usize = 100;
const SWEEP_SUBS: usize = 4;
const SWEEP_EPISODES: usize = 200;

const SERVE_CLIENTS: usize = 2;
/// 2 x 50 = 100 jobs per rep, so the p90 has at least ten samples beyond it.
const SERVE_JOBS_PER_CLIENT: usize = 50;
/// The traced run's reps are half as long: its per-layer numbers need no
/// p90, and a traced pair must fit the run's time limit on a slow host.
const TRACED_JOBS_PER_CLIENT: usize = 25;
const SERVE_SEEDS: u64 = 8;
const SERVE_EPISODES: usize = 40;
const SERVE_SCENARIOS: [&str; 2] = ["w1", "w2"];

/// Checkpoint interval of the layer pass's re-run of a search workload
/// (ten checkpoints per run; the daemon checkpoints every episode).
fn checkpoint_every(workload: &str) -> usize {
    match workload {
        "search-w1" => 50,
        _ => 220,
    }
}

fn builtin(name: &str) -> Result<Scenario, String> {
    registry::get(name).ok_or_else(|| format!("built-in scenario {name} is missing"))
}

fn search_scenario(workload: &str, seed: u64) -> Result<Scenario, String> {
    match workload {
        "search-w1" => {
            let mut scenario = builtin("w1")?;
            scenario.seed = seed;
            scenario.search.algorithm = Algorithm::Nasaic;
            scenario.search.episodes = 500;
            scenario.search.hardware_trials = 10;
            Ok(scenario)
        }
        "sweep-gen96" => {
            let mut scenario = GeneratorSpec::sized(SWEEP_LAYERS, SWEEP_SUBS, seed)
                .generate()
                .map_err(|e| format!("sweep-gen96 seed {seed}: {e}"))?
                .scenario;
            scenario.search.algorithm = Algorithm::MonteCarlo;
            scenario.search.episodes = SWEEP_EPISODES;
            scenario.search.hardware_trials = 10;
            Ok(scenario)
        }
        other => Err(format!("{other} is not a search workload")),
    }
}

fn serve_scenario(name: &str, seed: u64) -> Result<Scenario, String> {
    let mut scenario = builtin(name)?;
    scenario.seed = seed;
    scenario.search.episodes = SERVE_EPISODES;
    Ok(scenario)
}

/// Client `client`'s `j`-th job: each client alternates W1/W2, out of
/// phase with the other, over the input seed's eight job seeds.
fn serve_job(seed: u64, client: usize, j: usize) -> (&'static str, u64) {
    (
        SERVE_SCENARIOS[(j + client) % 2],
        seed * SERVE_SEEDS + (j as u64 % SERVE_SEEDS),
    )
}

fn pin_key(workload: &str, seed: u64, scenario: &Scenario) -> String {
    if workload == "serve-durable" {
        format!("{workload}/s{seed}/{}-{}", scenario.name, scenario.seed)
    } else {
        format!("{workload}/s{seed}")
    }
}

/// Every distinct operation a workload runs for an input seed, keyed by
/// its pin.
pub fn operations(workload: &str, seed: u64) -> Result<Vec<(String, Scenario)>, String> {
    let scenarios = if workload == "serve-durable" {
        let mut jobs = Vec::new();
        for j in 0..SERVE_SEEDS {
            for name in SERVE_SCENARIOS {
                jobs.push(serve_scenario(name, seed * SERVE_SEEDS + j)?);
            }
        }
        jobs
    } else {
        vec![search_scenario(workload, seed)?]
    };
    Ok(scenarios
        .into_iter()
        .map(|s| (pin_key(workload, seed, &s), s))
        .collect())
}

pub fn run(
    workload: &str,
    seed: u64,
    budget: Duration,
    trace: bool,
    pins: &Pins,
) -> Result<RunResult, String> {
    match (workload, trace) {
        ("serve-durable", false) => serve_e2e(seed, budget, pins),
        ("serve-durable", true) => serve_traced(seed, budget, pins),
        (_, false) => search_e2e(workload, seed, budget, pins),
        (_, true) => search_traced(workload, seed, budget, pins),
    }
}

/// The default engine with one worker thread, for every search run.  The
/// engine's default (threads = nproc) spawns and wakes scoped workers for
/// every per-episode batch, and on a shared 2-core host how long that
/// takes follows the other tenants' load: in interleaved runs the default
/// engine's wall spread two to seven times as wide as one thread's.
/// Attribution needs one thread too (the per-component spans of parallel
/// workers overlap), so untraced and traced runs use the same engine.
const ONE_THREAD_ENGINE: EngineConfig = EngineConfig {
    threads: 1,
    caching: true,
    accuracy_capacity: 0,
    hardware_capacity: 0,
};

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn ratio(ok: u64, attempted: u64) -> f64 {
    ok as f64 / attempted.max(1) as f64
}

// ---------------------------------------------------------------------------
// search-w1 / sweep-gen96
// ---------------------------------------------------------------------------

/// A search workload's inputs for `--seed n`: the pinned seeds
/// `n, n+1, …, n+9` (mod [`PINNED_SEEDS`]).  Search wall varies from seed
/// to seed with the trajectory (how many designs miss the cache, how many
/// episodes are pruned), so every rep runs the whole batch and the
/// reported numbers do not hinge on one seed.
const SEARCH_BATCH: u64 = 10;

struct SearchInput {
    key: String,
    scenario: Scenario,
}

fn search_inputs(workload: &str, seed: u64) -> Result<Vec<SearchInput>, String> {
    (0..SEARCH_BATCH)
        .map(|i| {
            let seed = (seed + i) % PINNED_SEEDS;
            let scenario = search_scenario(workload, seed)?;
            Ok(SearchInput {
                key: pin_key(workload, seed, &scenario),
                scenario,
            })
        })
        .collect()
}

struct SearchRep {
    wall_s: f64,
    best: Option<f64>,
    correct: bool,
    /// The registry reading and the outcome (traced reps only).
    traced: Option<(Traced, SearchOutcome)>,
}

impl HasWall for SearchRep {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }
}

/// One search on a fresh (cold) one-thread engine: the cache misses a
/// one-shot `nasaic run` pays.
fn search_rep(input: &SearchInput, traced: bool, pins: &Pins) -> SearchRep {
    let scenario = &input.scenario;
    let engine = scenario.engine_with_config(ONE_THREAD_ENGINE);
    nasaic_telemetry::set_enabled(traced);
    if traced {
        nasaic_telemetry::global().reset();
    }
    let start = Instant::now();
    let outcome = scenario.run_algorithm_with_engine(scenario.search.algorithm, &engine);
    let wall_s = start.elapsed().as_secs_f64();
    let reading = traced.then(|| Traced::collect(wall_s * 1e3, engine.stats().hardware_misses));
    nasaic_telemetry::set_enabled(false);
    let report = scenario.report_for_outcome(scenario.search.algorithm, &outcome);
    SearchRep {
        wall_s,
        best: outcome
            .best
            .as_ref()
            .map(|b| b.evaluation.weighted_accuracy),
        correct: pins.matches(&input.key, &report.to_value()),
        traced: reading.map(|reading| (reading, outcome)),
    }
}

/// Set-up: build (or generate) the batch's scenarios and run a
/// two-episode warm-up search, so lazy initialisation is not timed in the
/// first rep.  One set-up takes only 15–100 ms, so the median of fifteen is
/// reported.
fn search_setup(workload: &str, seed: u64) -> Result<(f64, Vec<SearchInput>), String> {
    let inputs = search_inputs(workload, seed)?;
    let setup_s = median_setup_s(15, || {
        let mut batch = search_inputs(workload, seed)?;
        let warmup = &mut batch[0].scenario;
        warmup.search.episodes = 2;
        let engine = warmup.engine_with_config(ONE_THREAD_ENGINE);
        std::hint::black_box(warmup.run_algorithm_with_engine(warmup.search.algorithm, &engine));
        Ok(())
    })?;
    Ok((setup_s, inputs))
}

/// One rep is one search on a fresh engine, cycling through the batch.
/// The first batch always runs whole, so the outcome metrics are the
/// batch's; later searches fill the rest of the run, so a fast host
/// measures more searches instead of idling.  The timing metrics pool
/// every search of the run.
fn search_e2e(
    workload: &str,
    seed: u64,
    budget: Duration,
    pins: &Pins,
) -> Result<RunResult, String> {
    let (setup_s, inputs) = search_setup(workload, seed)?;
    let mut n = 0;
    let mut evaluations = 0;
    let mut peak_rss = None;
    let searches = timed_reps(budget, inputs.len(), || {
        let input = &inputs[n % inputs.len()];
        n += 1;
        evaluations += input.scenario.search.total_evaluations();
        let rep = search_rep(input, false, pins);
        if n == inputs.len() {
            peak_rss = Some(peak_rss_mb());
        }
        Ok(rep)
    })?;
    let walls: Vec<f64> = searches.iter().map(|s| s.wall_s).collect();
    let total_s: f64 = walls.iter().sum();
    let attempted = searches.len() as u64;
    let failed = searches.iter().filter(|s| !s.correct).count() as u64;
    let bests: Vec<f64> = searches[..inputs.len()]
        .iter()
        .filter_map(|s| s.best)
        .collect();
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_s", total_s / walls.len() as f64, "s"),
        metric("evals_per_s", evaluations as f64 / total_s, "1/s"),
        metric("best_weighted_accuracy", mean(&bests), "ratio"),
        metric("job_latency_p50_ms", quantile(&walls, 0.5) * 1e3, "ms"),
        metric("job_latency_p90_ms", quantile(&walls, 0.9) * 1e3, "ms"),
        metric("jobs_per_s", walls.len() as f64 / total_s, "1/s"),
        metric(
            "success_ratio",
            ratio(attempted - failed, attempted),
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss.unwrap_or_default(), "MB"),
    ];
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        engine_threads: 1,
        reps: searches.len(),
    })
}

/// Interleaved untraced/traced pairs over the batch (alternating which
/// goes first, so both sides see the same host noise), then the layer
/// pass on the last traced search.
fn search_traced(
    workload: &str,
    seed: u64,
    budget: Duration,
    pins: &Pins,
) -> Result<RunResult, String> {
    let (_, inputs) = search_setup(workload, seed)?;
    let mut n = 0;
    let mut last: Option<(&SearchInput, Traced, SearchOutcome)> = None;
    let mut readings = Vec::new();
    let pairs = timed_reps(budget, 2, || {
        let input = &inputs[n % inputs.len()];
        n += 1;
        let run = |traced| search_rep(input, traced, pins);
        let (plain, mut traced) = if n % 2 == 0 {
            let plain = run(false);
            (plain, run(true))
        } else {
            let traced = run(true);
            (run(false), traced)
        };
        let (reading, outcome) = traced.traced.take().expect("traced rep carries its trace");
        readings.push(reading.clone());
        last = Some((input, reading, outcome));
        Ok(Pair { plain, traced })
    })?;
    let mut failed = pairs
        .iter()
        .map(|p| u64::from(!p.plain.correct) + u64::from(!p.traced.correct))
        .sum::<u64>();
    let mut attempted = 2 * pairs.len() as u64;
    let (input, last_reading, last_outcome) = last.expect("at least two pairs ran");
    let scenario = &input.scenario;

    // Checkpoint layer: the same search once more through a timed file sink.
    let dir = state_dir("layer");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let sink = TimedSink::new(&dir.join("search.ckpt.json"), checkpoint_every(workload));
    let engine = scenario.engine_with_config(ONE_THREAD_ENGINE);
    let outcome = scenario.run_algorithm_checkpointed(
        scenario.search.algorithm,
        &engine,
        &NullObserver,
        None,
        &sink,
    );
    let checkpoint = sink.finish()?;
    attempted += 1;
    let report = scenario.report_for_outcome(scenario.search.algorithm, &outcome);
    failed += u64::from(!pins.matches(&input.key, &report.to_value()));

    // Serve layer: two searches of the batch through a one-worker daemon.
    let probe_ops: Vec<(String, Scenario)> = inputs[..SERVE_CLIENTS]
        .iter()
        .map(|i| (i.key.clone(), i.scenario.clone()))
        .collect();
    let (serve, probe) = serve_probe(&probe_ops, false, pins)?;
    attempted += probe.len() as u64;
    failed += failures(&probe);

    let jobs = [Job {
        scenario: scenario.clone(),
        outcome: last_outcome,
    }];
    let mut metrics = layers::layer_pass(&jobs, &last_reading)?;
    metrics.extend(shared_layer_metrics(
        &checkpoint,
        &serve,
        &Traced::median(readings.iter()),
    ));
    metrics.push(overhead_metric(
        pairs.iter().map(|p| (p.plain.wall_s, p.traced.wall_s)),
    ));
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        engine_threads: 1,
        reps: pairs.len(),
    })
}

struct Pair<R> {
    plain: R,
    traced: R,
}

impl<R: HasWall> HasWall for Pair<R> {
    fn wall_s(&self) -> f64 {
        self.plain.wall_s() + self.traced.wall_s()
    }
}

fn shared_layer_metrics(
    checkpoint: &CheckpointLayer,
    serve: &ServeLayer,
    traced: &Traced,
) -> Vec<Metric> {
    vec![
        metric("checkpoint.write_us", checkpoint.write_us, "us"),
        metric("checkpoint.bytes", checkpoint.bytes as f64, "bytes"),
        metric("checkpoint.writes", checkpoint.writes as f64, "count"),
        metric("serve.queue_wait_ms_p50", serve.queue_wait_ms_p50, "ms"),
        metric("serve.run_ms_p50", serve.run_ms_p50, "ms"),
        metric("serve.rejects", serve.rejects as f64, "count"),
        metric("traced.controller_share", traced.controller_share, "ratio"),
        metric("traced.evaluation_share", traced.evaluation_share, "ratio"),
        metric("traced.coverage", traced.coverage, "ratio"),
    ]
}

/// Traced wall over untraced wall: the median over interleaved pairs.
fn overhead_metric(pairs: impl Iterator<Item = (f64, f64)>) -> Metric {
    let ratios: Vec<f64> = pairs
        .map(|(plain, traced)| 100.0 * (traced - plain) / plain)
        .collect();
    metric("trace_overhead_pct", median(&ratios), "%")
}

// ---------------------------------------------------------------------------
// Daemon plumbing
// ---------------------------------------------------------------------------

struct Running {
    handle: DaemonHandle,
    addr: String,
}

fn start_daemon(state_dir: Option<PathBuf>, workers: usize) -> Result<Running, String> {
    let handle = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir,
        workers,
        job_threads: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let addr = handle.addr().to_string();
    Ok(Running { handle, addr })
}

fn request(addr: &str, request: &Request) -> Result<ConfigValue, String> {
    Client::connect(addr)
        .and_then(|mut client| client.request(request))
        .map_err(|e| format!("daemon request: {e}"))
}

impl Running {
    fn stop(self) -> Result<(), String> {
        request(&self.addr, &Request::Shutdown)?;
        self.handle
            .join()
            .map(|_| ())
            .map_err(|e| format!("daemon shutdown: {e}"))
    }
}

fn rows(addr: &str) -> Result<Vec<ConfigValue>, String> {
    Ok(request(addr, &Request::ShowJobs)?
        .get("jobs")
        .and_then(ConfigValue::as_array)
        .map(<[ConfigValue]>::to_vec)
        .unwrap_or_default())
}

fn row_ms(rows: &[ConfigValue], field: &str) -> Vec<f64> {
    rows.iter()
        .filter_map(|row| row.get(field).and_then(ConfigValue::as_integer))
        .map(|ms| ms as f64)
        .collect()
}

/// The serve-layer probe: `ops` split between two closed-loop clients of
/// a fresh daemon with one worker (durable when `durable`), so each job
/// queues behind the other client's.  Returns the `show jobs` numbers and
/// the jobs' results.
fn serve_probe(
    ops: &[(String, Scenario)],
    durable: bool,
    pins: &Pins,
) -> Result<(ServeLayer, Vec<JobResult>), String> {
    let dir = durable.then(|| state_dir("probe"));
    let daemon = start_daemon(dir.clone(), 1)?;
    nasaic_telemetry::set_enabled(false);
    let addr = daemon.addr.as_str();
    let results: Vec<JobResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|client| {
                let mine: Vec<(String, ConfigValue)> = ops
                    .iter()
                    .skip(client)
                    .step_by(SERVE_CLIENTS)
                    .map(|(key, scenario)| (key.clone(), scenario.to_value()))
                    .collect();
                scope.spawn(move || submit_all(addr, mine, pins))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let rows = rows(addr)?;
    daemon.stop()?;
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let layer = ServeLayer {
        queue_wait_ms_p50: median(&row_ms(&rows, "queue_wait_ms")),
        run_ms_p50: median(&row_ms(&rows, "run_ms")),
        rejects: results
            .iter()
            .filter(|r| matches!(r, JobResult::Rejected))
            .count() as u64,
    };
    Ok((layer, results))
}

/// Failed, rejected and wrong-outcome jobs among `results`.
fn failures(results: &[JobResult]) -> u64 {
    results
        .iter()
        .filter(|r| !matches!(r, JobResult::Finished { correct: true, .. }))
        .count() as u64
}

// ---------------------------------------------------------------------------
// serve-durable
// ---------------------------------------------------------------------------

enum JobResult {
    Finished {
        latency_ms: f64,
        best: Option<f64>,
        correct: bool,
    },
    Rejected,
    Failed,
}

fn state_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(STATE_ROOT).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One client's closed loop over its jobs `jobs`: submit, wait for the
/// final report, repeat.
fn client_loop(
    addr: &str,
    seed: u64,
    client: usize,
    jobs: Range<usize>,
    pins: &Pins,
) -> Vec<JobResult> {
    let jobs: Vec<(String, ConfigValue)> = jobs
        .map(|j| {
            let (name, job_seed) = serve_job(seed, client, j);
            let scenario = serve_scenario(name, job_seed).expect("built-in scenario");
            (
                pin_key("serve-durable", seed, &scenario),
                scenario.to_value(),
            )
        })
        .collect();
    submit_all(addr, jobs, pins)
}

/// Submit `jobs` (pin key, scenario value) one after another as watched
/// jobs over one connection, checking each report against its pin.
fn submit_all(addr: &str, jobs: Vec<(String, ConfigValue)>, pins: &Pins) -> Vec<JobResult> {
    let Ok(mut connection) = Client::connect(addr) else {
        return jobs.iter().map(|_| JobResult::Failed).collect();
    };
    jobs.into_iter()
        .map(|(key, value)| {
            let start = Instant::now();
            let Ok(response) = connection.submit_watch(value, |_| {}) else {
                return JobResult::Failed;
            };
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            if response.get("job").is_none() {
                return JobResult::Rejected;
            }
            match (
                response.get("state").and_then(ConfigValue::as_str),
                response.get("report"),
            ) {
                (Some("finished"), Some(report)) => JobResult::Finished {
                    latency_ms,
                    best: report
                        .get("best")
                        .and_then(|b| b.get("weighted_accuracy"))
                        .and_then(ConfigValue::as_float),
                    correct: pins.matches(&key, report),
                },
                _ => JobResult::Failed,
            }
        })
        .collect()
}

/// Every client's loop over `jobs`, concurrently; returns the results and
/// the wall of the whole batch.
fn run_clients(addr: &str, seed: u64, jobs: Range<usize>, pins: &Pins) -> (Vec<JobResult>, f64) {
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|client| {
                let jobs = jobs.clone();
                scope.spawn(move || client_loop(addr, seed, client, jobs, pins))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (results, start.elapsed().as_secs_f64())
}

/// A started durable daemon whose shared engines are warm: every distinct
/// job of the seed has run once.  A long-lived daemon serves from warm
/// engines, so the timed jobs do too.
struct WarmDaemon {
    daemon: Running,
    dir: PathBuf,
    warmup: Vec<JobResult>,
}

/// Start a durable daemon with a fresh state directory.
fn durable_daemon(name: &str, traced: bool) -> Result<(Running, PathBuf), String> {
    let dir = state_dir(name);
    let daemon = start_daemon(Some(dir.clone()), 2)?;
    // The daemon switches telemetry on for the process; untraced runs
    // measure with it off.  A traced daemon records from its first job.
    nasaic_telemetry::set_enabled(traced);
    nasaic_telemetry::global().reset();
    Ok((daemon, dir))
}

fn warm_up((daemon, dir): (Running, PathBuf), seed: u64, pins: &Pins) -> WarmDaemon {
    let (warmup, _) = run_clients(&daemon.addr, seed, 0..SERVE_SEEDS as usize, pins);
    WarmDaemon {
        daemon,
        dir,
        warmup,
    }
}

fn warm_daemon(seed: u64, name: &str, traced: bool, pins: &Pins) -> Result<WarmDaemon, String> {
    Ok(warm_up(durable_daemon(name, traced)?, seed, pins))
}

struct ServeRep {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    bests: Vec<f64>,
    attempted: u64,
    finished: u64,
    failed: u64,
    evaluations: u64,
    traced: Option<Traced>,
}

impl HasWall for ServeRep {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }
}

/// One rep on a warm daemon: `jobs_per_client` timed jobs from each of
/// the two closed-loop clients.
fn serve_rep(
    warm: WarmDaemon,
    seed: u64,
    jobs_per_client: usize,
    traced: bool,
    pins: &Pins,
) -> Result<ServeRep, String> {
    let addr = warm.daemon.addr.as_str();
    let (results, wall_s) = run_clients(addr, seed, 0..jobs_per_client, pins);
    let traced = if traced {
        let rows = rows(addr)?;
        let cache = request(addr, &Request::ShowCache)?;
        let misses = cache
            .get("engines")
            .and_then(ConfigValue::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|e| e.get("stats")?.get("hardware_misses")?.as_integer())
            .sum::<i64>() as u64;
        // Shares are of the jobs' run time (the workers' busy time),
        // warm-up included: its misses are the traced cost and HAP work.
        let run_ms: f64 = row_ms(&rows, "run_ms").iter().sum();
        Some(Traced::collect(run_ms, misses))
    } else {
        None
    };
    nasaic_telemetry::set_enabled(false);
    warm.daemon.stop()?;
    let _ = std::fs::remove_dir_all(&warm.dir);

    let per_job = serve_scenario("w1", 0)?.search.total_evaluations() as u64;
    let mut rep = ServeRep {
        wall_s,
        latencies_ms: Vec::new(),
        bests: Vec::new(),
        attempted: (warm.warmup.len() + results.len()) as u64,
        finished: 0,
        failed: 0,
        evaluations: 0,
        traced,
    };
    for (timed, result) in warm
        .warmup
        .into_iter()
        .map(|r| (false, r))
        .chain(results.into_iter().map(|r| (true, r)))
    {
        match result {
            JobResult::Finished {
                latency_ms,
                best,
                correct,
            } => {
                rep.failed += u64::from(!correct);
                if timed {
                    rep.finished += 1;
                    rep.evaluations += per_job;
                    rep.latencies_ms.push(latency_ms);
                    rep.bests.extend(best);
                }
            }
            JobResult::Rejected | JobResult::Failed => rep.failed += 1,
        }
    }
    Ok(rep)
}

fn serve_e2e(seed: u64, budget: Duration, pins: &Pins) -> Result<RunResult, String> {
    // Set-up: start a durable daemon until it answers a ping (median of
    // three starts), then warm one of them with every distinct job.
    let mut started = Vec::new();
    let start_s = median_setup_s(3, || {
        let daemon = durable_daemon(&format!("serve-{}", started.len()), false)?;
        request(&daemon.0.addr, &Request::Ping)?;
        started.push(daemon);
        Ok(())
    })?;
    let first = started.pop().expect("three daemons started");
    for (daemon, dir) in started {
        daemon.stop()?;
        let _ = std::fs::remove_dir_all(dir);
    }
    let warm_start = Instant::now();
    let mut warm = Some(warm_up(first, seed, pins));
    let setup_s = start_s + warm_start.elapsed().as_secs_f64();
    let mut n = 3;
    let mut peak_rss = None;
    let reps = timed_reps(budget, 1, || {
        let daemon = match warm.take() {
            Some(daemon) => daemon,
            None => {
                n += 1;
                warm_daemon(seed, &format!("serve-{n}"), false, pins)?
            }
        };
        let rep = serve_rep(daemon, seed, SERVE_JOBS_PER_CLIENT, false, pins)?;
        peak_rss.get_or_insert_with(peak_rss_mb);
        Ok(rep)
    })?;
    let latencies: Vec<f64> = reps.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    let bests: Vec<f64> = reps.iter().flat_map(|r| r.bests.clone()).collect();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let per_rep = |f: &dyn Fn(&ServeRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_s", per_rep(&|r| r.wall_s), "s"),
        metric(
            "evals_per_s",
            per_rep(&|r| r.evaluations as f64 / r.wall_s),
            "1/s",
        ),
        metric("best_weighted_accuracy", mean(&bests), "ratio"),
        metric("job_latency_p50_ms", quantile(&latencies, 0.5), "ms"),
        metric("job_latency_p90_ms", quantile(&latencies, 0.9), "ms"),
        metric(
            "jobs_per_s",
            per_rep(&|r| r.finished as f64 / r.wall_s),
            "1/s",
        ),
        metric(
            "success_ratio",
            ratio(attempted - failed, attempted),
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss.unwrap_or_default(), "MB"),
    ];
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        engine_threads: 1,
        reps: reps.len(),
    })
}

fn serve_traced(seed: u64, budget: Duration, pins: &Pins) -> Result<RunResult, String> {
    let mut n = 0;
    let pairs = timed_reps(budget, 1, || {
        n += 1;
        let first_traced = n % 2 == 1;
        let run = |traced: bool| {
            let daemon = warm_daemon(seed, &format!("serve-{n}-{traced}"), traced, pins)?;
            serve_rep(daemon, seed, TRACED_JOBS_PER_CLIENT, traced, pins)
        };
        let first = run(first_traced)?;
        let second = run(!first_traced)?;
        Ok(if first_traced {
            Pair {
                plain: second,
                traced: first,
            }
        } else {
            Pair {
                plain: first,
                traced: second,
            }
        })
    })?;
    let mut attempted: u64 = pairs
        .iter()
        .map(|p| p.plain.attempted + p.traced.attempted)
        .sum();
    let mut failed: u64 = pairs.iter().map(|p| p.plain.failed + p.traced.failed).sum();
    let last = &pairs[pairs.len() - 1].traced;
    let last_traced = last.traced.as_ref().expect("traced rep carries its trace");
    let traced = Traced::median(pairs.iter().filter_map(|p| p.traced.traced.as_ref()));

    // Checkpoint layer and layer-pass inputs: every distinct job once,
    // directly, through a timed file sink checkpointing every episode as
    // the daemon does.
    let dir = state_dir("layer");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let sink = TimedSink::new(&dir.join("job.ckpt.json"), 1);
    let ops = operations("serve-durable", seed)?;
    let mut jobs = Vec::new();
    for (key, scenario) in &ops {
        let outcome = scenario.run_algorithm_checkpointed(
            scenario.search.algorithm,
            &scenario.engine_with_config(ONE_THREAD_ENGINE),
            &NullObserver,
            None,
            &sink,
        );
        attempted += 1;
        let report = scenario.report_for_outcome(scenario.search.algorithm, &outcome);
        failed += u64::from(!pins.matches(key, &report.to_value()));
        jobs.push(Job {
            scenario: scenario.clone(),
            outcome,
        });
    }
    let checkpoint = sink.finish()?;

    // Serve layer: four of the distinct jobs through a durable one-worker
    // daemon.
    let (serve, probe) = serve_probe(&ops[..4], true, pins)?;
    attempted += probe.len() as u64;
    failed += failures(&probe);
    let mut metrics = layers::layer_pass(&jobs, last_traced)?;
    metrics.extend(shared_layer_metrics(&checkpoint, &serve, &traced));
    metrics.push(overhead_metric(
        pairs.iter().map(|p| (p.plain.wall_s, p.traced.wall_s)),
    ));
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        engine_threads: 1,
        reps: pairs.len(),
    })
}
