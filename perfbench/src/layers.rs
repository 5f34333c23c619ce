//! The layer pass: time calls into each crate's public functions on the
//! inputs a traced run produced, and check that the replay reproduces that
//! run before reporting its split.
//!
//! * `rl` — `Controller::sample` / `feedback` on the workload's segments.
//!   A NASAIC run is replayed exactly (same seed, same RNG stream, rewards
//!   from its `reward_history`), and the replayed candidates must equal the
//!   ones the run recorded.  A run without a controller (Monte-Carlo) feeds
//!   the controller its explored solutions' weighted accuracies instead.
//! * `engine` — `EvalEngine::evaluate_batch` on the candidates, batched as
//!   the run batched them, on a fresh engine per scenario.
//! * `cost` / `sched` — `WorkloadCosts::build` and `solve_with_policy` on
//!   every distinct hardware design the engine pass cached.
//! * `accuracy` — the accuracy oracle on every distinct architecture the
//!   engine pass cached.
//!
//! Consistency: the engine pass's hardware-cache misses must equal the
//! traced run's, and the cost builds and scheduler solves must equal the
//! traced run's `nasaic_eval_cost_model_wall_ns` and
//! `nasaic_eval_sched_solve_wall_ns` span counts; recomputed values must
//! match the cached ones bit for bit.  Any drift is an error: the benchmark
//! fails instead of reporting a wrong layer split.

use crate::{median, metric, Metric};
use nasaic_accel::{Accelerator, Dataflow, SubAccelerator};
use nasaic_core::checkpoint::{
    float_from_value, CheckpointSink, FileCheckpointSink, SearchCheckpoint,
};
use nasaic_core::engine::EngineConfig;
use nasaic_core::metrics::{self as core_metrics, ProfileBreakdown};
use nasaic_core::prelude::*;
use nasaic_core::scenario::value::ConfigValue;
use nasaic_core::selector::OptimizerSelector;
use nasaic_cost::WorkloadCosts;
use nasaic_rl::Controller;
use nasaic_sched::{solve_with_policy, HapProblem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One run the layer pass replays.
pub struct Job {
    pub scenario: Scenario,
    pub outcome: SearchOutcome,
}

/// What a traced run recorded in the telemetry registry.
#[derive(Clone)]
pub struct Traced {
    pub hardware_misses: u64,
    pub cost_spans: u64,
    pub sched_spans: u64,
    pub controller_share: f64,
    pub evaluation_share: f64,
    pub coverage: f64,
}

impl Traced {
    /// Read the registry after a traced run whose attributable wall was
    /// `wall_ms` and whose engines missed the hardware cache
    /// `hardware_misses` times.
    pub fn collect(wall_ms: f64, hardware_misses: u64) -> Self {
        let breakdown = ProfileBreakdown::collect(wall_ms);
        let share = |pick: &dyn Fn(&str) -> bool| {
            breakdown
                .components
                .iter()
                .filter(|c| pick(&c.name))
                .map(|c| c.wall_ms)
                .sum::<f64>()
                / wall_ms
        };
        Self {
            hardware_misses,
            cost_spans: core_metrics::eval_cost_model_wall().snapshot().count,
            sched_spans: core_metrics::eval_sched_solve_wall().snapshot().count,
            controller_share: share(&|name| name == "controller"),
            evaluation_share: share(&|name| name.starts_with("evaluation/")),
            coverage: breakdown.coverage,
        }
    }

    /// Median shares over several traced reps (counts from the first).
    pub fn median<'a>(reps: impl Iterator<Item = &'a Traced>) -> Self {
        let reps: Vec<&Traced> = reps.collect();
        let of = |f: fn(&Traced) -> f64| median(&reps.iter().map(|t| f(t)).collect::<Vec<_>>());
        Self {
            controller_share: of(|t| t.controller_share),
            evaluation_share: of(|t| t.evaluation_share),
            coverage: of(|t| t.coverage),
            ..reps[0].clone()
        }
    }
}

/// Per-layer numbers of the checkpoint writer.
pub struct CheckpointLayer {
    pub write_us: f64,
    pub bytes: u64,
    pub writes: u64,
}

/// Per-layer numbers of the daemon, from `show jobs` rows.
pub struct ServeLayer {
    pub queue_wait_ms_p50: f64,
    pub run_ms_p50: f64,
    pub rejects: u64,
}

/// A timing wrapper around [`FileCheckpointSink`]: times each write and
/// records the bytes it left on disk.
pub struct TimedSink {
    inner: FileCheckpointSink,
    path: PathBuf,
    nanos: AtomicU64,
    writes: AtomicU64,
    bytes: AtomicU64,
}

impl TimedSink {
    pub fn new(path: &Path, every: usize) -> Self {
        Self {
            inner: FileCheckpointSink::new(path, every),
            path: path.to_path_buf(),
            nanos: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The layer's numbers, or the write error the sink swallowed.
    pub fn finish(&self) -> Result<CheckpointLayer, String> {
        if let Some(error) = self.inner.take_error() {
            return Err(format!("checkpoint write {}: {error}", self.path.display()));
        }
        let writes = self.writes.load(Ordering::Relaxed);
        Ok(CheckpointLayer {
            write_us: self.nanos.load(Ordering::Relaxed) as f64 / 1e3 / writes.max(1) as f64,
            bytes: self.bytes.load(Ordering::Relaxed),
            writes,
        })
    }
}

impl CheckpointSink for TimedSink {
    fn wants(&self, progress: usize) -> bool {
        self.inner.wants(progress)
    }

    fn on_checkpoint(&self, checkpoint: &SearchCheckpoint) {
        let start = Instant::now();
        self.inner.on_checkpoint(checkpoint);
        let nanos = start.elapsed().as_nanos() as u64;
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
        let bytes = std::fs::metadata(&self.path).map_or(0, |m| m.len());
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Accumulated wall and call count of one public function.
#[derive(Default)]
struct Tally {
    nanos: u64,
    calls: u64,
}

impl Tally {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    fn mean_us(&self) -> f64 {
        self.nanos as f64 / 1e3 / self.calls.max(1) as f64
    }
}

/// Replay a NASAIC run's controller; returns its candidate batches (the
/// decodable designs of each episode, in step order).
fn replay_nasaic(
    job: &Job,
    sample: &mut Tally,
    feedback: &mut Tally,
) -> Result<Vec<Vec<Candidate>>, String> {
    let scenario = &job.scenario;
    let workload = scenario.workload();
    let hardware = scenario.hardware_space();
    let config = scenario.nasaic_config();
    if config.homogeneous {
        return Err("the controller replay covers heterogeneous searches only".into());
    }
    let mut controller = Controller::new(
        workload.controller_segments(&hardware),
        config.controller,
        config.seed,
    );
    // The search's sampling stream (see `Nasaic::run_search`).
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x00c0_ffee);
    let steps = OptimizerSelector::new(config.hardware_trials)
        .plan_episode()
        .len();
    let m = workload.num_tasks();
    let mut rewards = job.outcome.reward_history.iter().copied();
    let mut explored = job.outcome.explored.iter().peekable();
    let mut batches = Vec::with_capacity(config.episodes);
    for episode in 0..config.episodes {
        let mut samples = Vec::with_capacity(steps);
        for step in 0..steps {
            let mut s = sample.time(|| controller.sample(&mut rng));
            if step > 0 {
                // Hardware-only steps keep the joint step's architectures.
                let joint: &nasaic_rl::ControllerSample = &samples[0];
                let arch_len: usize = joint.segments[..m].iter().map(Vec::len).sum();
                s.actions[..arch_len].copy_from_slice(&joint.actions[..arch_len]);
                s.segments[..m].clone_from_slice(&joint.segments[..m]);
            }
            samples.push(s);
        }
        let candidates: Vec<Candidate> = samples
            .iter()
            .filter_map(|s| Candidate::from_segments(&workload, &hardware, &s.segments).ok())
            .collect();
        for s in &samples {
            let reward = rewards
                .next()
                .ok_or("replay drift: reward_history is shorter than the replay")?;
            feedback.time(|| controller.feedback(s, reward));
        }
        // A trained (non-pruned) episode recorded all its decodable designs.
        let mut recorded = Vec::new();
        while let Some(solution) = explored.next_if(|s| s.episode == episode) {
            recorded.push(&solution.candidate);
        }
        if !recorded.is_empty() && !recorded.iter().copied().eq(candidates.iter()) {
            return Err(format!(
                "replay drift: episode {episode} of {} seed {} sampled other designs than the run",
                scenario.name, scenario.seed
            ));
        }
        batches.push(candidates);
    }
    if rewards.next().is_some() || explored.next().is_some() {
        return Err(format!(
            "replay drift: {} seed {} recorded more than the replay sampled",
            scenario.name, scenario.seed
        ));
    }
    Ok(batches)
}

/// A run without a controller: time the controller on the workload's
/// segments, rewarded with the explored solutions' weighted accuracies,
/// and hand back the run's one batch.
fn replay_sweep(job: &Job, sample: &mut Tally, feedback: &mut Tally) -> Vec<Vec<Candidate>> {
    let scenario = &job.scenario;
    let mut controller = Controller::new(
        scenario
            .workload()
            .controller_segments(&scenario.hardware_space()),
        scenario.nasaic_config().controller,
        scenario.seed,
    );
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    for solution in &job.outcome.explored {
        let s = sample.time(|| controller.sample(&mut rng));
        feedback.time(|| controller.feedback(&s, solution.evaluation.weighted_accuracy));
    }
    vec![job
        .outcome
        .explored
        .iter()
        .map(|s| s.candidate.clone())
        .collect()]
}

type DesignKey = (Vec<(String, Vec<usize>)>, Accelerator);

fn design_key(candidate: &Candidate) -> DesignKey {
    (
        candidate
            .architectures
            .iter()
            .map(|a| (a.name.clone(), a.hyperparameters.clone()))
            .collect(),
        candidate.accelerator.clone(),
    )
}

fn usizes(value: Option<&ConfigValue>) -> Result<Vec<usize>, String> {
    value
        .and_then(ConfigValue::as_array)
        .ok_or("cache export: missing integer array")?
        .iter()
        .map(|v| {
            v.as_integer()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| "cache export: bad integer".to_string())
        })
        .collect()
}

fn float(value: Option<&ConfigValue>) -> Result<f64, String> {
    float_from_value(value.ok_or("cache export: missing float")?).map_err(|e| e.to_string())
}

/// The rl, engine, cost, sched and accuracy metrics for `jobs`, checked
/// against `traced`.
pub fn layer_pass(jobs: &[Job], traced: &Traced) -> Result<Vec<Metric>, String> {
    let (mut sample, mut feedback) = (Tally::default(), Tally::default());
    let mut engines: Vec<(String, EvalEngine)> = Vec::new();
    let mut batch = Tally::default();
    let (mut candidates, mut uniques) = (0u64, 0u64);
    let (mut hw_hits, mut hw_misses, mut acc_hits, mut acc_misses) = (0u64, 0u64, 0u64, 0u64);
    for job in jobs {
        let scenario = &job.scenario;
        let batches = match scenario.search.algorithm {
            Algorithm::Nasaic => replay_nasaic(job, &mut sample, &mut feedback)?,
            Algorithm::MonteCarlo => replay_sweep(job, &mut sample, &mut feedback),
            other => return Err(format!("the layer pass does not replay {other}")),
        };
        if !engines.iter().any(|(name, _)| *name == scenario.name) {
            let config = EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            };
            engines.push((scenario.name.clone(), scenario.engine_with_config(config)));
        }
        let engine = &engines
            .iter()
            .find(|(n, _)| *n == scenario.name)
            .expect("inserted")
            .1;
        if scenario.search.algorithm == Algorithm::Nasaic {
            // The search estimates its penalty bounds through the engine
            // before the first episode; those designs are cache entries too.
            PenaltyBounds::estimate_with_engine(
                &scenario.workload(),
                &scenario.hardware_space(),
                engine,
                &scenario.specs,
                scenario.search.bound_samples,
                scenario.seed,
            );
        }
        let before = engine.stats();
        for designs in &batches {
            candidates += designs.len() as u64;
            uniques += designs.iter().map(design_key).collect::<HashSet<_>>().len() as u64;
            std::hint::black_box(batch.time(|| engine.evaluate_batch(designs)));
        }
        let delta = engine.stats().since(&before);
        hw_hits += delta.hardware_hits;
        hw_misses += delta.hardware_misses;
        acc_hits += delta.accuracy_hits;
        acc_misses += delta.accuracy_misses;
    }

    let total_misses: u64 = engines.iter().map(|(_, e)| e.stats().hardware_misses).sum();
    if total_misses != traced.hardware_misses {
        return Err(format!(
            "layer pass drifted from the traced run: {total_misses} hardware-cache misses, \
             the run had {}",
            traced.hardware_misses
        ));
    }

    let (mut build, mut solve, mut oracle) = (Tally::default(), Tally::default(), Tally::default());
    let mut hw_entries = 0u64;
    for (_, engine) in &engines {
        hw_entries += engine.stats().hardware_entries;
        replay_cached(engine, &mut build, &mut solve, &mut oracle)?;
    }
    if build.calls != traced.cost_spans || solve.calls != traced.sched_spans {
        return Err(format!(
            "layer pass drifted from the traced run: {} cost builds and {} scheduler solves, \
             the run recorded {} cost-model and {} scheduler spans",
            build.calls, solve.calls, traced.cost_spans, traced.sched_spans
        ));
    }

    let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    Ok(vec![
        metric("rl.sample_us", sample.mean_us(), "us"),
        metric("rl.feedback_us", feedback.mean_us(), "us"),
        metric("rl.calls", (sample.calls + feedback.calls) as f64, "count"),
        metric("engine.batch_us", batch.mean_us(), "us"),
        metric("engine.batches", batch.calls as f64, "count"),
        metric("engine.candidates", candidates as f64, "count"),
        metric(
            "engine.unique_ratio",
            uniques as f64 / candidates.max(1) as f64,
            "ratio",
        ),
        metric("engine.hw_hit_rate", rate(hw_hits, hw_misses), "ratio"),
        metric("engine.acc_hit_rate", rate(acc_hits, acc_misses), "ratio"),
        metric("engine.hw_entries", hw_entries as f64, "count"),
        metric("cost.build_us", build.mean_us(), "us"),
        metric("cost.builds", build.calls as f64, "count"),
        metric("sched.solve_us", solve.mean_us(), "us"),
        metric("sched.solves", solve.calls as f64, "count"),
        metric("accuracy.eval_us", oracle.mean_us(), "us"),
        metric("accuracy.calls", oracle.calls as f64, "count"),
    ])
}

/// Recompute every cached value of `engine` through the layers below it:
/// the cost table and HAP solve of each hardware entry, the oracle for
/// each accuracy entry.  Results must equal the cached values bit for bit.
fn replay_cached(
    engine: &EvalEngine,
    build: &mut Tally,
    solve: &mut Tally,
    oracle: &mut Tally,
) -> Result<(), String> {
    let evaluator = engine.evaluator();
    let workload = evaluator.workload();
    let backbone = |task: usize| {
        workload
            .tasks
            .get(task)
            .map(|t| t.backbone)
            .ok_or_else(|| format!("cache export: task {task} out of range"))
    };
    let export = engine.export_caches();
    let entries = |key: &str| {
        export
            .get(key)
            .and_then(ConfigValue::as_array)
            .unwrap_or(&[])
    };
    for row in entries("hardware") {
        let mut architectures = Vec::new();
        for (task, arch) in row
            .get("archs")
            .and_then(ConfigValue::as_array)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            architectures.push(backbone(task)?.materialize_values(&usizes(arch.get("values"))?));
        }
        let mut subs = Vec::new();
        for sub in row
            .get("subs")
            .and_then(ConfigValue::as_array)
            .unwrap_or(&[])
        {
            let [dataflow, pes, bandwidth] = usizes(Some(sub))?[..] else {
                return Err("cache export: a sub-accelerator is not a triple".into());
            };
            let dataflow = Dataflow::from_index(dataflow).ok_or("cache export: bad dataflow")?;
            subs.push(SubAccelerator::new(dataflow, pes, bandwidth));
        }
        let accelerator = Accelerator::new(subs);
        // The evaluator answers a design without capacity (or with an
        // unmappable layer) before reaching the next layer down.
        if !accelerator.has_capacity() {
            continue;
        }
        let costs = build
            .time(|| WorkloadCosts::build(evaluator.cost_model(), &architectures, &accelerator));
        if !costs.is_schedulable() {
            continue;
        }
        let problem = HapProblem::new(costs, evaluator.specs().latency_cycles);
        let (solution, _) = solve.time(|| solve_with_policy(&problem, evaluator.scheduler()));
        if solution.latency_cycles.to_bits() != float(row.get("latency_cycles"))?.to_bits()
            || solution.energy_nj.to_bits() != float(row.get("energy_nj"))?.to_bits()
        {
            return Err("layer pass: a recomputed HAP solution differs from the cached one".into());
        }
    }
    let accuracy_oracle = AccuracyOracle::default();
    for row in entries("accuracy") {
        let task = row
            .get("task")
            .and_then(ConfigValue::as_integer)
            .unwrap_or(-1);
        let task = usize::try_from(task).map_err(|_| "cache export: bad task".to_string())?;
        let backbone = backbone(task)?;
        let architecture = backbone.materialize_values(&usizes(row.get("values"))?);
        let accuracy = oracle.time(|| accuracy_oracle.evaluate(backbone, &architecture));
        if accuracy.to_bits() != float(row.get("accuracy"))?.to_bits() {
            return Err("layer pass: a recomputed accuracy differs from the cached one".into());
        }
    }
    Ok(())
}
