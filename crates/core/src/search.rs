//! The NASAIC search loop.
//!
//! Ties together the controller (component ①), the optimizer selector
//! (component ②) and the evaluator (component ③) exactly as in Fig. 4 of
//! the paper: the controller predicts architectures and hardware
//! allocations, the selector interleaves joint and hardware-only steps with
//! early pruning, the evaluator produces accuracy and hardware cost, and
//! the reward of Eq. 4 updates the controller.

use crate::algorithm::{
    emit_search_finished, NullObserver, SearchAlgorithm, SearchContext, SearchEvent, SearchObserver,
};
use crate::bounds::PenaltyBounds;
use crate::candidate::Candidate;
use crate::checkpoint::{self, CheckpointSink, NullCheckpointSink, SearchCheckpoint};
use crate::engine::EvalEngine;
use crate::evaluator::{AccuracyOracle, Evaluator};
use crate::log::{ExploredSolution, SearchOutcome};
use crate::metrics;
use crate::penalty::Penalty;
use crate::reward::Reward;
use crate::scenario::value::ConfigValue;
use crate::scenario::SearchSpec;
use crate::selector::OptimizerSelector;
use crate::spec::DesignSpecs;
use crate::workload::Workload;
use nasaic_accel::HardwareSpace;
use nasaic_rl::{Controller, ControllerConfig, ControllerSample};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of a NASAIC run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NasaicConfig {
    /// Number of episodes `beta`.
    pub episodes: usize,
    /// Hardware-only exploration steps per episode `phi`.
    pub hardware_trials: usize,
    /// Penalty scaling `rho` of Eq. 4.
    pub rho: f64,
    /// Number of sub-accelerators in the design.
    pub num_sub_accelerators: usize,
    /// When `true`, the controller predicts a single sub-accelerator
    /// configuration that is replicated across all sub-accelerators
    /// (the homogeneous study of Table II).
    pub homogeneous: bool,
    /// When `true` (default), hardware-only exploration steps keep the
    /// weighted accuracy of the episode's (fixed) architectures in their
    /// reward, so the joint and hardware-only rewards share one scale and
    /// the shared REINFORCE baseline stays meaningful.  Set to `false` for
    /// the literal paper behaviour (hardware-only steps ignore accuracy).
    pub accuracy_in_hardware_reward: bool,
    /// Random hardware samples used to estimate the penalty bounds.
    pub bound_samples: usize,
    /// RNG seed (controller initialisation and sampling).
    pub seed: u64,
    /// Controller hyperparameters.
    pub controller: ControllerConfig,
    /// Accuracy oracle (surrogate or proxy trainer).
    pub oracle: AccuracyOracle,
}

impl NasaicConfig {
    /// The paper's configuration: `beta = 500` episodes, `phi = 10`
    /// hardware designs per episode, `rho = 10`, two sub-accelerators.
    pub fn paper(seed: u64) -> Self {
        Self {
            episodes: 500,
            hardware_trials: 10,
            rho: 10.0,
            num_sub_accelerators: 2,
            homogeneous: false,
            accuracy_in_hardware_reward: true,
            bound_samples: 50,
            seed,
            controller: ControllerConfig::default(),
            oracle: AccuracyOracle::default(),
        }
    }

    /// A configuration small enough for unit tests and doc examples
    /// (a couple of seconds), with the same structure as the paper run.
    pub fn fast_demo(seed: u64) -> Self {
        Self {
            episodes: 40,
            hardware_trials: 4,
            bound_samples: 10,
            ..Self::paper(seed)
        }
    }

    /// A mid-sized configuration used by the benchmark harness: large
    /// enough for the search to converge on every workload, small enough to
    /// finish in seconds.
    pub fn benchmark(seed: u64) -> Self {
        Self {
            episodes: 120,
            hardware_trials: 6,
            bound_samples: 30,
            ..Self::paper(seed)
        }
    }
}

/// The run inputs a [`Nasaic::new`]-built search owns (the legacy direct
/// API); context-driven instances take them from the [`SearchContext`]
/// instead.
#[derive(Debug, Clone)]
struct BoundInputs {
    workload: Workload,
    specs: DesignSpecs,
    hardware: HardwareSpace,
    engine: EvalEngine,
}

/// The NASAIC co-exploration search.
#[derive(Debug, Clone)]
pub struct Nasaic {
    config: NasaicConfig,
    bound: Option<BoundInputs>,
}

impl Nasaic {
    /// Create a search for a workload under design specs.
    pub fn new(workload: Workload, specs: DesignSpecs, config: NasaicConfig) -> Self {
        let hardware = HardwareSpace::paper_default(config.num_sub_accelerators);
        let engine = EvalEngine::new(Evaluator::new(&workload, specs, config.oracle));
        Self {
            config,
            bound: Some(BoundInputs {
                workload,
                specs,
                hardware,
                engine,
            }),
        }
    }

    /// Create the context-driven form [`Algorithm::instantiate`] returns:
    /// the search hyperparameters come from the spec and `seed`, while the
    /// workload, specs, hardware space and engine are taken from the
    /// [`SearchContext`] at [`SearchAlgorithm::run`] time.  The legacy
    /// direct entry points ([`run`](Self::run),
    /// [`run_with_engine`](Self::run_with_engine), the builders and the
    /// input accessors) panic on an instance built this way.
    ///
    /// [`Algorithm::instantiate`]: crate::scenario::Algorithm::instantiate
    pub fn from_search_spec(spec: &SearchSpec, seed: u64) -> Self {
        Self {
            config: NasaicConfig {
                episodes: spec.episodes,
                hardware_trials: spec.hardware_trials,
                rho: spec.rho,
                // Only consulted by `Nasaic::new` when building the default
                // hardware space; the context path uses the context's space.
                num_sub_accelerators: 2,
                homogeneous: spec.homogeneous,
                accuracy_in_hardware_reward: spec.accuracy_in_hardware_reward,
                bound_samples: spec.bound_samples,
                seed,
                controller: ControllerConfig::default(),
                oracle: AccuracyOracle::default(),
            },
            bound: None,
        }
    }

    fn bound(&self, entry: &str) -> &BoundInputs {
        self.bound.as_ref().unwrap_or_else(|| {
            panic!(
                "`Nasaic::{entry}` needs the owned run inputs of `Nasaic::new`; this instance \
                 was built with `Nasaic::from_search_spec` and must run through \
                 `SearchAlgorithm::run` with a `SearchContext`"
            )
        })
    }

    fn bound_mut(&mut self, entry: &str) -> &mut BoundInputs {
        self.bound.as_mut().unwrap_or_else(|| {
            panic!(
                "`Nasaic::{entry}` needs the owned run inputs of `Nasaic::new`; this instance \
                 was built with `Nasaic::from_search_spec` and must run through \
                 `SearchAlgorithm::run` with a `SearchContext`"
            )
        })
    }

    /// Replace the hardware space (restricted dataflows, different budget,
    /// fewer sub-accelerators — used by the Table II studies).
    ///
    /// The evaluator is untouched — it does not depend on the hardware
    /// space — so this builder composes with
    /// [`with_evaluator`](Self::with_evaluator) in either order.
    ///
    /// # Panics
    ///
    /// Panics on a context-driven instance
    /// (see [`from_search_spec`](Self::from_search_spec)).
    pub fn with_hardware_space(mut self, hardware: HardwareSpace) -> Self {
        self.bound_mut("with_hardware_space").hardware = hardware;
        self
    }

    /// Replace the evaluator (custom cost model or combiner).
    ///
    /// # Panics
    ///
    /// Panics on a context-driven instance
    /// (see [`from_search_spec`](Self::from_search_spec)).
    pub fn with_evaluator(mut self, evaluator: Evaluator) -> Self {
        let bound = self.bound_mut("with_evaluator");
        let config = *bound.engine.config();
        bound.engine = EvalEngine::with_config(evaluator, config);
        self
    }

    /// Replace the engine configuration (worker-thread ceiling, caching).
    /// Composes with the other builders in any order.
    ///
    /// # Panics
    ///
    /// Panics on a context-driven instance
    /// (see [`from_search_spec`](Self::from_search_spec)).
    pub fn with_engine_config(mut self, config: crate::engine::EngineConfig) -> Self {
        let bound = self.bound_mut("with_engine_config");
        bound.engine = EvalEngine::with_config(bound.engine.evaluator().clone(), config);
        self
    }

    /// The workload being searched.
    ///
    /// # Panics
    ///
    /// Panics on a context-driven instance
    /// (see [`from_search_spec`](Self::from_search_spec)).
    pub fn workload(&self) -> &Workload {
        &self.bound("workload").workload
    }

    /// The design specs.
    ///
    /// # Panics
    ///
    /// Panics on a context-driven instance
    /// (see [`from_search_spec`](Self::from_search_spec)).
    pub fn specs(&self) -> &DesignSpecs {
        &self.bound("specs").specs
    }

    /// The hardware space.
    ///
    /// # Panics
    ///
    /// Panics on a context-driven instance
    /// (see [`from_search_spec`](Self::from_search_spec)).
    pub fn hardware_space(&self) -> &HardwareSpace {
        &self.bound("hardware_space").hardware
    }

    /// The evaluator.
    ///
    /// # Panics
    ///
    /// Panics on a context-driven instance
    /// (see [`from_search_spec`](Self::from_search_spec)).
    pub fn evaluator(&self) -> &Evaluator {
        self.bound("evaluator").engine.evaluator()
    }

    /// The shared evaluation engine (caches + batch parallelism).
    ///
    /// # Panics
    ///
    /// Panics on a context-driven instance
    /// (see [`from_search_spec`](Self::from_search_spec)).
    pub fn engine(&self) -> &EvalEngine {
        &self.bound("engine").engine
    }

    fn controller_segments(
        workload: &Workload,
        hardware: &HardwareSpace,
        config: &NasaicConfig,
    ) -> Vec<nasaic_rl::Segment> {
        if config.homogeneous {
            // One architecture segment per task + a single hardware segment
            // that is replicated over all sub-accelerators at decode time.
            let single_sub = HardwareSpace::paper_default(1)
                .with_budget(*hardware.budget())
                .with_dataflows(hardware.allowed_dataflows().to_vec());
            workload.controller_segments(&single_sub)
        } else {
            workload.controller_segments(hardware)
        }
    }

    fn decode_candidate(
        workload: &Workload,
        hardware: &HardwareSpace,
        config: &NasaicConfig,
        sample: &ControllerSample,
    ) -> Result<Candidate, nasaic_nn::space::DecodeError> {
        let m = workload.num_tasks();
        if config.homogeneous {
            // Duplicate the single hardware segment across the
            // sub-accelerators.
            let mut segments: Vec<Vec<usize>> = sample.segments[..m].to_vec();
            let hw_segment = sample.segments[m].clone();
            for _ in 0..hardware.num_sub_accelerators() {
                segments.push(hw_segment.clone());
            }
            Candidate::from_segments(workload, hardware, &segments)
        } else {
            Candidate::from_segments(workload, hardware, &sample.segments)
        }
    }

    /// Run the search and return the exploration outcome.
    ///
    /// Each episode's `1 + φ` candidates are evaluated concurrently through
    /// the [`EvalEngine`] (hardware metrics in one parallel batch, accuracy
    /// memoised across the episode's shared architectures and across
    /// episodes); controller feedback stays strictly sequential, so a run
    /// is bit-deterministic for a seed regardless of thread count.
    ///
    /// # Panics
    ///
    /// Panics on a context-driven instance
    /// (see [`from_search_spec`](Self::from_search_spec)).
    pub fn run(&self) -> SearchOutcome {
        let bound = self.bound("run");
        self.run_with_engine(&bound.engine)
    }

    /// [`run`](Self::run) through an external shared engine, so several
    /// searches (e.g. the algorithms of a `nasaic compare` run) reuse one
    /// warm cache.  The engine is observationally invisible: the outcome
    /// is bit-identical to [`run`](Self::run) regardless of what the
    /// caches already hold, as long as the engine wraps an evaluator for
    /// the same workload, specs and oracle.
    ///
    /// # Panics
    ///
    /// Panics on a context-driven instance
    /// (see [`from_search_spec`](Self::from_search_spec)).
    pub fn run_with_engine(&self, engine: &EvalEngine) -> SearchOutcome {
        let bound = self.bound("run_with_engine");
        Self::run_search(
            &bound.workload,
            &bound.specs,
            &bound.hardware,
            engine,
            &self.config,
            &NullObserver,
            None,
            &NullCheckpointSink,
        )
    }

    /// The NASAIC episode loop, shared by the legacy entry points and the
    /// [`SearchAlgorithm`] trait path.  Observation is passive: the
    /// outcome is bit-identical with any observer.
    ///
    /// Checkpoints fire per completed episode with state `{rng,
    /// controller, outcome}`; the penalty bounds and the optimizer
    /// selector are re-derived on resume (both are deterministic functions
    /// of the configuration and the engine's pure evaluations), and the
    /// controller is rebuilt from its configuration before its weights,
    /// optimizer accumulators and trainer counters are restored.
    #[allow(clippy::too_many_arguments)]
    fn run_search(
        workload: &Workload,
        specs: &DesignSpecs,
        hardware: &HardwareSpace,
        engine: &EvalEngine,
        config: &NasaicConfig,
        observer: &dyn SearchObserver,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> SearchOutcome {
        let stats_start = engine.stats();
        let bounds = PenaltyBounds::estimate_with_engine(
            workload,
            hardware,
            engine,
            specs,
            config.bound_samples,
            config.seed,
        );
        let selector = OptimizerSelector::new(config.hardware_trials);
        let mut controller = Controller::new(
            Self::controller_segments(workload, hardware, config),
            config.controller,
            config.seed,
        );
        let (mut rng, mut outcome, start_episode) = match resume {
            Some(cp) => {
                cp.expect_run("nasaic", config.seed);
                assert!(
                    cp.progress <= config.episodes,
                    "nasaic checkpoint progress {} exceeds the configured {} episodes",
                    cp.progress,
                    config.episodes
                );
                let rng = StdRng::from_state(
                    checkpoint::rng_state_from_value(
                        cp.state.get("rng").expect("nasaic checkpoint: rng"),
                    )
                    .expect("nasaic checkpoint: valid rng state"),
                );
                let state = checkpoint::controller_state_from_value(
                    cp.state
                        .get("controller")
                        .expect("nasaic checkpoint: controller"),
                )
                .expect("nasaic checkpoint: valid controller state");
                controller.restore_state(&state);
                let outcome = checkpoint::outcome_from_value(
                    cp.state.get("outcome").expect("nasaic checkpoint: outcome"),
                    workload,
                )
                .expect("nasaic checkpoint: valid outcome");
                (rng, outcome, cp.progress)
            }
            None => (
                StdRng::seed_from_u64(config.seed ^ 0x00c0_ffee),
                SearchOutcome::empty(),
                0,
            ),
        };
        let m = workload.num_tasks();

        for episode in start_episode..config.episodes {
            // Step 1: joint architecture + hardware prediction.
            let joint_sample = {
                let _span = metrics::time_controller(metrics::controller_sample_wall);
                controller.sample(&mut rng)
            };
            // Steps 2..: hardware-only predictions for the same architectures.
            let plan = selector.plan_episode();
            let mut episode_samples: Vec<ControllerSample> = vec![joint_sample.clone()];
            for _ in 1..plan.len() {
                let mut hw_sample = {
                    let _span = metrics::time_controller(metrics::controller_sample_wall);
                    controller.sample(&mut rng)
                };
                // Architecture switch open: reuse the joint step's
                // architecture decisions.
                let arch_len: usize = joint_sample.segments[..m].iter().map(Vec::len).sum();
                hw_sample.actions[..arch_len].copy_from_slice(&joint_sample.actions[..arch_len]);
                for (segment, joint_segment) in hw_sample.segments[..m]
                    .iter_mut()
                    .zip(&joint_sample.segments[..m])
                {
                    segment.clone_from(joint_segment);
                }
                episode_samples.push(hw_sample);
            }

            // Decode and evaluate the hardware of every step.
            let (candidates, architectures) = {
                let _span = metrics::maybe_time(metrics::search_decode_wall);
                let candidates: Vec<Option<Candidate>> = episode_samples
                    .iter()
                    .map(|sample| Self::decode_candidate(workload, hardware, config, sample).ok())
                    .collect();
                let architectures = candidates
                    .iter()
                    .flatten()
                    .next()
                    .map(|c| c.architectures.clone());
                (candidates, architectures)
            };
            // All of the episode's hardware designs are independent:
            // evaluate them as one parallel, cached batch.
            let hardware_evaluations = engine.evaluate_hardware_batch(&candidates);
            let any_meets_specs = hardware_evaluations
                .iter()
                .flatten()
                .any(|(_, check)| check.all());

            // Early pruning: skip the accuracy evaluation when no hardware
            // design of the episode can satisfy the specs.
            let accuracies = if selector.should_train(any_meets_specs) {
                architectures.as_ref().map(|archs| engine.accuracies(archs))
            } else {
                None
            };
            if accuracies.is_none() {
                outcome.pruned_episodes += 1;
            }
            let weighted = accuracies.as_ref().map(|a| engine.weighted_accuracy(a));

            let mut joint_reward = 0.0;
            for (step, (sample, candidate)) in episode_samples.iter().zip(candidates).enumerate() {
                let Some(candidate) = candidate else {
                    // Undecodable sample: strongly discourage it.
                    let _span = metrics::time_controller(metrics::controller_feedback_wall);
                    controller.feedback(sample, -config.rho);
                    if step == 0 {
                        joint_reward = -config.rho;
                    }
                    continue;
                };
                let (hardware_metrics, check) = hardware_evaluations[step]
                    .expect("hardware evaluation exists for decodable candidates");
                let reward_span = metrics::maybe_time(metrics::search_reward_wall);
                let penalty = Penalty::compute(&hardware_metrics, specs, &bounds);
                let reward = match (step, &weighted) {
                    // Joint step with accuracy available: full Eq. 4 reward.
                    (0, Some(w)) => Reward::new(*w, &penalty, config.rho),
                    // Hardware-only steps: the paper ignores accuracy here;
                    // by default we keep the (fixed) architectures' accuracy
                    // in the reward so both step kinds share one scale.
                    (_, Some(w)) if config.accuracy_in_hardware_reward => {
                        Reward::new(*w, &penalty, config.rho)
                    }
                    (_, Some(_)) => Reward::hardware_only(&penalty, config.rho),
                    // Pruned episode: penalty-only signal for every step.
                    (_, None) => Reward::hardware_only(&penalty, config.rho),
                };
                drop(reward_span);
                {
                    let _span = metrics::time_controller(metrics::controller_feedback_wall);
                    controller.feedback(sample, reward.value());
                }
                if step == 0 {
                    joint_reward = reward.value();
                }

                if let (Some(accs), Some(w)) = (&accuracies, &weighted) {
                    let _span = metrics::maybe_time(metrics::search_record_wall);
                    let evaluation = crate::evaluator::Evaluation {
                        accuracies: accs.clone(),
                        weighted_accuracy: *w,
                        metrics: hardware_metrics,
                        spec_check: check,
                        mapping_feasible: hardware_metrics.latency_cycles <= specs.latency_cycles,
                    };
                    outcome.record_observed(
                        ExploredSolution {
                            episode,
                            candidate,
                            evaluation,
                            reward: reward.value(),
                        },
                        observer,
                    );
                }
            }
            outcome.episodes = episode + 1;
            let record_span = metrics::maybe_time(metrics::search_record_wall);
            observer.on_event(&SearchEvent::EpisodeEvaluated {
                episode,
                evaluations: episode_samples.len(),
                weighted_accuracy: weighted,
                any_compliant: any_meets_specs,
                reward: joint_reward,
                entropy: Some(joint_sample.mean_entropy),
                baseline: controller.baseline(),
            });
            drop(record_span);
            checkpoint::offer_checkpoint(
                sink,
                observer,
                "nasaic",
                config.seed,
                episode + 1,
                || {
                    let mut state = ConfigValue::table();
                    state.insert("rng", checkpoint::rng_state_to_value(&rng.state()));
                    state.insert(
                        "controller",
                        checkpoint::controller_state_to_value(&controller.export_state()),
                    );
                    state.insert("outcome", checkpoint::outcome_to_value(&outcome));
                    state
                },
            );
        }
        outcome.reward_history = controller.reward_history().to_vec();
        emit_search_finished(observer, &outcome, engine.stats().since(&stats_start));
        outcome
    }
}

impl SearchAlgorithm for Nasaic {
    fn name(&self) -> &str {
        "nasaic"
    }

    /// Run over the context's workload/specs/hardware through its engine.
    /// The search hyperparameters (including budget and seed) come from
    /// this instance's [`NasaicConfig`]; the context's `seed`/`budget`
    /// fields are descriptive (see
    /// [`Algorithm::instantiate`](crate::scenario::Algorithm::instantiate)).
    ///
    /// The search stays on the sequential shard fallback: the controller
    /// learns from every episode's reward before sampling the next one, so
    /// episodes cannot be strided across workers without changing the
    /// policy trajectory.
    fn run_checkpointed(
        &self,
        ctx: &SearchContext<'_>,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> SearchOutcome {
        Self::run_search(
            ctx.workload,
            &ctx.specs,
            ctx.hardware,
            ctx.engine,
            &self.config,
            ctx.observer(),
            resume,
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadId;

    fn run_fast(workload: Workload, id: WorkloadId, seed: u64) -> SearchOutcome {
        let specs = DesignSpecs::for_workload(id);
        Nasaic::new(workload, specs, NasaicConfig::fast_demo(seed)).run()
    }

    #[test]
    fn w1_search_finds_spec_compliant_solutions() {
        let outcome = run_fast(Workload::w1(), WorkloadId::W1, 11);
        assert!(outcome.best.is_some(), "no compliant solution found");
        assert!(!outcome.spec_compliant.is_empty());
        for solution in &outcome.spec_compliant {
            assert!(solution.evaluation.meets_specs());
        }
        assert_eq!(outcome.episodes, 40);
    }

    #[test]
    fn w3_search_finds_spec_compliant_solutions() {
        // W3's energy spec is the tightest of the three workloads, so give
        // this check a slightly larger episode budget than fast_demo.
        let specs = DesignSpecs::for_workload(WorkloadId::W3);
        let config = NasaicConfig {
            episodes: 60,
            ..NasaicConfig::fast_demo(13)
        };
        let outcome = Nasaic::new(Workload::w3(), specs, config).run();
        assert!(outcome.best.is_some());
        let best = outcome.best.as_ref().unwrap();
        // Accuracy of compliant solutions must beat the smallest-network
        // lower bound of 78.93%.
        assert!(best.evaluation.weighted_accuracy > 0.7893);
    }

    #[test]
    fn best_solution_accuracy_is_above_lower_bound_and_below_nas_best() {
        let outcome = run_fast(Workload::w1(), WorkloadId::W1, 17);
        let best = outcome.best.as_ref().expect("a compliant solution exists");
        // Lower bound: (78.93% + 0.642) / 2; NAS upper bound: (94.2% + 0.84) / 2.
        assert!(best.evaluation.weighted_accuracy > 0.715);
        assert!(best.evaluation.weighted_accuracy < 0.895);
    }

    #[test]
    fn search_is_deterministic_for_a_seed() {
        let a = run_fast(Workload::w3(), WorkloadId::W3, 5);
        let b = run_fast(Workload::w3(), WorkloadId::W3, 5);
        assert_eq!(a.best_weighted_accuracy(), b.best_weighted_accuracy());
        assert_eq!(a.explored.len(), b.explored.len());
    }

    #[test]
    fn homogeneous_mode_produces_identical_sub_accelerators() {
        let specs = DesignSpecs::for_workload(WorkloadId::W3);
        let config = NasaicConfig {
            homogeneous: true,
            ..NasaicConfig::fast_demo(3)
        };
        let outcome = Nasaic::new(Workload::w3(), specs, config).run();
        for solution in &outcome.explored {
            let subs = solution.candidate.accelerator.sub_accelerators();
            assert_eq!(subs.len(), 2);
            assert_eq!(
                subs[0], subs[1],
                "homogeneous design must replicate the sub-accelerator"
            );
        }
    }

    #[test]
    fn builder_order_does_not_discard_a_custom_evaluator() {
        // Regression: `with_hardware_space` used to rebuild the evaluator
        // from the config, silently dropping a custom cost model/combiner
        // installed by an earlier `with_evaluator` call.
        use nasaic_accel::HardwareSpace;
        use nasaic_accuracy::AccuracyCombiner;

        let workload = Workload::w3();
        let specs = DesignSpecs::for_workload(WorkloadId::W3);
        let config = NasaicConfig::fast_demo(1);
        let custom = Evaluator::new(&workload, specs, AccuracyOracle::default())
            .with_combiner(AccuracyCombiner::Minimum);
        let hardware = HardwareSpace::paper_default(1);

        let evaluator_first = Nasaic::new(workload.clone(), specs, config)
            .with_evaluator(custom.clone())
            .with_hardware_space(hardware.clone());
        let hardware_first = Nasaic::new(workload, specs, config)
            .with_hardware_space(hardware)
            .with_evaluator(custom);

        // The Minimum combiner must survive in both orders.
        let accuracies = [0.25, 0.75];
        assert_eq!(
            evaluator_first.evaluator().weighted_accuracy(&accuracies),
            0.25
        );
        assert_eq!(
            hardware_first.evaluator().weighted_accuracy(&accuracies),
            0.25
        );
        assert_eq!(evaluator_first.hardware_space().num_sub_accelerators(), 1);
        assert_eq!(hardware_first.hardware_space().num_sub_accelerators(), 1);
    }

    #[test]
    fn reward_history_length_matches_feedback_count() {
        let outcome = run_fast(Workload::w3(), WorkloadId::W3, 19);
        // Every episode gives (1 + hardware_trials) feedbacks.
        assert_eq!(outcome.reward_history.len(), 40 * (1 + 4));
    }
}
