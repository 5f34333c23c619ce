//! The recurrent policy network: a shared recurrent core with one softmax
//! head per decision step, plus REINFORCE gradients computed by manual
//! backpropagation-through-time.
//!
//! Every pass runs over one flat, reusable tape sized at construction:
//! per step it holds the input index, the hidden state (`h_{t-1}` is the
//! previous step's slot) and the step's probabilities (or logits), plus
//! the step entropies and the backward sweep's scratch.  Sampling, greedy
//! decoding, the objective, the gradients and the REINFORCE update share
//! it, and the gradient buffers and RMSProp state are owned by the
//! network, so none of them allocates per step.  The shortcuts this
//! relies on — the one-hot gather, the one-column gradient update, the
//! four-row matrix-vector kernels and the fused clip/negate/RMSProp pass —
//! are each bit-identical to the dense `Matrix` composition they replace
//! on finite values (see `nasaic_tensor::kernel`).

use crate::rnn::{RnnCell, RnnGradients};
use nasaic_tensor::activation::{entropy, softmax_in_place};
use nasaic_tensor::{init, kernel, Matrix, Optimizer, RmsProp};
use rand::Rng;
use std::cell::RefCell;

/// One sampled episode: the chosen action index for every decision step and
/// the log-probability of the whole trajectory under the sampling policy.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeSample {
    /// Chosen option index per decision step.
    pub actions: Vec<usize>,
    /// `sum_t log pi(a_t | a_{t-1..1})`.
    pub log_prob: f64,
    /// Mean per-step entropy of the sampling distributions (exploration
    /// diagnostic).
    pub mean_entropy: f64,
}

/// Parameter gradients of the policy network (owned by the network and
/// overwritten by every backward pass).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyGradients {
    /// Gradients of the recurrent cell.
    pub cell: RnnGradients,
    /// Per-head `(weights, bias)` gradients, one per decision step.
    pub heads: Vec<(Matrix, Matrix)>,
}

/// Hyperparameters of one REINFORCE update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateConfig {
    /// Learning rate for this update.
    pub learning_rate: f64,
    /// Entropy-bonus coefficient (0 disables the bonus).
    pub entropy_beta: f64,
    /// Mean per-step entropy (nats) below which `entropy_beta` is scaled
    /// up by `floor / entropy` — the anti-collapse guard (0 disables it).
    pub entropy_floor: f64,
    /// Gradient clipping threshold (absolute value per element).
    pub gradient_clip: f64,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            entropy_beta: 0.01,
            entropy_floor: 0.0,
            gradient_clip: 5.0,
        }
    }
}

/// The activations of one pass over all decision steps, in flat buffers
/// sized once for the network.
#[derive(Debug, Clone)]
struct Tape {
    /// One-hot input index of every step.
    inputs: Vec<usize>,
    /// `(steps + 1) x hidden`: `h_0 = 0`, then each step's hidden state.
    hidden: Vec<f64>,
    /// Each step's logits, turned into probabilities in place by every
    /// pass except greedy decoding; step `t` is `probs[offsets[t]..offsets[t + 1]]`.
    probs: Vec<f64>,
    /// Entropy of each step's probabilities (replay only).
    entropy: Vec<f64>,
    /// Backward scratch: `d objective / d logits` of one step.
    dlogits: Vec<f64>,
    /// Forward scratch (`W_x x_t`), then backward `d/dh` of one step.
    dh: Vec<f64>,
    /// Backward `d/dz` (pre-activation) of one step.
    dz: Vec<f64>,
    /// Backward `d/dh_{t-1}` carried to the previous step.
    dh_next: Vec<f64>,
}

impl Tape {
    fn new(steps: usize, hidden: usize, options: usize, max_options: usize) -> Self {
        Self {
            inputs: vec![0; steps],
            hidden: vec![0.0; (steps + 1) * hidden],
            probs: vec![0.0; options],
            entropy: vec![0.0; steps],
            dlogits: vec![0.0; max_options],
            dh: vec![0.0; hidden],
            dz: vec![0.0; hidden],
            dh_next: vec![0.0; hidden],
        }
    }
}

/// The recurrent policy network of the NASAIC controller.
///
/// The network emits `T` decisions; decision `t` has
/// `cardinalities[t]` options.  The input of step `t` is a one-hot encoding
/// of the previous step's chosen option (a dedicated start token for step
/// 0), exactly the autoregressive scheme of NAS controllers.
#[derive(Debug, Clone)]
pub struct PolicyNetwork {
    cell: RnnCell,
    heads: Vec<(Matrix, Matrix)>,
    cardinalities: Vec<usize>,
    /// Prefix sums of `cardinalities`: step `t`'s slice of the tape's
    /// probabilities.
    offsets: Vec<usize>,
    input_size: usize,
    grads: PolicyGradients,
    // Per-parameter RMSProp state (the paper trains the controller with
    // RMSProp).
    opt_w_x: RmsProp,
    opt_w_h: RmsProp,
    opt_b: RmsProp,
    opt_heads: Vec<(RmsProp, RmsProp)>,
    /// Shared by every pass; a `RefCell` because sampling and greedy
    /// decoding only read the weights (`&self`).
    tape: RefCell<Tape>,
}

impl PolicyNetwork {
    /// Create a policy network for the given per-step option counts.
    ///
    /// # Panics
    ///
    /// Panics if `cardinalities` is empty or contains a zero, or
    /// `hidden_size` is zero.
    pub fn new<R: Rng>(rng: &mut R, cardinalities: Vec<usize>, hidden_size: usize) -> Self {
        assert!(
            !cardinalities.is_empty(),
            "policy needs at least one decision"
        );
        assert!(
            cardinalities.iter().all(|&c| c > 0),
            "every decision needs at least one option"
        );
        assert!(hidden_size > 0, "hidden size must be positive");
        let max_card = *cardinalities.iter().max().expect("non-empty");
        let input_size = max_card + 1; // +1 for the start token
        let cell = RnnCell::new(rng, input_size, hidden_size);
        let heads = cardinalities
            .iter()
            .map(|&c| {
                (
                    init::xavier_uniform(rng, c, hidden_size),
                    Matrix::zeros(c, 1),
                )
            })
            .collect::<Vec<_>>();
        let opt_heads = cardinalities
            .iter()
            .map(|_| (RmsProp::new(0.05, 0.9), RmsProp::new(0.05, 0.9)))
            .collect();
        let offsets: Vec<usize> = std::iter::once(0)
            .chain(cardinalities.iter().scan(0, |end, &c| {
                *end += c;
                Some(*end)
            }))
            .collect();
        let grads = PolicyGradients {
            cell: cell.zero_gradients(),
            heads: heads
                .iter()
                .map(|(u, c)| {
                    (
                        Matrix::zeros(u.rows(), u.cols()),
                        Matrix::zeros(c.rows(), c.cols()),
                    )
                })
                .collect(),
        };
        let tape = Tape::new(
            cardinalities.len(),
            hidden_size,
            offsets[cardinalities.len()],
            max_card,
        );
        Self {
            cell,
            heads,
            cardinalities,
            offsets,
            input_size,
            grads,
            opt_w_x: RmsProp::new(0.05, 0.9),
            opt_w_h: RmsProp::new(0.05, 0.9),
            opt_b: RmsProp::new(0.05, 0.9),
            opt_heads,
            tape: RefCell::new(tape),
        }
    }

    /// Number of decision steps.
    pub fn num_steps(&self) -> usize {
        self.cardinalities.len()
    }

    /// Option count per decision step.
    pub fn cardinalities(&self) -> &[usize] {
        &self.cardinalities
    }

    /// Run the network forward over all steps, recording the pass on
    /// `tape`.  `decide(t, logits)` receives step `t`'s logits in its
    /// tape slot (and may turn them into probabilities in place) and
    /// returns the step's action, which feeds the next step's input.
    fn forward(&self, tape: &mut Tape, mut decide: impl FnMut(usize, &mut [f64]) -> usize) {
        let n = self.cell.hidden_size();
        // Step 0 reads the start token; later steps the previous action.
        let mut input = self.input_size - 1;
        for (t, (u, c)) in self.heads.iter().enumerate() {
            tape.inputs[t] = input;
            let (past, next) = tape.hidden.split_at_mut((t + 1) * n);
            let h = &mut next[..n];
            self.cell.forward(input, &past[t * n..], &mut tape.dh, h);
            let logits = &mut tape.probs[self.offsets[t]..self.offsets[t + 1]];
            kernel::matvec(u.as_slice(), h, logits, u.rows(), n);
            for (l, &b) in logits.iter_mut().zip(c.as_slice()) {
                *l += b;
            }
            input = decide(t, logits).min(self.input_size - 2);
        }
    }

    /// Replay a fixed action trajectory at temperature 1, leaving each
    /// step's probabilities and entropy on the tape.
    fn replay(&self, tape: &mut Tape, actions: &[usize]) {
        assert_eq!(
            actions.len(),
            self.num_steps(),
            "trajectory length mismatch"
        );
        self.forward(tape, |t, logits| {
            softmax_in_place(logits);
            actions[t]
        });
        for (t, e) in tape.entropy.iter_mut().enumerate() {
            *e = entropy(&tape.probs[self.offsets[t]..self.offsets[t + 1]]);
        }
    }

    /// Sample an episode with a softmax temperature (1.0 = on-policy).
    ///
    /// # Panics
    ///
    /// Panics if `temperature` is not strictly positive.
    pub fn sample_episode<R: Rng>(&self, rng: &mut R, temperature: f64) -> EpisodeSample {
        assert!(temperature > 0.0, "temperature must be positive");
        let mut actions = Vec::with_capacity(self.num_steps());
        let mut log_prob = 0.0;
        let mut entropy_sum = 0.0;
        self.forward(&mut self.tape.borrow_mut(), |_, logits| {
            for v in logits.iter_mut() {
                *v /= temperature;
            }
            softmax_in_place(logits);
            let action = sample_categorical(rng, logits);
            log_prob += logits[action].max(1e-300).ln();
            entropy_sum += entropy(logits);
            actions.push(action);
            action
        });
        EpisodeSample {
            actions,
            log_prob,
            mean_entropy: entropy_sum / self.num_steps() as f64,
        }
    }

    /// Greedy (argmax) trajectory of the current policy.
    pub fn greedy_episode(&self) -> Vec<usize> {
        let mut actions = Vec::with_capacity(self.num_steps());
        self.forward(&mut self.tape.borrow_mut(), |_, logits| {
            let action = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            actions.push(action);
            action
        });
        actions
    }

    /// The REINFORCE objective for a trajectory:
    /// `advantage * sum_t log pi(a_t) + entropy_beta * sum_t H(pi_t)`.
    pub fn objective(&self, actions: &[usize], advantage: f64, entropy_beta: f64) -> f64 {
        let tape = &mut *self.tape.borrow_mut();
        self.replay(tape, actions);
        let mut value = 0.0;
        for (t, &action) in actions.iter().enumerate() {
            value += advantage * tape.probs[self.offsets[t] + action].max(1e-300).ln();
            value += entropy_beta * tape.entropy[t];
        }
        value
    }

    /// Gradients of the REINFORCE objective (for *ascent*), in the
    /// network's own gradient buffers.
    pub fn compute_gradients(
        &mut self,
        actions: &[usize],
        advantage: f64,
        entropy_beta: f64,
    ) -> &PolicyGradients {
        self.replay(&mut self.tape.borrow_mut(), actions);
        self.backward(actions, advantage, entropy_beta);
        &self.grads
    }

    /// Backward sweep over the trajectory replayed on the tape, into the
    /// network's gradient buffers (shared by
    /// [`compute_gradients`](Self::compute_gradients) and
    /// [`reinforce_update`](Self::reinforce_update), which also needs the
    /// replayed entropies for the entropy-floor guard).
    fn backward(&mut self, actions: &[usize], advantage: f64, entropy_beta: f64) {
        let n = self.cell.hidden_size();
        let tape = self.tape.get_mut();
        let grads = &mut self.grads;
        grads.cell.zero();
        tape.dh_next.fill(0.0);
        for t in (0..actions.len()).rev() {
            let probabilities = &tape.probs[self.offsets[t]..self.offsets[t + 1]];
            let (action, step_entropy) = (actions[t], tape.entropy[t]);
            // d(objective)/dlogits for ascent:
            //   advantage * (onehot - p)  - entropy_beta * p * (ln p + H)
            let dlogits = &mut tape.dlogits[..probabilities.len()];
            for (i, (d, &p)) in dlogits.iter_mut().zip(probabilities).enumerate() {
                let onehot = if i == action { 1.0 } else { 0.0 };
                let policy_term = advantage * (onehot - p);
                let entropy_term = -entropy_beta * p * (p.max(1e-300).ln() + step_entropy);
                *d = policy_term + entropy_term;
            }
            let (u, _) = &self.heads[t];
            let (gu, gc) = &mut grads.heads[t];
            let h_prev = &tape.hidden[t * n..(t + 1) * n];
            let h = &tape.hidden[(t + 1) * n..(t + 2) * n];
            // Each head serves one step, so its gradient is that step's
            // rank-1 term alone, written as accumulating it into a zeroed
            // buffer would leave it (`set_outer`, and `0.0 + d`).
            kernel::set_outer(gu.as_mut_slice(), dlogits, h);
            for (g, &d) in gc.as_mut_slice().iter_mut().zip(dlogits.iter()) {
                *g = 0.0 + d;
            }
            kernel::matvec_tn(u.as_slice(), dlogits, &mut tape.dh, u.rows(), n);
            for (dh, &next) in tape.dh.iter_mut().zip(&tape.dh_next) {
                *dh += next;
            }
            // `d/dh_{-1}` is never used: skip it at the first step.
            let dh_prev = (t > 0).then_some(&mut tape.dh_next[..]);
            self.cell.backward(
                tape.inputs[t],
                h_prev,
                h,
                &tape.dh,
                &mut tape.dz,
                &mut grads.cell,
                dh_prev,
            );
        }
    }

    /// Apply one REINFORCE update for a trajectory and its advantage.
    ///
    /// Gradients are clipped element-wise and applied with RMSProp
    /// (gradient *ascent* on the objective); clip, negation and the
    /// optimizer step run as one fused pass per parameter
    /// ([`RmsProp::ascend_clipped`]).
    pub fn reinforce_update(&mut self, actions: &[usize], advantage: f64, config: &UpdateConfig) {
        self.replay(&mut self.tape.borrow_mut(), actions);
        // Anti-collapse guard: when the replayed trajectory's mean entropy
        // sits below the floor, scale the entropy bonus up in proportion.
        // The scaled coefficient is a constant within this update, so the
        // gradient is the exact gradient of the (rescaled) objective.
        let mut entropy_beta = config.entropy_beta;
        if config.entropy_floor > 0.0 {
            let entropies = &self.tape.get_mut().entropy;
            let mean_entropy =
                (entropies.iter().sum::<f64>() / entropies.len().max(1) as f64).max(1e-3);
            if mean_entropy < config.entropy_floor {
                entropy_beta *= config.entropy_floor / mean_entropy;
            }
        }
        self.backward(actions, advantage, entropy_beta);
        let (clip, lr) = (config.gradient_clip, config.learning_rate);
        let grads = &self.grads;
        for (opt, param, grad) in [
            (&mut self.opt_w_x, &mut self.cell.w_x, &grads.cell.w_x),
            (&mut self.opt_w_h, &mut self.cell.w_h, &grads.cell.w_h),
            (&mut self.opt_b, &mut self.cell.b, &grads.cell.b),
        ] {
            opt.set_learning_rate(lr);
            opt.ascend_clipped(param, grad, clip);
        }
        for (((u, c), (gu, gc)), (opt_u, opt_c)) in self
            .heads
            .iter_mut()
            .zip(&grads.heads)
            .zip(self.opt_heads.iter_mut())
        {
            opt_u.set_learning_rate(lr);
            opt_c.set_learning_rate(lr);
            opt_u.ascend_clipped(u, gu, clip);
            opt_c.ascend_clipped(c, gc, clip);
        }
    }

    /// Snapshot weights + optimizer accumulators (see
    /// [`crate::state::PolicyState`]).
    pub(crate) fn state_snapshot(&self) -> crate::state::PolicyState {
        crate::state::PolicyState {
            w_x: self.cell.w_x.clone(),
            w_h: self.cell.w_h.clone(),
            b: self.cell.b.clone(),
            heads: self.heads.clone(),
            opt_cell: [
                self.opt_w_x.cache().cloned(),
                self.opt_w_h.cache().cloned(),
                self.opt_b.cache().cloned(),
            ],
            opt_heads: self
                .opt_heads
                .iter()
                .map(|(u, c)| (u.cache().cloned(), c.cache().cloned()))
                .collect(),
        }
    }

    /// Restore a snapshot taken by
    /// [`state_snapshot`](Self::state_snapshot); panics on any shape
    /// mismatch.
    pub(crate) fn state_restore(&mut self, state: &crate::state::PolicyState) {
        assert_eq!(
            state.heads.len(),
            self.heads.len(),
            "policy snapshot has {} heads, network has {}",
            state.heads.len(),
            self.heads.len()
        );
        assert_eq!(state.w_x.shape(), self.cell.w_x.shape(), "w_x shape");
        assert_eq!(state.w_h.shape(), self.cell.w_h.shape(), "w_h shape");
        assert_eq!(state.b.shape(), self.cell.b.shape(), "b shape");
        for ((u, c), (su, sc)) in self.heads.iter().zip(&state.heads) {
            assert_eq!(su.shape(), u.shape(), "head weight shape");
            assert_eq!(sc.shape(), c.shape(), "head bias shape");
        }
        self.cell.w_x = state.w_x.clone();
        self.cell.w_h = state.w_h.clone();
        self.cell.b = state.b.clone();
        self.heads = state.heads.clone();
        self.opt_w_x.set_cache(state.opt_cell[0].clone());
        self.opt_w_h.set_cache(state.opt_cell[1].clone());
        self.opt_b.set_cache(state.opt_cell[2].clone());
        assert_eq!(
            state.opt_heads.len(),
            self.opt_heads.len(),
            "optimizer snapshot head count"
        );
        for ((opt_u, opt_c), (su, sc)) in self.opt_heads.iter_mut().zip(&state.opt_heads) {
            opt_u.set_cache(su.clone());
            opt_c.set_cache(sc.clone());
        }
    }

    /// Direct access to a head's weight matrix (used by gradient-check
    /// tests).
    #[doc(hidden)]
    pub fn head_weights_mut(&mut self, step: usize) -> &mut Matrix {
        &mut self.heads[step].0
    }

    /// Direct access to the recurrent cell (used by gradient-check tests).
    #[doc(hidden)]
    pub fn cell_mut(&mut self) -> &mut RnnCell {
        &mut self.cell
    }
}

fn sample_categorical<R: Rng>(rng: &mut R, probabilities: &[f64]) -> usize {
    let mut threshold: f64 = rng.gen_range(0.0..1.0);
    for (i, &p) in probabilities.iter().enumerate() {
        if threshold < p {
            return i;
        }
        threshold -= p;
    }
    probabilities.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network(seed: u64) -> PolicyNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        PolicyNetwork::new(&mut rng, vec![4, 3, 17, 9], 16)
    }

    #[test]
    fn sampled_actions_respect_cardinalities() {
        let net = network(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let sample = net.sample_episode(&mut rng, 1.0);
            assert_eq!(sample.actions.len(), 4);
            for (a, &card) in sample.actions.iter().zip(net.cardinalities()) {
                assert!(*a < card);
            }
            assert!(sample.log_prob <= 0.0);
            assert!(sample.mean_entropy >= 0.0);
        }
    }

    #[test]
    fn greedy_episode_is_deterministic_and_valid() {
        let net = network(3);
        let a = net.greedy_episode();
        let b = net.greedy_episode();
        assert_eq!(a, b);
        for (x, &card) in a.iter().zip(net.cardinalities()) {
            assert!(*x < card);
        }
    }

    #[test]
    fn head_gradient_matches_finite_difference() {
        let mut net = network(4);
        let actions = vec![1, 2, 10, 5];
        let head_grads = net.compute_gradients(&actions, 1.0, 0.0).heads.clone();
        // Finite-difference the objective w.r.t. head 2's weights.
        let mut probe = net.clone();
        let param = probe.head_weights_mut(2).clone();
        let report =
            nasaic_tensor::gradcheck::check_gradient(&param, &head_grads[2].0, 1e-5, |w| {
                let mut trial = net.clone();
                *trial.head_weights_mut(2) = w.clone();
                trial.objective(&actions, 1.0, 0.0)
            });
        assert!(report.passes(1e-4), "{report:?}");
    }

    #[test]
    fn recurrent_gradient_matches_finite_difference() {
        let mut net = network(5);
        let actions = vec![0, 1, 3, 8];
        let cell_grads = net.compute_gradients(&actions, 0.7, 0.0).cell.clone();
        let param = net.clone().cell_mut().w_h.clone();
        let report = nasaic_tensor::gradcheck::check_gradient(&param, &cell_grads.w_h, 1e-5, |w| {
            let mut trial = net.clone();
            trial.cell_mut().w_h = w.clone();
            trial.objective(&actions, 0.7, 0.0)
        });
        assert!(report.passes(1e-4), "{report:?}");
    }

    #[test]
    fn entropy_gradient_matches_finite_difference() {
        let mut net = network(6);
        let actions = vec![2, 0, 5, 1];
        let head_grads = net.compute_gradients(&actions, 0.0, 0.5).heads.clone();
        let param = net.heads[0].0.clone();
        let report =
            nasaic_tensor::gradcheck::check_gradient(&param, &head_grads[0].0, 1e-5, |w| {
                let mut trial = net.clone();
                *trial.head_weights_mut(0) = w.clone();
                trial.objective(&actions, 0.0, 0.5)
            });
        assert!(report.passes(1e-4), "{report:?}");
    }

    #[test]
    fn positive_advantage_increases_trajectory_probability() {
        let mut net = network(7);
        let actions = vec![3, 2, 11, 4];
        let before = net.objective(&actions, 1.0, 0.0);
        for _ in 0..20 {
            net.reinforce_update(&actions, 1.0, &UpdateConfig::default());
        }
        let after = net.objective(&actions, 1.0, 0.0);
        assert!(
            after > before,
            "log-prob did not increase: {before} -> {after}"
        );
    }

    #[test]
    fn negative_advantage_decreases_trajectory_probability() {
        let mut net = network(8);
        let actions = vec![0, 0, 0, 0];
        let before = net.objective(&actions, 1.0, 0.0);
        for _ in 0..20 {
            net.reinforce_update(&actions, -1.0, &UpdateConfig::default());
        }
        let after = net.objective(&actions, 1.0, 0.0);
        assert!(
            after < before,
            "log-prob did not decrease: {before} -> {after}"
        );
    }

    #[test]
    fn reinforced_policy_converges_to_target_actions() {
        // A tiny bandit-style check: reward 1 for one specific trajectory,
        // 0 otherwise.  After training, greedy decoding should recover it.
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = PolicyNetwork::new(&mut rng, vec![3, 3, 3], 12);
        let target = vec![2, 0, 1];
        let config = UpdateConfig {
            learning_rate: 0.05,
            entropy_beta: 0.0,
            ..UpdateConfig::default()
        };
        let mut baseline = 0.0;
        for _ in 0..400 {
            let sample = net.sample_episode(&mut rng, 1.0);
            let reward = if sample.actions == target { 1.0 } else { 0.0 };
            baseline = 0.9 * baseline + 0.1 * reward;
            net.reinforce_update(&sample.actions, reward - baseline, &config);
        }
        assert_eq!(net.greedy_episode(), target);
    }

    #[test]
    #[should_panic]
    fn zero_cardinality_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        PolicyNetwork::new(&mut rng, vec![3, 0], 8);
    }
}
