//! First-order optimizers for the controller and proxy trainer.
//!
//! The paper trains its controller RNN with RMSProp (initial learning rate
//! 0.99, exponential decay 0.5 every 50 steps); [`RmsProp`] mirrors that
//! configuration, and plain SGD and Adam are provided for the proxy trainer
//! and ablations.

use crate::Matrix;

/// A first-order optimizer that updates one parameter matrix from its
/// gradient.
///
/// Each parameter matrix owns its own optimizer instance, so stateful
/// optimizers (RMSProp, Adam) keep per-parameter accumulators without a
/// registry keyed by name.
pub trait Optimizer {
    /// Apply one update step: mutate `param` using `grad`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `param` and `grad` have different shapes.
    fn step(&mut self, param: &mut Matrix, grad: &Matrix);

    /// The current learning rate.
    fn learning_rate(&self) -> f64;

    /// Override the learning rate (used by decay schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Plain (optionally momentum-accelerated) gradient descent.
#[derive(Debug, Clone)]
pub struct GradientDescent {
    lr: f64,
    momentum: f64,
    velocity: Option<Matrix>,
}

impl GradientDescent {
    /// Create a new SGD optimizer with the given learning rate and no
    /// momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive.
    pub fn new(lr: f64) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// Create an SGD optimizer with classical momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum,
            velocity: None,
        }
    }
}

impl Optimizer for GradientDescent {
    fn step(&mut self, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.shape(), grad.shape(), "optimizer shape mismatch");
        if self.momentum == 0.0 {
            param.axpy(-self.lr, grad);
            return;
        }
        let velocity = self
            .velocity
            .get_or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        for (v, g) in velocity.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *v = self.momentum * *v + g;
        }
        param.axpy(-self.lr, velocity);
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

/// RMSProp optimizer, as used for the NASAIC controller RNN.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f64,
    decay: f64,
    epsilon: f64,
    cache: Option<Matrix>,
}

impl RmsProp {
    /// Create a new RMSProp optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `decay` is outside `[0, 1)`.
    pub fn new(lr: f64, decay: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&decay), "decay must be in [0, 1)");
        Self {
            lr,
            decay,
            epsilon: 1e-8,
            cache: None,
        }
    }

    /// RMSProp with the paper's controller settings (lr = 0.99, decay = 0.9).
    pub fn paper_defaults() -> Self {
        Self::new(0.99, 0.9)
    }

    /// The squared-gradient accumulator (`None` until the first step).
    /// Together with the learning rate this is the optimizer's entire
    /// mutable state, exposed so checkpoints can serialize it.
    pub fn cache(&self) -> Option<&Matrix> {
        self.cache.as_ref()
    }

    /// Restore a previously exported accumulator (see
    /// [`RmsProp::cache`]).  Passing `None` resets the optimizer to its
    /// pre-first-step state.
    pub fn set_cache(&mut self, cache: Option<Matrix>) {
        self.cache = cache;
    }

    /// The decay constant the optimizer was built with.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// One gradient-*ascent* step on `grad` clipped element-wise to
    /// `[-clip, clip]`, in a single pass over the parameter.
    ///
    /// Bit-identical to `grad.clip_inplace(clip)`, negating every element
    /// and then [`Optimizer::step`]: each element goes through the same
    /// operations in the same order, and negation is exact, so fusing
    /// only drops the two intermediate passes and the negated copy.
    ///
    /// # Panics
    ///
    /// Panics if `param` and `grad` have different shapes or `clip` is
    /// negative.
    pub fn ascend_clipped(&mut self, param: &mut Matrix, grad: &Matrix, clip: f64) {
        assert_eq!(param.shape(), grad.shape(), "optimizer shape mismatch");
        assert!(clip >= 0.0, "clip limit must be non-negative");
        let cache = self
            .cache
            .get_or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        for ((p, &raw), c) in param
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(cache.as_mut_slice())
        {
            let g = -(raw.max(-clip).min(clip));
            *c = self.decay * *c + (1.0 - self.decay) * g * g;
            *p -= self.lr * g / (c.sqrt() + self.epsilon);
        }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.shape(), grad.shape(), "optimizer shape mismatch");
        let cache = self
            .cache
            .get_or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        for ((p, g), c) in param
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(cache.as_mut_slice())
        {
            *c = self.decay * *c + (1.0 - self.decay) * g * g;
            *p -= self.lr * g / (c.sqrt() + self.epsilon);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba) used by the proxy trainer.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    step_count: u64,
    first_moment: Option<Matrix>,
    second_moment: Option<Matrix>,
}

impl Adam {
    /// Create a new Adam optimizer with standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step_count: 0,
            first_moment: None,
            second_moment: None,
        }
    }

    /// Number of update steps applied so far.
    pub fn steps(&self) -> u64 {
        self.step_count
    }
}

impl Optimizer for Adam {
    fn step(&mut self, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.shape(), grad.shape(), "optimizer shape mismatch");
        self.step_count += 1;
        let m = self
            .first_moment
            .get_or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        let v = self
            .second_moment
            .get_or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        let t = self.step_count as f64;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (((p, g), mi), vi) in param
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(m.as_mut_slice())
            .zip(v.as_mut_slice())
        {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / bias1;
            let v_hat = *vi / bias2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

/// Exponential step decay schedule: multiply the learning rate by `factor`
/// every `period` steps, mirroring the paper's "exponential decay of 0.5
/// for 50 steps" controller schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct StepDecay {
    initial_lr: f64,
    factor: f64,
    period: u64,
}

impl StepDecay {
    /// Create a decay schedule.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive or `factor > 1`.
    pub fn new(initial_lr: f64, factor: f64, period: u64) -> Self {
        assert!(initial_lr > 0.0, "initial learning rate must be positive");
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        assert!(period > 0, "period must be positive");
        Self {
            initial_lr,
            factor,
            period,
        }
    }

    /// The paper's controller schedule: lr 0.99, halved every 50 steps.
    pub fn paper_defaults() -> Self {
        Self::new(0.99, 0.5, 50)
    }

    /// Learning rate to use at a given (zero-based) step.
    pub fn learning_rate_at(&self, step: u64) -> f64 {
        self.initial_lr * self.factor.powf((step / self.period) as f64)
    }

    /// Apply the schedule to an optimizer for the given step.
    pub fn apply<O: Optimizer>(&self, optimizer: &mut O, step: u64) {
        optimizer.set_learning_rate(self.learning_rate_at(step));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(param: &Matrix) -> Matrix {
        // Gradient of f(x) = 0.5 * ||x - 3||^2  ->  x - 3
        param.map(|v| v - 3.0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = Matrix::filled(2, 2, 0.0);
        let mut opt = GradientDescent::new(0.1);
        for _ in 0..200 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        assert!((p[(0, 0)] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn momentum_converges_faster_than_plain_sgd() {
        let run = |mut opt: GradientDescent| {
            let mut p = Matrix::filled(1, 1, 0.0);
            for step in 0..50 {
                let g = quadratic_grad(&p);
                opt.step(&mut p, &g);
                if (p[(0, 0)] - 3.0).abs() < 1e-3 {
                    return step;
                }
            }
            50
        };
        let plain = run(GradientDescent::new(0.05));
        let momentum = run(GradientDescent::with_momentum(0.05, 0.9));
        assert!(momentum <= plain);
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        let mut p = Matrix::filled(1, 3, 10.0);
        let mut opt = RmsProp::new(0.05, 0.9);
        for _ in 0..2000 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        for &v in p.as_slice() {
            assert!((v - 3.0).abs() < 0.05, "value {v}");
        }
    }

    #[test]
    fn fused_clipped_ascent_matches_clip_negate_step() {
        // Gradients past the clip, signed zeros and a NaN, over several
        // steps so the accumulator carries history.
        let grads = [
            [7.5, -0.25, 0.0, -0.0, -9.0, f64::NAN],
            [0.5, 6.0, -0.0, 1e-3, -2.0, 3.0],
            [-5.0, 5.0, 0.125, 0.0, 4.0, -7.0],
        ];
        let mut fused_param = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.0, -0.0, 0.5, 3.0]);
        let mut plain_param = fused_param.clone();
        let mut fused = RmsProp::new(0.05, 0.9);
        let mut plain = RmsProp::new(0.05, 0.9);
        for g in grads {
            let grad = Matrix::from_vec(2, 3, g.to_vec());
            fused.ascend_clipped(&mut fused_param, &grad, 5.0);
            let mut negated = grad.clone();
            negated.clip_inplace(5.0);
            negated.map_inplace(|v| -v);
            plain.step(&mut plain_param, &negated);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused_param), bits(&plain_param));
            assert_eq!(bits(fused.cache().unwrap()), bits(plain.cache().unwrap()));
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Matrix::filled(1, 3, -5.0);
        let mut opt = Adam::new(0.05);
        for _ in 0..2000 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        for &v in p.as_slice() {
            assert!((v - 3.0).abs() < 0.05, "value {v}");
        }
        assert_eq!(opt.steps(), 2000);
    }

    #[test]
    fn step_decay_schedule_matches_paper_shape() {
        let schedule = StepDecay::paper_defaults();
        assert!((schedule.learning_rate_at(0) - 0.99).abs() < 1e-12);
        assert!((schedule.learning_rate_at(49) - 0.99).abs() < 1e-12);
        assert!((schedule.learning_rate_at(50) - 0.495).abs() < 1e-12);
        assert!((schedule.learning_rate_at(100) - 0.2475).abs() < 1e-12);
    }

    #[test]
    fn step_decay_applies_to_optimizer() {
        let mut opt = RmsProp::paper_defaults();
        let schedule = StepDecay::paper_defaults();
        schedule.apply(&mut opt, 150);
        assert!((opt.learning_rate() - 0.99 * 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let mut p = Matrix::zeros(2, 2);
        let g = Matrix::zeros(1, 2);
        GradientDescent::new(0.1).step(&mut p, &g);
    }

    #[test]
    #[should_panic]
    fn negative_learning_rate_rejected() {
        GradientDescent::new(-0.1);
    }
}
