//! A minimal recurrent cell with manual backpropagation.
//!
//! The controller uses an Elman-style recurrent core
//! `h_t = tanh(W_x x_t + W_h h_{t-1} + b)`.  Keeping the cell simple makes
//! hand-written backpropagation-through-time tractable and verifiable with
//! finite differences (see the tests here and in [`crate::policy`]).
//!
//! The input `x_t` is always a one-hot vector (the previous decision, or
//! the start token), so the cell takes it as an index: `W_x x_t` is the
//! column gather [`kernel::matvec_onehot`] and the `W_x` gradient is the
//! one-column update [`kernel::add_outer_onehot`], both bit-identical to
//! the dense one-hot products on finite values.  The steps work on
//! caller-owned slices (the policy's tape) and allocate nothing.

use nasaic_tensor::{init, kernel, Matrix};
use rand::Rng;

/// Parameters of the recurrent cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnCell {
    /// Input-to-hidden weights (`hidden x input`).
    pub w_x: Matrix,
    /// Hidden-to-hidden weights (`hidden x hidden`).
    pub w_h: Matrix,
    /// Hidden bias (`hidden x 1`).
    pub b: Matrix,
}

/// Accumulated parameter gradients for the cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnGradients {
    /// Gradient of `w_x`.
    pub w_x: Matrix,
    /// Gradient of `w_h`.
    pub w_h: Matrix,
    /// Gradient of `b`.
    pub b: Matrix,
}

impl RnnGradients {
    /// Reset every gradient to `+0.0`.
    pub fn zero(&mut self) {
        for g in [&mut self.w_x, &mut self.w_h, &mut self.b] {
            g.as_mut_slice().fill(0.0);
        }
    }
}

impl RnnCell {
    /// Create a cell with Xavier-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new<R: Rng>(rng: &mut R, input_size: usize, hidden_size: usize) -> Self {
        assert!(
            input_size > 0 && hidden_size > 0,
            "cell sizes must be positive"
        );
        Self {
            w_x: init::xavier_uniform(rng, hidden_size, input_size),
            w_h: init::xavier_uniform(rng, hidden_size, hidden_size),
            b: Matrix::zeros(hidden_size, 1),
        }
    }

    /// Hidden state dimensionality.
    pub fn hidden_size(&self) -> usize {
        self.w_h.rows()
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.w_x.cols()
    }

    /// One forward step with the one-hot input `e_input`: writes
    /// `h = tanh((W_x e_input + W_h h_prev) + b)`.  `wx` is scratch of
    /// hidden size.
    pub fn forward(&self, input: usize, h_prev: &[f64], wx: &mut [f64], h: &mut [f64]) {
        let (hidden, inputs) = (self.hidden_size(), self.input_size());
        kernel::matvec_onehot(self.w_x.as_slice(), input, wx, hidden, inputs);
        kernel::matvec(self.w_h.as_slice(), h_prev, h, hidden, hidden);
        for ((z, &x), &b) in h.iter_mut().zip(wx.iter()).zip(self.b.as_slice()) {
            *z = ((x + *z) + b).tanh();
        }
    }

    /// One backward step of the step `(input, h_prev) -> h`.
    ///
    /// `dh` is the gradient flowing into the step's hidden state (from the
    /// output head and from the next time step); `dz` is scratch for the
    /// pre-activation gradient.  Gradients for the cell parameters are
    /// accumulated into `grads`, which must start from
    /// [`zero_gradients`](Self::zero_gradients) or [`RnnGradients::zero`]
    /// (the one-column `w_x` update relies on holding no `-0.0`; see
    /// [`kernel::add_outer_onehot`]).  When `dh_prev` is given it receives the
    /// gradient with respect to the previous hidden state, so the caller
    /// can continue the backward sweep.
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        input: usize,
        h_prev: &[f64],
        h: &[f64],
        dh: &[f64],
        dz: &mut [f64],
        grads: &mut RnnGradients,
        dh_prev: Option<&mut [f64]>,
    ) {
        // dz = dh * (1 - h^2)   (tanh derivative)
        for ((z, &g), &h) in dz.iter_mut().zip(dh).zip(h) {
            *z = g * (1.0 - h * h);
        }
        kernel::add_outer_onehot(grads.w_x.as_mut_slice(), dz, input, self.input_size());
        kernel::add_outer(grads.w_h.as_mut_slice(), dz, h_prev);
        for (g, &z) in grads.b.as_mut_slice().iter_mut().zip(dz.iter()) {
            *g += z;
        }
        if let Some(dh_prev) = dh_prev {
            let hidden = self.hidden_size();
            kernel::matvec_tn(self.w_h.as_slice(), dz, dh_prev, hidden, hidden);
        }
    }

    /// Zero-valued gradient buffers matching this cell's shapes.
    pub fn zero_gradients(&self) -> RnnGradients {
        RnnGradients {
            w_x: Matrix::zeros(self.w_x.rows(), self.w_x.cols()),
            w_h: Matrix::zeros(self.w_h.rows(), self.w_h.cols()),
            b: Matrix::zeros(self.b.rows(), self.b.cols()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Run `inputs` from the zero state; returns every hidden state,
    /// `h_0 = 0` first.
    fn unroll(cell: &RnnCell, inputs: &[usize]) -> Vec<Vec<f64>> {
        let n = cell.hidden_size();
        let mut states = vec![vec![0.0; n]];
        let mut wx = vec![0.0; n];
        for &input in inputs {
            let mut h = vec![0.0; n];
            cell.forward(input, states.last().unwrap(), &mut wx, &mut h);
            states.push(h);
        }
        states
    }

    /// Backpropagate `d(sum h_T)/d(params)` through an unrolled sequence.
    fn sum_last_gradients(cell: &RnnCell, inputs: &[usize]) -> RnnGradients {
        let n = cell.hidden_size();
        let states = unroll(cell, inputs);
        let mut grads = cell.zero_gradients();
        let mut dh = vec![1.0; n];
        let mut dz = vec![0.0; n];
        for t in (0..inputs.len()).rev() {
            let mut dh_prev = vec![0.0; n];
            cell.backward(
                inputs[t],
                &states[t],
                &states[t + 1],
                &dh,
                &mut dz,
                &mut grads,
                Some(&mut dh_prev),
            );
            dh = dh_prev;
        }
        grads
    }

    #[test]
    fn forward_produces_bounded_activations() {
        let mut rng = StdRng::seed_from_u64(1);
        let cell = RnnCell::new(&mut rng, 4, 8);
        let states = unroll(&cell, &[3]);
        assert_eq!(states[1].len(), 8);
        assert!(states[1].iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn hidden_state_carries_information_across_steps() {
        let mut rng = StdRng::seed_from_u64(2);
        let cell = RnnCell::new(&mut rng, 3, 6);
        let after_0_then_1 = unroll(&cell, &[0, 1]);
        let only_1 = unroll(&cell, &[1]);
        assert_ne!(after_0_then_1[2], only_1[1]);
    }

    #[test]
    fn forward_matches_the_dense_one_hot_composition() {
        let mut rng = StdRng::seed_from_u64(6);
        let cell = RnnCell::new(&mut rng, 5, 7);
        let h_prev: Vec<f64> = (0..7).map(|i| 0.1 * i as f64 - 0.3).collect();
        for input in 0..5 {
            let mut x = Matrix::zeros(5, 1);
            x[(input, 0)] = 1.0;
            let z = &(&cell.w_x.matmul_reference(&x)
                + &cell.w_h.matmul_reference(&Matrix::col_vector(&h_prev)))
                + &cell.b;
            let mut h = vec![0.0; 7];
            cell.forward(input, &h_prev, &mut [0.0; 7], &mut h);
            let dense: Vec<u64> = z.as_slice().iter().map(|v| v.tanh().to_bits()).collect();
            let fast: Vec<u64> = h.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast, dense);
        }
    }

    #[test]
    fn backward_gradient_matches_finite_difference_for_wx() {
        // Loss = sum(h) after a single step; check dLoss/dW_x numerically
        // (every column but the input's has a zero gradient).
        let mut rng = StdRng::seed_from_u64(3);
        let cell = RnnCell::new(&mut rng, 3, 4);
        let grads = sum_last_gradients(&cell, &[1]);
        let loss = |w: &Matrix| -> f64 {
            let mut trial = cell.clone();
            trial.w_x = w.clone();
            unroll(&trial, &[1])[1].iter().sum()
        };
        let report = nasaic_tensor::gradcheck::check_gradient(&cell.w_x, &grads.w_x, 1e-5, loss);
        assert!(report.passes(1e-5), "{report:?}");
    }

    #[test]
    fn backward_gradient_matches_finite_difference_for_wh_over_two_steps() {
        // Two chained steps, loss = sum(h2): checks the recurrent path.
        let mut rng = StdRng::seed_from_u64(4);
        let cell = RnnCell::new(&mut rng, 2, 3);
        let inputs = [0, 1];
        let grads = sum_last_gradients(&cell, &inputs);
        let loss = |w: &Matrix| -> f64 {
            let mut trial = cell.clone();
            trial.w_h = w.clone();
            unroll(&trial, &inputs)[2].iter().sum()
        };
        let report = nasaic_tensor::gradcheck::check_gradient(&cell.w_h, &grads.w_h, 1e-5, loss);
        assert!(report.passes(1e-4), "{report:?}");
    }

    #[test]
    #[should_panic]
    fn zero_sized_cell_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        RnnCell::new(&mut rng, 0, 4);
    }
}
