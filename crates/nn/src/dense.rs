//! Fully connected layer: `y = x W + b`.

use crate::mat::Mat;
use crate::param::Param;
use desh_util::Xoshiro256pp;

/// Linear layer with bias. Acts as the output head of the stacked LSTM
/// (projecting hidden state to vocabulary logits in phase 1, or to the
/// 2-state (ΔT, phrase) vector in phases 2/3).
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, shape [in, out].
    pub w: Param,
    /// Bias, shape [1, out].
    pub b: Param,
}

/// Cache from a dense forward pass, consumed by the backward pass.
#[derive(Debug, Clone)]
pub struct DenseCache {
    x: Mat,
}

impl Dense {
    /// New layer with Xavier-initialised weights and zero bias.
    pub fn new(input: usize, output: usize, name: &str, rng: &mut Xoshiro256pp) -> Self {
        Self {
            w: Param::xavier(&format!("{name}.w"), input, output, rng),
            b: Param::zeros(&format!("{name}.b"), 1, output),
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.w.w.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.w.cols()
    }

    /// Forward pass: returns `x W + b` and the cache for backprop.
    pub fn forward(&self, x: &Mat) -> (Mat, DenseCache) {
        let mut y = x.matmul(&self.w.w);
        y.add_row_broadcast(&self.b.w);
        (y, DenseCache { x: x.clone() })
    }

    /// Forward without keeping a cache (inference).
    pub fn infer(&self, x: &Mat) -> Mat {
        let mut y = x.matmul(&self.w.w);
        y.add_row_broadcast(&self.b.w);
        y
    }

    /// Inference into a caller-held output buffer (no allocation once the
    /// buffer has the right shape).
    pub fn infer_into(&self, x: &Mat, y: &mut Mat) {
        x.matmul_into(&self.w.w, y);
        y.add_row_broadcast(&self.b.w);
    }

    /// Inference for one row of a slot-resident batch:
    /// `y.row(r) = x.row(r) @ W + b`, through the same single-row GEMV
    /// kernel a batch=1 [`Dense::infer_into`] uses, leaving every other
    /// row of `y` untouched. Bit-identical to the sequential path.
    pub fn infer_row_into(&self, x: &Mat, r: usize, y: &mut Mat) {
        x.matmul_row_into(r, &self.w.w, y);
        y.add_bias_row(r, &self.b.w);
    }

    /// Wave form of [`Dense::infer_row_into`]: all listed rows in one
    /// call, dense rows sharing weight sweeps through
    /// [`Mat::matmul_rows_into`] — bit-identical per row to the per-row
    /// loop. `rows` must be distinct.
    pub fn infer_rows_into(&self, x: &Mat, rows: &[usize], y: &mut Mat) {
        x.matmul_rows_into(rows, &self.w.w, y);
        for &r in rows {
            y.add_bias_row(r, &self.b.w);
        }
    }

    /// Backward pass: accumulates into `w.g` / `b.g`, returns `dx`.
    pub fn backward(&mut self, cache: &DenseCache, dy: &Mat) -> Mat {
        Self::backward_parts(&self.w.w, &mut self.w.g, &mut self.b.g, cache, dy)
    }

    /// Backward pass into caller-held gradient buffers (`&self`): the
    /// data-parallel trainer's per-shard path, where workers share the
    /// model immutably and each owns its own accumulators.
    pub fn backward_into(&self, cache: &DenseCache, dy: &Mat, dw: &mut Mat, db: &mut Mat) -> Mat {
        Self::backward_parts(&self.w.w, dw, db, cache, dy)
    }

    fn backward_parts(w: &Mat, dw: &mut Mat, db: &mut Mat, cache: &DenseCache, dy: &Mat) -> Mat {
        cache.x.t_matmul_acc(dy, dw);
        db.add_assign(&dy.col_sums());
        dy.matmul_t(w)
    }

    /// Parameters in deterministic order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// Immutable parameter view.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut d = Dense::new(2, 3, "d", &mut rng);
        d.w.w = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        d.b.w = Mat::from_vec(1, 3, vec![0.5, -0.5, 0.0]);
        let x = Mat::from_vec(1, 2, vec![1.0, -1.0]);
        let (y, _) = d.forward(&x);
        assert_eq!(y.data(), &[1.0 - 4.0 + 0.5, 2.0 - 5.0 - 0.5, 3.0 - 6.0]);
    }

    #[test]
    fn backward_gradient_check() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut d = Dense::new(3, 2, "d", &mut rng);
        let x = Mat::from_fn(4, 3, |_, _| rng.f32() - 0.5);
        // Loss = sum(y^2)/2, so dy = y.
        let (y, cache) = d.forward(&x);
        let dx = d.backward(&cache, &y);

        let eps = 1e-3f32;
        // Check dW numerically.
        for idx in 0..6 {
            let orig = d.w.w.data()[idx];
            d.w.w.data_mut()[idx] = orig + eps;
            let lp: f32 = d.infer(&x).data().iter().map(|v| v * v / 2.0).sum();
            d.w.w.data_mut()[idx] = orig - eps;
            let lm: f32 = d.infer(&x).data().iter().map(|v| v * v / 2.0).sum();
            d.w.w.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = d.w.g.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2,
                "dW[{idx}]: num {num} vs ana {ana}"
            );
        }
        // Check dx numerically.
        let mut x2 = x.clone();
        for idx in 0..4 * 3 {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let lp: f32 = d.infer(&x2).data().iter().map(|v| v * v / 2.0).sum();
            x2.data_mut()[idx] = orig - eps;
            let lm: f32 = d.infer(&x2).data().iter().map(|v| v * v / 2.0).sum();
            x2.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dx.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2,
                "dx[{idx}]: num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn grads_accumulate_across_calls() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut d = Dense::new(2, 2, "d", &mut rng);
        let x = Mat::full(1, 2, 1.0);
        let dy = Mat::full(1, 2, 1.0);
        let (_, c1) = d.forward(&x);
        d.backward(&c1, &dy);
        let after_one = d.w.g.clone();
        let (_, c2) = d.forward(&x);
        d.backward(&c2, &dy);
        let mut doubled = after_one.clone();
        doubled.scale(2.0);
        assert_eq!(d.w.g, doubled);
    }
}
