//! A GRU layer (Cho et al. 2014) with full backpropagation through time.
//!
//! The paper argues LSTM is "a preferable choice for Desh over other
//! RNNs"; this layer exists to substantiate that comparison empirically
//! (see the `ablation_rnn` experiment binary) rather than take it on
//! faith. Gate layout in the fused `[B, 3H]` pre-activation is `[r | z |
//! n]` (reset, update, candidate), with the candidate using the *reset*
//! hidden state as in the original formulation:
//!
//! ```text
//! r = σ(x Wxr + h Whr + br)
//! z = σ(x Wxz + h Whz + bz)
//! n = tanh(x Wxn + (r ⊙ h) Whn + bn)
//! h' = (1 - z) ⊙ n + z ⊙ h
//! ```

use crate::act::{dsigmoid_from_out, dtanh_from_out};
use crate::mat::Mat;
use crate::param::Param;
use desh_util::Xoshiro256pp;

/// One GRU layer.
#[derive(Debug, Clone)]
pub struct GruLayer {
    /// Input-to-gates weights, shape [input, 3*hidden], columns `[r|z|n]`.
    pub wx: Param,
    /// Hidden-to-gates weights, shape [hidden, 3*hidden].
    pub wh: Param,
    /// Gate bias, shape [1, 3*hidden].
    pub b: Param,
    hidden: usize,
    input: usize,
}

/// Per-timestep cache for the backward pass.
#[derive(Debug)]
struct StepCache {
    x: Mat,
    h_prev: Mat,
    r: Mat,
    z: Mat,
    n: Mat,
    /// `r ⊙ h_prev`, the candidate's recurrent input.
    rh: Mat,
}

/// Tape recorded by a forward pass.
#[derive(Debug)]
pub struct GruTape {
    steps: Vec<StepCache>,
}

/// Reusable scratch for one GRU layer: fused `[B, 3H]` pre-activations
/// for the input and recurrent halves, plus the candidate's `r ⊙ h` input
/// and its `[B, H]` product with the n-columns of `Wh`. Holding one across
/// timesteps makes `step_into` allocation-free.
#[derive(Debug, Clone, Default)]
pub struct GruScratch {
    pre: Mat,
    hw: Mat,
    rh: Mat,
    rh_n: Mat,
}

impl GruScratch {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl GruLayer {
    /// New layer with Xavier weights.
    pub fn new(input: usize, hidden: usize, name: &str, rng: &mut Xoshiro256pp) -> Self {
        Self {
            wx: Param::xavier(&format!("{name}.wx"), input, 3 * hidden, rng),
            wh: Param::xavier(&format!("{name}.wh"), hidden, 3 * hidden, rng),
            b: Param::zeros(&format!("{name}.b"), 1, 3 * hidden),
            hidden,
            input,
        }
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Shared pre-activation GEMMs into the scratch:
    /// `pre = x @ Wx + b` and `hw = h_prev @ Wh`.
    fn preactivations(&self, x: &Mat, h_prev: &Mat, ws: &mut GruScratch) {
        debug_assert_eq!(x.cols(), self.input);
        debug_assert_eq!(h_prev.cols(), self.hidden);
        x.matmul_into(&self.wx.w, &mut ws.pre);
        ws.pre.add_row_broadcast(&self.b.w);
        h_prev.matmul_into(&self.wh.w, &mut ws.hw);
    }

    /// One step of gate math for the training path. Returns
    /// (r, z, n, rh, h_new); everything transient lives in `ws`.
    fn gates_with(&self, x: &Mat, h_prev: &Mat, ws: &mut GruScratch) -> (Mat, Mat, Mat, Mat, Mat) {
        let batch = x.rows();
        let hsz = self.hidden;
        self.preactivations(x, h_prev, ws);

        let mut r = Mat::zeros(batch, hsz);
        let mut z = Mat::zeros(batch, hsz);
        let mut rh = Mat::zeros(batch, hsz);
        for row in 0..batch {
            // Fused reset/update gate kernel; same per-element math as the
            // inference path so the two stay bitwise consistent.
            crate::simd::gru_gates_train_rz(
                ws.pre.row(row),
                ws.hw.row(row),
                h_prev.row(row),
                r.row_mut(row),
                z.row_mut(row),
                rh.row_mut(row),
            );
        }
        // Candidate uses (r ⊙ h_prev) through the n-columns of Wh, read in
        // place rather than materialising the column slice.
        rh.matmul_cols_into(&self.wh.w, 2 * hsz, 3 * hsz, &mut ws.rh_n);
        let mut n = Mat::zeros(batch, hsz);
        let mut h = Mat::zeros(batch, hsz);
        for row in 0..batch {
            crate::simd::gru_gates_train_nh(
                ws.pre.row(row),
                ws.rh_n.row(row),
                h_prev.row(row),
                z.row(row),
                n.row_mut(row),
                h.row_mut(row),
            );
        }
        (r, z, n, rh, h)
    }

    /// One timestep without recording a tape, updating `h` in place.
    /// Allocation-free once the scratch buffers are warm: the reset gate
    /// only ever exists fused into `r ⊙ h`, and the update gate is
    /// recomputed from the (still intact) pre-activations at combine time.
    pub fn step_into(&self, x: &Mat, h: &mut Mat, ws: &mut GruScratch) {
        let batch = x.rows();
        let hsz = self.hidden;
        self.preactivations(x, h, ws);
        if ws.rh.shape() != (batch, hsz) {
            ws.rh.reset(batch, hsz);
        }
        for row in 0..batch {
            // Fused σ(pre_r + hw_r) ⊙ h pass per batch row.
            crate::simd::gru_rh_step(
                ws.pre.row(row),
                ws.hw.row(row),
                h.row(row),
                ws.rh.row_mut(row),
            );
        }
        ws.rh
            .matmul_cols_into(&self.wh.w, 2 * hsz, 3 * hsz, &mut ws.rh_n);
        for row in 0..batch {
            crate::simd::gru_combine_step(
                ws.pre.row(row),
                ws.hw.row(row),
                ws.rh_n.row(row),
                h.row_mut(row),
            );
        }
    }

    /// One timestep with a throwaway scratch (convenience).
    pub fn step_infer(&self, x: &Mat, h: &mut Mat) {
        let mut ws = GruScratch::new();
        self.step_into(x, h, &mut ws);
    }

    /// Forward over a sequence from zero state, reusing a caller-held
    /// scratch; returns hidden outputs and the tape.
    pub fn forward_seq_ws(&self, xs: &[Mat], ws: &mut GruScratch) -> (Vec<Mat>, GruTape) {
        assert!(!xs.is_empty());
        let batch = xs[0].rows();
        let mut h = Mat::zeros(batch, self.hidden);
        let mut hs = Vec::with_capacity(xs.len());
        let mut steps = Vec::with_capacity(xs.len());
        for x in xs {
            let (r, z, n, rh, h_new) = self.gates_with(x, &h, ws);
            steps.push(StepCache {
                x: x.clone(),
                h_prev: h.clone(),
                r,
                z,
                n,
                rh,
            });
            h = h_new.clone();
            hs.push(h_new);
        }
        (hs, GruTape { steps })
    }

    /// Forward over a sequence with a throwaway scratch.
    pub fn forward_seq(&self, xs: &[Mat]) -> (Vec<Mat>, GruTape) {
        let mut ws = GruScratch::new();
        self.forward_seq_ws(xs, &mut ws)
    }

    /// Inference: final hidden output only, via the streaming step (no
    /// tape allocation at all).
    pub fn infer_seq(&self, xs: &[Mat]) -> Mat {
        assert!(!xs.is_empty());
        let mut h = Mat::zeros(xs[0].rows(), self.hidden);
        let mut ws = GruScratch::new();
        for x in xs {
            self.step_into(x, &mut h, &mut ws);
        }
        h
    }

    /// BPTT. `dhs[t]` is the gradient w.r.t. step-`t` hidden output.
    /// Accumulates parameter gradients, returns per-step input gradients.
    pub fn backward_seq(&mut self, tape: &GruTape, dhs: &[Mat]) -> Vec<Mat> {
        assert_eq!(tape.steps.len(), dhs.len());
        let t_len = tape.steps.len();
        let batch = tape.steps[0].x.rows();
        let hsz = self.hidden;
        let whn = self.wh.w.col_slice(2 * hsz, 3 * hsz);

        let mut dh_next = Mat::zeros(batch, hsz);
        let mut dxs = vec![Mat::zeros(0, 0); t_len];

        for t in (0..t_len).rev() {
            let s = &tape.steps[t];
            let mut dh = dhs[t].clone();
            dh.add_assign(&dh_next);

            // Gate gradients.
            let mut dp = Mat::zeros(batch, 3 * hsz); // pre-activation grads [r|z|n]
            let mut dh_prev = Mat::zeros(batch, hsz);
            let mut drh = Mat::zeros(batch, hsz);
            for row in 0..batch {
                for k in 0..hsz {
                    let z = s.z[(row, k)];
                    let n = s.n[(row, k)];
                    let hp = s.h_prev[(row, k)];
                    let dhv = dh[(row, k)];

                    let dz = dhv * (hp - n);
                    let dn = dhv * (1.0 - z);
                    dh_prev.row_mut(row)[k] += dhv * z;

                    let dpn = dn * dtanh_from_out(n);
                    dp.row_mut(row)[2 * hsz + k] = dpn;
                    dp.row_mut(row)[hsz + k] = dz * dsigmoid_from_out(z);
                }
            }
            // drh = dpn @ Whnᵀ ; dr = drh ⊙ h_prev ; dh_prev += drh ⊙ r.
            let dpn_block = dp.col_slice(2 * hsz, 3 * hsz);
            drh.add_assign(&dpn_block.matmul_t(&whn));
            for row in 0..batch {
                for k in 0..hsz {
                    let r = s.r[(row, k)];
                    let hp = s.h_prev[(row, k)];
                    let dr = drh[(row, k)] * hp;
                    dp.row_mut(row)[k] = dr * dsigmoid_from_out(r);
                    dh_prev.row_mut(row)[k] += drh[(row, k)] * r;
                }
            }

            // Parameter gradients. Wx and b see the full dp; Wh splits: the
            // r/z columns take h_prev, the n columns take rh.
            s.x.t_matmul_acc(&dp, &mut self.wx.g);
            self.b.g.add_assign(&dp.col_sums());
            // Build the Wh gradient blockwise.
            let dp_rz = dp.col_slice(0, 2 * hsz);
            let g_rz = s.h_prev.t_matmul(&dp_rz); // [H, 2H]
            let g_n = s.rh.t_matmul(&dpn_block); // [H, H]
            for i in 0..hsz {
                for j in 0..2 * hsz {
                    self.wh.g[(i, j)] += g_rz[(i, j)];
                }
                for j in 0..hsz {
                    self.wh.g[(i, 2 * hsz + j)] += g_n[(i, j)];
                }
            }

            // Input gradient: dx = dp @ Wxᵀ.
            dxs[t] = dp.matmul_t(&self.wx.w);
            // Recurrent gradient: r/z blocks through Wh, plus candidate path.
            let wh_rz = {
                let mut m = Mat::zeros(hsz, 2 * hsz);
                for i in 0..hsz {
                    for j in 0..2 * hsz {
                        m[(i, j)] = self.wh.w[(i, j)];
                    }
                }
                m
            };
            dh_prev.add_assign(&dp_rz.matmul_t(&wh_rz));
            dh_next = dh_prev;
        }
        dxs
    }

    /// Parameters in deterministic order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }

    /// Immutable view.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mat(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Mat {
        Mat::from_fn(rows, cols, |_, _| rng.f32() - 0.5)
    }

    fn loss_of(layer: &GruLayer, xs: &[Mat]) -> f64 {
        let (hs, _) = layer.forward_seq(xs);
        hs.iter().map(|h| h.sq_norm()).sum::<f64>() * 0.5
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let layer = GruLayer::new(3, 5, "g", &mut rng);
        let xs: Vec<Mat> = (0..6).map(|_| rand_mat(2, 3, &mut rng)).collect();
        let (hs, tape) = layer.forward_seq(&xs);
        assert_eq!(hs.len(), 6);
        assert_eq!(tape.steps.len(), 6);
        for h in &hs {
            assert_eq!(h.shape(), (2, 5));
            // h is a convex combination of tanh outputs and prior h -> |h|<1.
            assert!(h.data().iter().all(|x| x.abs() < 1.0));
        }
    }

    #[test]
    fn gru_weight_gradient_check() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut layer = GruLayer::new(2, 3, "g", &mut rng);
        let xs: Vec<Mat> = (0..4).map(|_| rand_mat(2, 2, &mut rng)).collect();
        let (hs, tape) = layer.forward_seq(&xs);
        layer.backward_seq(&tape, &hs);

        let eps = 1e-3f32;
        for pname in ["wx", "wh", "b"] {
            fn get<'a>(l: &'a mut GruLayer, n: &str) -> &'a mut Param {
                match n {
                    "wx" => &mut l.wx,
                    "wh" => &mut l.wh,
                    _ => &mut l.b,
                }
            }
            let len = get(&mut layer, pname).len();
            let grads = get(&mut layer, pname).g.data().to_vec();
            for s in 0..6usize {
                let idx = (s * 29) % len;
                let orig = get(&mut layer, pname).w.data()[idx];
                get(&mut layer, pname).w.data_mut()[idx] = orig + eps;
                let lp = loss_of(&layer, &xs);
                get(&mut layer, pname).w.data_mut()[idx] = orig - eps;
                let lm = loss_of(&layer, &xs);
                get(&mut layer, pname).w.data_mut()[idx] = orig;
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!(
                    (num - grads[idx]).abs() < 3e-2 * (1.0 + num.abs()),
                    "{pname}[{idx}]: numeric {num} vs analytic {}",
                    grads[idx]
                );
            }
        }
    }

    #[test]
    fn gru_input_gradient_check() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut layer = GruLayer::new(2, 3, "g", &mut rng);
        let mut xs: Vec<Mat> = (0..3).map(|_| rand_mat(1, 2, &mut rng)).collect();
        let (hs, tape) = layer.forward_seq(&xs);
        let dxs = layer.backward_seq(&tape, &hs);
        let eps = 1e-3f32;
        for t in 0..3 {
            for idx in 0..2 {
                let orig = xs[t].data()[idx];
                xs[t].data_mut()[idx] = orig + eps;
                let lp = loss_of(&layer, &xs);
                xs[t].data_mut()[idx] = orig - eps;
                let lm = loss_of(&layer, &xs);
                xs[t].data_mut()[idx] = orig;
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let ana = dxs[t].data()[idx];
                assert!(
                    (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                    "dx[{t}][{idx}]: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn gru_learns_a_simple_pattern() {
        // Regress h -> next scalar of an alternating sequence.
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut layer = GruLayer::new(1, 8, "g", &mut rng);
        let mut head = crate::dense::Dense::new(8, 1, "h", &mut rng);
        let seq: Vec<f32> = (0..20)
            .map(|i| if i % 2 == 0 { 0.9 } else { -0.9 })
            .collect();
        let mut last_loss = f64::MAX;
        for _ in 0..300 {
            let xs: Vec<Mat> = seq[..seq.len() - 1]
                .iter()
                .map(|&v| Mat::from_vec(1, 1, vec![v]))
                .collect();
            let (hs, tape) = layer.forward_seq(&xs);
            // Loss over the last step only.
            let (y, hcache) = head.forward(hs.last().unwrap());
            let target = Mat::from_vec(1, 1, vec![seq[seq.len() - 1]]);
            let (loss, dy) = crate::loss::mse(&y, &target);
            last_loss = loss;
            let dh_last = head.backward(&hcache, &dy);
            let mut dhs: Vec<Mat> = (0..xs.len()).map(|_| Mat::zeros(1, 8)).collect();
            *dhs.last_mut().unwrap() = dh_last;
            layer.backward_seq(&tape, &dhs);
            let mut params = layer.params_mut();
            params.extend(head.params_mut());
            let mut opt = crate::optim::Sgd::new(0.05);
            use crate::optim::Optimizer;
            opt.step(&mut params);
        }
        assert!(last_loss < 0.05, "GRU failed to fit: loss {last_loss}");
    }
}
