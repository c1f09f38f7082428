//! A single LSTM layer with full backpropagation through time.
//!
//! Follows the classic Hochreiter & Schmidhuber formulation the paper cites:
//! input, forget, and output sigmoid gates plus a tanh candidate, with the
//! cell state carrying long-term memory. Gate pre-activations are computed
//! as one fused `[B, 4H]` GEMM per timestep; columns are laid out in
//! `[i | f | g | o]` order.

use crate::act::{dsigmoid_from_out, dtanh_from_out};
use crate::mat::Mat;
use crate::param::Param;
use desh_util::Xoshiro256pp;

/// One LSTM layer.
#[derive(Debug, Clone)]
pub struct LstmLayer {
    /// Input-to-gates weights, shape [input, 4*hidden].
    pub wx: Param,
    /// Hidden-to-gates (recurrent) weights, shape [hidden, 4*hidden].
    pub wh: Param,
    /// Gate bias, shape [1, 4*hidden]. Forget-gate slice initialised to 1.0
    /// (the standard trick so early training does not forget everything).
    pub b: Param,
    hidden: usize,
    input: usize,
}

/// Per-timestep intermediate values needed by the backward pass. A step's
/// `h`/`c` are the next step's `h_prev`/`c_prev`.
#[derive(Debug, Clone, Default)]
struct StepCache {
    x: Mat,
    i: Mat,
    f: Mat,
    g: Mat,
    o: Mat,
    c: Mat,
    h: Mat,
}

/// Tape recorded by a forward pass over a sequence. Recording into a tape
/// that already holds steps reuses their buffers, so a trainer that keeps
/// one tape per layer allocates nothing per step once warm.
#[derive(Debug, Clone, Default)]
pub struct LstmTape {
    steps: Vec<StepCache>,
    len: usize,
    /// `[batch, hidden]` zeros: the `h_prev`/`c_prev` of step 0.
    zeros: Mat,
}

impl LstmTape {
    /// Number of recorded timesteps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-step hidden outputs of the recorded pass.
    pub fn hs(&self) -> impl ExactSizeIterator<Item = &Mat> {
        self.steps[..self.len].iter().map(|s| &s.h)
    }

    /// `(h_prev, c_prev)` of step `t`.
    fn prev(&self, t: usize) -> (&Mat, &Mat) {
        match t {
            0 => (&self.zeros, &self.zeros),
            _ => (&self.steps[t - 1].h, &self.steps[t - 1].c),
        }
    }
}

/// Recurrent state (h, c) carried between timesteps.
#[derive(Debug, Clone)]
pub struct LstmState {
    /// Hidden output, shape [batch, hidden].
    pub h: Mat,
    /// Cell state, shape [batch, hidden].
    pub c: Mat,
}

impl LstmState {
    /// Zero state for a batch.
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        Self {
            h: Mat::zeros(batch, hidden),
            c: Mat::zeros(batch, hidden),
        }
    }

    /// Reset to zeros in place, keeping the allocations.
    pub fn clear(&mut self) {
        self.h.clear();
        self.c.clear();
    }
}

/// Reusable scratch for one LSTM layer: the fused `[B, 4H]` gate
/// pre-activation buffer, plus the BPTT buffers of the training path.
/// Holding one of these across timesteps removes every per-step
/// allocation from the inference path and from the backward pass.
#[derive(Debug, Clone, Default)]
pub struct LstmScratch {
    pre: Mat,
    /// Gate pre-activation gradients `[B, 4H]` in i|f|g|o order.
    dp: Mat,
    /// Gradient flowing into the previous step's hidden output.
    dh_next: Mat,
    /// Gradient flowing into the previous step's cell state.
    dc_next: Mat,
}

impl LstmScratch {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LstmLayer {
    /// New layer with Xavier weights and forget-bias 1.
    pub fn new(input: usize, hidden: usize, name: &str, rng: &mut Xoshiro256pp) -> Self {
        let mut b = Param::zeros(&format!("{name}.b"), 1, 4 * hidden);
        for c in hidden..2 * hidden {
            b.w.data_mut()[c] = 1.0;
        }
        Self {
            wx: Param::xavier(&format!("{name}.wx"), input, 4 * hidden, rng),
            wh: Param::xavier(&format!("{name}.wh"), hidden, 4 * hidden, rng),
            b,
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

    /// Fused gate pre-activations into the scratch buffer:
    /// `pre = x @ Wx + h_prev @ Wh + b`, all in place. Both the tape-
    /// recording forward pass and the zero-allocation inference step go
    /// through this single routine, so their outputs are bit-identical.
    fn preactivations(&self, x: &Mat, h_prev: &Mat, ws: &mut LstmScratch) {
        debug_assert_eq!(x.cols(), self.input);
        debug_assert_eq!(h_prev.cols(), self.hidden);
        x.matmul_into(&self.wx.w, &mut ws.pre);
        h_prev.matmul_acc(&self.wh.w, &mut ws.pre);
        ws.pre.add_row_broadcast(&self.b.w);
    }

    /// One timestep without recording a tape (inference). Allocation-free
    /// apart from lazily sizing the scratch on first use: the gate
    /// nonlinearities and the cell update are applied directly to the
    /// state matrices.
    pub fn step_into(&self, x: &Mat, state: &mut LstmState, ws: &mut LstmScratch) {
        let batch = x.rows();
        let hsz = self.hidden;
        self.preactivations(x, &state.h, ws);
        debug_assert_eq!(hsz, state.c.cols());
        for r in 0..batch {
            // Fused gate kernel: sigmoid/tanh over all four gate blocks
            // plus the cell/hidden update in one dispatched pass.
            crate::simd::lstm_gates_step(ws.pre.row(r), state.c.row_mut(r), state.h.row_mut(r));
        }
    }

    /// Step only the listed rows of a slot-resident batch. Each row of
    /// `x`/`state` holds an independent stream (one fleet node), and only
    /// `rows` carry a live event this wave; the other rows' state is left
    /// untouched. The wave's pre-activations go through
    /// [`Mat::matmul_rows_into`]/[`Mat::matmul_rows_acc`], which fuse
    /// dense rows so one sweep of the weight matrices feeds the whole
    /// wave — but fold every output element in the identical order the
    /// batch=1 kernels use, so each stream's state stays bit-identical
    /// to its sequential history (the property the capsule-replay tests
    /// pin down). `rows` must be distinct — they are independent streams,
    /// which is also what makes hoisting the GEMVs ahead of the gate
    /// updates legal (no row reads another row's state).
    pub fn step_rows_into(
        &self,
        x: &Mat,
        rows: &[usize],
        state: &mut LstmState,
        ws: &mut LstmScratch,
    ) {
        debug_assert_eq!(x.cols(), self.input);
        debug_assert_eq!(state.h.cols(), self.hidden);
        debug_assert_eq!(state.h.rows(), x.rows());
        if ws.pre.shape() != (x.rows(), 4 * self.hidden) {
            ws.pre.reset(x.rows(), 4 * self.hidden);
        }
        x.matmul_rows_into(rows, &self.wx.w, &mut ws.pre);
        state.h.matmul_rows_acc(rows, &self.wh.w, &mut ws.pre);
        for &r in rows {
            ws.pre.add_bias_row(r, &self.b.w);
            crate::simd::lstm_gates_step(ws.pre.row(r), state.c.row_mut(r), state.h.row_mut(r));
        }
    }

    /// One timestep without a caller-provided scratch (convenience; pays
    /// one buffer allocation). Hot loops should hold an [`LstmScratch`]
    /// and call [`LstmLayer::step_into`].
    pub fn step_infer(&self, x: &Mat, state: &mut LstmState) {
        let mut ws = LstmScratch::new();
        self.step_into(x, state, &mut ws);
    }

    /// Forward over a full sequence starting from a zero state, recording
    /// every step into `tape` (whose buffers are reused) and using `ws`
    /// for the gate pre-activations. The per-step hidden outputs are
    /// [`LstmTape::hs`].
    pub fn forward_seq_into<'a>(
        &self,
        xs: impl ExactSizeIterator<Item = &'a Mat>,
        ws: &mut LstmScratch,
        tape: &mut LstmTape,
    ) {
        assert!(xs.len() > 0);
        let hsz = self.hidden;
        if tape.steps.len() < xs.len() {
            tape.steps.resize_with(xs.len(), StepCache::default);
        }
        tape.len = xs.len();
        for (t, x) in xs.enumerate() {
            let batch = x.rows();
            if t == 0 {
                tape.zeros.reset(batch, hsz);
            }
            let (done, rest) = tape.steps.split_at_mut(t);
            let (h_prev, c_prev) = match done.last() {
                Some(p) => (&p.h, &p.c),
                None => (&tape.zeros, &tape.zeros),
            };
            self.preactivations(x, h_prev, ws);
            let s = &mut rest[0];
            s.x.copy_from(x);
            for m in [&mut s.i, &mut s.f, &mut s.g, &mut s.o, &mut s.c, &mut s.h] {
                if m.shape() != (batch, hsz) {
                    m.reset(batch, hsz);
                }
            }
            for r in 0..batch {
                // Same fused kernel math as `step_into`, so the tape path
                // and the scratch path agree bitwise under every backend.
                crate::simd::lstm_gates_train(
                    ws.pre.row(r),
                    c_prev.row(r),
                    s.i.row_mut(r),
                    s.f.row_mut(r),
                    s.g.row_mut(r),
                    s.o.row_mut(r),
                    s.c.row_mut(r),
                    s.h.row_mut(r),
                );
            }
        }
    }

    /// Forward over a full sequence with a throwaway scratch and tape.
    /// Returns the per-step hidden outputs and the tape for backprop.
    pub fn forward_seq(&self, xs: &[Mat]) -> (Vec<Mat>, LstmTape) {
        let mut tape = LstmTape::default();
        self.forward_seq_into(xs.iter(), &mut LstmScratch::new(), &mut tape);
        (tape.hs().cloned().collect(), tape)
    }

    /// Inference over a sequence: only the final hidden output.
    pub fn infer_seq(&self, xs: &[Mat]) -> Mat {
        assert!(!xs.is_empty());
        let mut state = LstmState::zeros(xs[0].rows(), self.hidden);
        let mut ws = LstmScratch::new();
        for x in xs {
            self.step_into(x, &mut state, &mut ws);
        }
        state.h
    }

    /// Backpropagation through time. `dhs[t]` is the loss gradient w.r.t.
    /// the step-`t` hidden output (zero matrices for steps without loss).
    /// Accumulates parameter gradients and returns `dxs` per step.
    pub fn backward_seq(&mut self, tape: &LstmTape, dhs: &[Mat]) -> Vec<Mat> {
        let mut dxs = Vec::new();
        Self::backward_seq_parts(
            self.hidden,
            &self.wx.w,
            &self.wh.w,
            [&mut self.wx.g, &mut self.wh.g, &mut self.b.g],
            tape,
            dhs,
            &mut LstmScratch::new(),
            Some(&mut dxs),
        );
        dxs
    }

    /// BPTT into caller-held gradient buffers `[dwx, dwh, db]` (`&self`):
    /// the data-parallel trainer's per-shard path. Buffer shapes must
    /// match `wx`/`wh`/`b`. The per-step input gradients go into `dxs`
    /// (resized to the tape length, buffers reused); pass `None` when the
    /// caller would discard them and their `dp · Wxᵀ` products are
    /// skipped.
    pub fn backward_seq_into(
        &self,
        tape: &LstmTape,
        dhs: &[Mat],
        grads: [&mut Mat; 3],
        ws: &mut LstmScratch,
        dxs: Option<&mut Vec<Mat>>,
    ) {
        Self::backward_seq_parts(
            self.hidden,
            &self.wx.w,
            &self.wh.w,
            grads,
            tape,
            dhs,
            ws,
            dxs,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn backward_seq_parts(
        hsz: usize,
        wx: &Mat,
        wh: &Mat,
        [dwx, dwh, db]: [&mut Mat; 3],
        tape: &LstmTape,
        dhs: &[Mat],
        ws: &mut LstmScratch,
        mut dxs: Option<&mut Vec<Mat>>,
    ) {
        let t_len = tape.len();
        assert_eq!(t_len, dhs.len());
        let batch = tape.steps[0].x.rows();
        if let Some(dxs) = dxs.as_deref_mut() {
            dxs.resize_with(t_len, Mat::default);
        }
        let LstmScratch {
            dp,
            dh_next,
            dc_next,
            ..
        } = ws;
        dh_next.reset(batch, hsz);
        dc_next.reset(batch, hsz);
        if dp.shape() != (batch, 4 * hsz) {
            dp.reset(batch, 4 * hsz);
        }

        for t in (0..t_len).rev() {
            let s = &tape.steps[t];
            let (h_prev, c_prev) = tape.prev(t);

            // dP holds gate pre-activation gradients [B, 4H] in i|f|g|o
            // order; dc_next is updated in place to this step's dc_prev.
            for r in 0..batch {
                let (c, o) = (&s.c.row(r)[..hsz], &s.o.row(r)[..hsz]);
                let (i, f, g) = (&s.i.row(r)[..hsz], &s.f.row(r)[..hsz], &s.g.row(r)[..hsz]);
                let cp = &c_prev.row(r)[..hsz];
                let (dh_in, dhn) = (&dhs[t].row(r)[..hsz], &dh_next.row(r)[..hsz]);
                let dcn = &mut dc_next.row_mut(r)[..hsz];
                let (dpi, rest) = dp.row_mut(r).split_at_mut(hsz);
                let (dpf, rest) = rest.split_at_mut(hsz);
                let (dpg, dpo) = rest.split_at_mut(hsz);
                for k in 0..hsz {
                    let tc = c[k].tanh();
                    let dh_v = dh_in[k] + dhn[k];

                    let do_v = dh_v * tc;
                    let dc = dcn[k] + dh_v * o[k] * dtanh_from_out(tc);

                    let di = dc * g[k];
                    let df = dc * cp[k];
                    let dg = dc * i[k];
                    dcn[k] = dc * f[k];

                    dpi[k] = di * dsigmoid_from_out(i[k]);
                    dpf[k] = df * dsigmoid_from_out(f[k]);
                    dpg[k] = dg * dtanh_from_out(g[k]);
                    dpo[k] = do_v * dsigmoid_from_out(o[k]);
                }
            }

            s.x.t_matmul_acc(dp, dwx);
            h_prev.t_matmul_acc(dp, dwh);
            db.add_assign(&dp.col_sums());

            if let Some(dxs) = dxs.as_deref_mut() {
                dp.matmul_t_into(wx, &mut dxs[t]);
            }
            if t > 0 {
                dp.matmul_t_into(wh, dh_next);
            }
        }
    }

    /// Parameters in deterministic order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }

    /// Immutable parameter view.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.b]
    }
}

/// Test-only reference for bitwise checks: the weight-gradient product as
/// a plain zero-skipping loop, and BPTT written with per-step temporaries
/// and element indexing.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// `Aᵀ @ B` by the original zero-skipping k-ascending loop.
    pub(crate) fn t_matmul(a: &Mat, b: &Mat) -> Mat {
        let (k, m, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Mat::zeros(m, n);
        for kk in 0..k {
            let a_row = &a.data()[kk * m..(kk + 1) * m];
            let b_row = &b.data()[kk * n..(kk + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out.data_mut()[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// BPTT over a recorded tape with per-step temporaries, element
    /// indexing and `dW += t_matmul(..)`.
    pub(crate) fn backward_seq(
        layer: &LstmLayer,
        tape: &LstmTape,
        dhs: &[Mat],
        [dwx, dwh, db]: [&mut Mat; 3],
    ) -> Vec<Mat> {
        let hsz = layer.hidden;
        let t_len = tape.len();
        let batch = tape.steps[0].x.rows();
        let mut dh_next = Mat::zeros(batch, hsz);
        let mut dc_next = Mat::zeros(batch, hsz);
        let mut dxs = vec![Mat::zeros(0, 0); t_len];
        for t in (0..t_len).rev() {
            let s = &tape.steps[t];
            let (h_prev, c_prev) = tape.prev(t);
            let mut dh = dhs[t].clone();
            dh.add_assign(&dh_next);
            let mut dp = Mat::zeros(batch, 4 * hsz);
            let mut dc_prev = Mat::zeros(batch, hsz);
            for r in 0..batch {
                for k in 0..hsz {
                    let c = s.c.row(r)[k];
                    let tc = c.tanh();
                    let o = s.o.row(r)[k];
                    let i = s.i.row(r)[k];
                    let f = s.f.row(r)[k];
                    let g = s.g.row(r)[k];
                    let dh_v = dh.row(r)[k];
                    let do_v = dh_v * tc;
                    let dc = dc_next.row(r)[k] + dh_v * o * dtanh_from_out(tc);
                    let di = dc * g;
                    let df = dc * c_prev.row(r)[k];
                    let dg = dc * i;
                    dc_prev.row_mut(r)[k] = dc * f;
                    let row = dp.row_mut(r);
                    row[k] = di * dsigmoid_from_out(i);
                    row[hsz + k] = df * dsigmoid_from_out(f);
                    row[2 * hsz + k] = dg * dtanh_from_out(g);
                    row[3 * hsz + k] = do_v * dsigmoid_from_out(o);
                }
            }
            dwx.add_assign(&t_matmul(&s.x, &dp));
            dwh.add_assign(&t_matmul(h_prev, &dp));
            db.add_assign(&dp.col_sums());
            dxs[t] = dp.matmul_t(&layer.wx.w);
            dh_next = dp.matmul_t(&layer.wh.w);
            dc_next = dc_prev;
        }
        dxs
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Scalar loss used for gradient checking: L = 0.5 * sum over all steps
    /// of ||h_t||^2, so dL/dh_t = h_t.
    fn loss_of(layer: &LstmLayer, xs: &[Mat]) -> f64 {
        let (hs, _) = layer.forward_seq(xs);
        hs.iter().map(|h| h.sq_norm()).sum::<f64>() * 0.5
    }

    pub(crate) fn rand_mat(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Mat {
        Mat::from_fn(rows, cols, |_, _| rng.f32() - 0.5)
    }

    #[test]
    fn forward_shapes() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let layer = LstmLayer::new(3, 5, "l", &mut rng);
        let xs: Vec<Mat> = (0..4).map(|_| rand_mat(2, 3, &mut rng)).collect();
        let (hs, tape) = layer.forward_seq(&xs);
        assert_eq!(hs.len(), 4);
        assert_eq!(tape.len(), 4);
        assert!(hs.iter().all(|h| h.shape() == (2, 5)));
    }

    #[test]
    fn hidden_values_bounded() {
        // h = o * tanh(c) with o in (0,1) and tanh in (-1,1) -> |h| < 1.
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let layer = LstmLayer::new(4, 6, "l", &mut rng);
        let xs: Vec<Mat> = (0..10).map(|_| rand_mat(3, 4, &mut rng)).collect();
        let (hs, _) = layer.forward_seq(&xs);
        for h in hs {
            assert!(h.data().iter().all(|x| x.abs() < 1.0));
        }
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let layer = LstmLayer::new(2, 3, "l", &mut rng);
        let b = layer.b.w.data();
        assert!(b[0..3].iter().all(|&x| x == 0.0)); // input gate
        assert!(b[3..6].iter().all(|&x| x == 1.0)); // forget gate
        assert!(b[6..12].iter().all(|&x| x == 0.0)); // candidate + output
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let layer = LstmLayer::new(3, 4, "l", &mut rng);
        let xs: Vec<Mat> = (0..5).map(|_| rand_mat(2, 3, &mut rng)).collect();
        let (hs, _) = layer.forward_seq(&xs);
        let last = layer.infer_seq(&xs);
        assert_eq!(last, hs[4]);
    }

    #[test]
    fn bptt_weight_gradient_check() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut layer = LstmLayer::new(2, 3, "l", &mut rng);
        let xs: Vec<Mat> = (0..4).map(|_| rand_mat(2, 2, &mut rng)).collect();

        let (hs, tape) = layer.forward_seq(&xs);
        let dhs: Vec<Mat> = hs.clone();
        layer.backward_seq(&tape, &dhs);

        let eps = 1e-3f32;
        // Spot-check a sample of weights in each parameter tensor.
        for (pname, pick) in [("wx", 5usize), ("wh", 7), ("b", 3)] {
            for s in 0..pick {
                let (len, ana) = {
                    let p = match pname {
                        "wx" => &layer.wx,
                        "wh" => &layer.wh,
                        _ => &layer.b,
                    };
                    (p.len(), p.g.data().to_vec())
                };
                let idx = (s * 31) % len;
                fn get<'a>(layer: &'a mut LstmLayer, pname: &str) -> &'a mut Param {
                    match pname {
                        "wx" => &mut layer.wx,
                        "wh" => &mut layer.wh,
                        _ => &mut layer.b,
                    }
                }
                let orig = get(&mut layer, pname).w.data()[idx];
                get(&mut layer, pname).w.data_mut()[idx] = orig + eps;
                let lp = loss_of(&layer, &xs);
                get(&mut layer, pname).w.data_mut()[idx] = orig - eps;
                let lm = loss_of(&layer, &xs);
                get(&mut layer, pname).w.data_mut()[idx] = orig;
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!(
                    (num - ana[idx]).abs() < 3e-2 * (1.0 + num.abs()),
                    "{pname}[{idx}]: numeric {num} vs analytic {}",
                    ana[idx]
                );
            }
        }
    }

    #[test]
    fn bptt_input_gradient_check() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut layer = LstmLayer::new(2, 3, "l", &mut rng);
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
                    "dx[{t}][{idx}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn memory_cell_retains_early_signal() {
        // Feed a distinctive first input then zeros; the final hidden state
        // must still differ from the all-zeros run, i.e. the cell remembers.
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let layer = LstmLayer::new(2, 4, "l", &mut rng);
        let mut seq_signal: Vec<Mat> = vec![Mat::full(1, 2, 1.0)];
        let mut seq_zero: Vec<Mat> = vec![Mat::zeros(1, 2)];
        for _ in 0..8 {
            seq_signal.push(Mat::zeros(1, 2));
            seq_zero.push(Mat::zeros(1, 2));
        }
        let h_signal = layer.infer_seq(&seq_signal);
        let h_zero = layer.infer_seq(&seq_zero);
        let diff: f32 = h_signal
            .data()
            .iter()
            .zip(h_zero.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "cell forgot the early signal entirely: {diff}");
    }

    /// Phase-2-like input rows: one hot column plus a value in column 0.
    pub(crate) fn one_hot_mat(batch: usize, input: usize) -> Mat {
        Mat::from_fn(batch, input, |r, c| match c {
            0 => 0.5,
            c if c == (r * 7 + 3) % input => 1.0,
            _ => 0.0,
        })
    }

    pub(crate) fn bits(m: &Mat) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Run the named test of this binary again in a child process pinned to
    /// the scalar backend (`DESH_SIMD=off`), unless this process already
    /// is. Switching the process-wide backend in place would race the
    /// other unit tests that compare two computations bitwise.
    pub(crate) fn rerun_on_scalar_backend(test: &str) {
        if std::env::var("DESH_SIMD").as_deref() == Ok("off") {
            return;
        }
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args([test, "--exact"])
            .env("DESH_SIMD", "off")
            .output()
            .expect("run the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("test result: ok. 1 passed"),
            "{test} on the scalar backend:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    /// The fused backward pass gives bitwise the gradients of the
    /// reference formulas, on dense and one-hot inputs, at the trainer's
    /// shard shapes, into non-zero accumulators, and with its scratch and
    /// tape reused across batches of different sizes: on the native
    /// backend here, and on the scalar backend in a child process.
    #[test]
    fn backward_bit_identical_to_reference_formulas() {
        rerun_on_scalar_backend("lstm::tests::backward_bit_identical_to_reference_formulas");
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut ws = LstmScratch::new();
        let mut tape = LstmTape::default();
        let mut dxs = Vec::new();
        for &(input, hidden, batch, t_len, one_hot) in &[
            (52usize, 64usize, 4usize, 5usize, true),
            (16, 48, 8, 8, false),
            (52, 64, 8, 5, true),
            (3, 5, 1, 3, false),
            (16, 48, 3, 6, false),
        ] {
            let layer = LstmLayer::new(input, hidden, "l", &mut rng);
            let xs: Vec<Mat> = (0..t_len)
                .map(|_| match one_hot {
                    true => one_hot_mat(batch, input),
                    false => rand_mat(batch, input, &mut rng),
                })
                .collect();
            let dhs: Vec<Mat> = (0..t_len)
                .map(|_| rand_mat(batch, hidden, &mut rng))
                .collect();
            let acc: Vec<Mat> = layer
                .params()
                .iter()
                .map(|p| rand_mat(p.w.rows(), p.w.cols(), &mut rng))
                .collect();

            layer.forward_seq_into(xs.iter(), &mut ws, &mut tape);
            let mut want = acc.clone();
            let [a, b, c] = &mut want[..] else {
                unreachable!()
            };
            let want_dxs = reference::backward_seq(&layer, &tape, &dhs, [a, b, c]);

            let mut got = acc.clone();
            let [a, b, c] = &mut got[..] else {
                unreachable!()
            };
            layer.backward_seq_into(&tape, &dhs, [a, b, c], &mut ws, Some(&mut dxs));
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(bits(g), bits(w), "{input}x{hidden} batch {batch}");
            }
            assert_eq!(dxs.len(), want_dxs.len());
            for (g, w) in dxs.iter().zip(&want_dxs) {
                assert_eq!(bits(g), bits(w), "dx {input}x{hidden} batch {batch}");
            }

            // Skipping the input gradient leaves the weight gradients alone.
            let mut skip = acc.clone();
            let [a, b, c] = &mut skip[..] else {
                unreachable!()
            };
            layer.backward_seq_into(&tape, &dhs, [a, b, c], &mut ws, None);
            for (g, w) in skip.iter().zip(&want) {
                assert_eq!(bits(g), bits(w), "no-dx {input}x{hidden} batch {batch}");
            }
        }
    }
}
