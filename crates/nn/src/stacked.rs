//! Stacked (multi-layer) LSTM with a dense head.
//!
//! The paper's Figure 1b: input layer → multiple hidden LSTM layers →
//! output layer. Two hidden layers is the configuration used throughout
//! the evaluation ("more than 1 hidden layer strengthens LSTM's efficacy
//! to remember past phrases").

use crate::dense::{Dense, DenseCache};
use crate::lstm::{LstmLayer, LstmScratch, LstmState, LstmTape};
use crate::mat::Mat;
use crate::param::Param;
use desh_util::Xoshiro256pp;

/// Reusable workspace for a whole stacked network: one [`LstmScratch`] per
/// recurrent layer plus the head's output buffer, and for training the
/// tape of the last [`StackedLstm::forward_ws`] with the per-step
/// gradient buffers of the backward pass. One of these carried across
/// calls makes the streaming step allocation-free, and the training
/// forward and backward passes free of per-step allocations.
#[derive(Debug, Clone, Default)]
pub struct StackedScratch {
    layers: Vec<LstmScratch>,
    y: Mat,
    /// One tape per recurrent layer, bottom first.
    tapes: Vec<LstmTape>,
    head_cache: Option<DenseCache>,
    /// Per-step gradients w.r.t. the outputs (`dhs`) and inputs (`dxs`)
    /// of the layer being back-propagated; swapped on the way down.
    dhs: Vec<Mat>,
    dxs: Vec<Mat>,
}

impl StackedScratch {
    /// Empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stacked LSTM: `layers` recurrent layers followed by a linear head that
/// is applied to the **last** timestep's top hidden state.
#[derive(Debug, Clone)]
pub struct StackedLstm {
    /// Recurrent layers, bottom first.
    pub layers: Vec<LstmLayer>,
    /// Output projection from top hidden state.
    pub head: Dense,
}

impl StackedLstm {
    /// Build with `n_layers` hidden layers of width `hidden`.
    pub fn new(
        input: usize,
        hidden: usize,
        n_layers: usize,
        output: usize,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        assert!(n_layers >= 1);
        let mut layers = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            let in_dim = if l == 0 { input } else { hidden };
            layers.push(LstmLayer::new(in_dim, hidden, &format!("lstm{l}"), rng));
        }
        Self {
            layers,
            head: Dense::new(hidden, output, "head", rng),
        }
    }

    /// Input width of the bottom layer.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output width of the head.
    pub fn output_dim(&self) -> usize {
        self.head.output_dim()
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.layers[0].hidden_dim()
    }

    /// Number of recurrent layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Size the workspace's per-layer scratch and tape lists (the buffers
    /// inside are grown lazily by the layers themselves).
    fn ensure_scratch(&self, ws: &mut StackedScratch) {
        if ws.layers.len() != self.layers.len() {
            ws.layers = vec![LstmScratch::new(); self.layers.len()];
        }
        if ws.tapes.len() != self.layers.len() {
            ws.tapes = vec![LstmTape::default(); self.layers.len()];
        }
    }

    /// Training forward over a window of inputs: returns the head output
    /// for the final step and records the tape into `ws`, reusing its
    /// buffers, for the next [`StackedLstm::backward_into`].
    pub fn forward_ws(&self, xs: &[Mat], ws: &mut StackedScratch) -> Mat {
        assert!(!xs.is_empty());
        self.ensure_scratch(ws);
        for (l, layer) in self.layers.iter().enumerate() {
            let (below, rest) = ws.tapes.split_at_mut(l);
            let lws = &mut ws.layers[l];
            match below.last() {
                None => layer.forward_seq_into(xs.iter(), lws, &mut rest[0]),
                Some(prev) => layer.forward_seq_into(prev.hs(), lws, &mut rest[0]),
            }
        }
        let top = ws.tapes.last().expect("at least one layer");
        let last_h = top.hs().last().expect("non-empty sequence");
        let (y, head_cache) = self.head.forward(last_h);
        ws.head_cache = Some(head_cache);
        y
    }

    /// Inference: head output at the last step, no tape. Runs the
    /// streaming step path, which shares every kernel with the tape path,
    /// so the two agree bitwise.
    pub fn infer(&self, xs: &[Mat]) -> Mat {
        assert!(!xs.is_empty());
        let mut states = self.zero_states(xs[0].rows());
        let mut ws = StackedScratch::new();
        self.ensure_scratch(&mut ws);
        for x in xs {
            self.step_states(x, &mut states, &mut ws);
        }
        self.head.infer(&states[states.len() - 1].h)
    }

    /// Advance all recurrent layers one step in place without applying
    /// the head. Windowed scorers drive this per timestep and apply the
    /// head only once at the window's end.
    pub fn step_layers(&self, x: &Mat, states: &mut [LstmState], ws: &mut StackedScratch) {
        assert_eq!(states.len(), self.layers.len());
        self.ensure_scratch(ws);
        self.step_states(x, states, ws);
    }

    /// Advance all recurrent layers one step in place (no head).
    fn step_states(&self, x: &Mat, states: &mut [LstmState], ws: &mut StackedScratch) {
        debug_assert_eq!(states.len(), self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            // Split so layer l can read layer l-1's fresh output while
            // mutating its own state — no per-layer clone of h.
            let (below, rest) = states.split_at_mut(l);
            let input = if l == 0 { x } else { &below[l - 1].h };
            layer.step_into(input, &mut rest[0], &mut ws.layers[l]);
        }
    }

    /// Stateful streaming inference: run one step, carrying states, with
    /// every intermediate in the caller-held workspace. Returns the head
    /// output by reference into the workspace's buffer.
    pub fn step_infer_ws<'w>(
        &self,
        x: &Mat,
        states: &mut [LstmState],
        ws: &'w mut StackedScratch,
    ) -> &'w Mat {
        assert_eq!(states.len(), self.layers.len());
        self.ensure_scratch(ws);
        self.step_states(x, states, ws);
        self.head.infer_into(&states[states.len() - 1].h, &mut ws.y);
        &ws.y
    }

    /// Slot-resident batched streaming inference: each row of `x`/`states`
    /// holds an independent stream (one fleet node), and only the listed
    /// `rows` carry a live event this wave. Steps those rows through every
    /// recurrent layer and the head, leaving all other rows' state and
    /// head output untouched. Per row this is bit-identical to driving a
    /// batch=1 [`StackedLstm::step_infer_ws`] stream (single-row GEMV
    /// kernels throughout) — the invariant the fleet intake's capsule
    /// replay depends on.
    pub fn step_infer_rows_ws<'w>(
        &self,
        x: &Mat,
        rows: &[usize],
        states: &mut [LstmState],
        ws: &'w mut StackedScratch,
    ) -> &'w Mat {
        assert_eq!(states.len(), self.layers.len());
        self.ensure_scratch(ws);
        for (l, layer) in self.layers.iter().enumerate() {
            let (below, rest) = states.split_at_mut(l);
            let input = if l == 0 { x } else { &below[l - 1].h };
            layer.step_rows_into(input, rows, &mut rest[0], &mut ws.layers[l]);
        }
        if ws.y.shape() != (x.rows(), self.head.output_dim()) {
            ws.y.reset(x.rows(), self.head.output_dim());
        }
        let top = &states[states.len() - 1].h;
        self.head.infer_rows_into(top, rows, &mut ws.y);
        &ws.y
    }

    /// Stateful streaming inference with a throwaway workspace.
    pub fn step_infer(&self, x: &Mat, states: &mut [LstmState]) -> Mat {
        let mut ws = StackedScratch::new();
        self.step_infer_ws(x, states, &mut ws).clone()
    }

    /// Fresh zero states for streaming inference.
    pub fn zero_states(&self, batch: usize) -> Vec<LstmState> {
        self.layers
            .iter()
            .map(|l| LstmState::zeros(batch, l.hidden_dim()))
            .collect()
    }

    /// Backward from the head-output gradient `dy` ([batch, output]) of
    /// the pass last recorded in `ws`. Accumulates all parameter
    /// gradients; returns gradients w.r.t. the input sequence.
    pub fn backward(&mut self, ws: &mut StackedScratch, dy: &Mat) -> Vec<Mat> {
        let mut grads: Vec<Mat> = self
            .params()
            .iter()
            .map(|p| Mat::zeros(p.w.rows(), p.w.cols()))
            .collect();
        let dxs = self.backward_into(ws, dy, &mut grads, true).to_vec();
        for (p, g) in self.params_mut().into_iter().zip(&grads) {
            p.g.add_assign(g);
        }
        dxs
    }

    /// Number of gradient buffers [`Self::backward_into`] expects: one per
    /// parameter, in [`Self::params`] order (3 per layer + 2 for the head).
    pub fn grad_slots(&self) -> usize {
        3 * self.layers.len() + 2
    }

    /// Backward with `&self` into an ordered gradient-buffer slice (one
    /// `Mat` per parameter, [`Self::params`] order): the data-parallel
    /// trainer's per-shard path, where workers share the model immutably.
    /// Back-propagates the pass last recorded in `ws` by
    /// [`StackedLstm::forward_ws`]. Returns the per-step gradients w.r.t.
    /// the input sequence when `input_grads` is set; otherwise the bottom
    /// layer's `dp · Wxᵀ` products are skipped and the slice is empty.
    pub fn backward_into<'w>(
        &self,
        ws: &'w mut StackedScratch,
        dy: &Mat,
        grads: &mut [Mat],
        input_grads: bool,
    ) -> &'w [Mat] {
        assert_eq!(grads.len(), self.grad_slots(), "gradient buffer count");
        let nl = self.layers.len();
        let StackedScratch {
            layers,
            tapes,
            head_cache,
            dhs,
            dxs,
            ..
        } = ws;
        let head_cache = head_cache
            .as_ref()
            .expect("backward_into before forward_ws");
        let (layer_grads, head_grads) = grads.split_at_mut(3 * nl);
        let [dw_head, db_head] = head_grads else {
            unreachable!("two head gradient buffers")
        };

        // Head backward feeds the last step of the top layer.
        let dh_last = self.head.backward_into(head_cache, dy, dw_head, db_head);
        let seq_len = tapes[0].len();
        dhs.resize_with(seq_len, Mat::default);
        for (t, d) in dhs.iter_mut().enumerate() {
            if t + 1 == seq_len {
                d.copy_from(&dh_last);
            } else {
                d.reset(dh_last.rows(), self.hidden_dim());
            }
        }

        for (li, layer) in self.layers.iter().enumerate().rev() {
            let [dwx, dwh, db] = &mut layer_grads[3 * li..3 * li + 3] else {
                unreachable!("three gradient buffers per layer")
            };
            let want_dx = li > 0 || input_grads;
            layer.backward_seq_into(
                &tapes[li],
                dhs,
                [dwx, dwh, db],
                &mut layers[li],
                want_dx.then_some(&mut *dxs),
            );
            std::mem::swap(dhs, dxs);
        }
        if input_grads {
            dhs
        } else {
            &[]
        }
    }

    /// All parameters, bottom layer first, head last.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps: Vec<&mut Param> = Vec::new();
        for layer in &mut self.layers {
            ps.extend(layer.params_mut());
        }
        ps.extend(self.head.params_mut());
        ps
    }

    /// Immutable parameter view (same order as [`Self::params_mut`]).
    pub fn params(&self) -> Vec<&Param> {
        let mut ps: Vec<&Param> = Vec::new();
        for layer in &self.layers {
            ps.extend(layer.params());
        }
        ps.extend(self.head.params());
        ps
    }

    /// Zero every accumulated gradient.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::reference;
    use crate::lstm::tests::{bits, one_hot_mat, rand_mat, rerun_on_scalar_backend};

    fn rand_seq(t: usize, batch: usize, dim: usize, rng: &mut Xoshiro256pp) -> Vec<Mat> {
        (0..t)
            .map(|_| Mat::from_fn(batch, dim, |_, _| rng.f32() - 0.5))
            .collect()
    }

    #[test]
    fn shapes_and_param_order() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let net = StackedLstm::new(3, 4, 2, 5, &mut rng);
        assert_eq!(net.depth(), 2);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 5);
        // 2 layers * 3 params + head 2 params.
        assert_eq!(net.params().len(), 8);
        let xs = rand_seq(6, 2, 3, &mut rng);
        let mut ws = StackedScratch::new();
        let y = net.forward_ws(&xs, &mut ws);
        assert_eq!(y.shape(), (2, 5));
        assert_eq!(ws.tapes[0].len(), 6);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let net = StackedLstm::new(2, 3, 2, 2, &mut rng);
        let xs = rand_seq(5, 3, 2, &mut rng);
        let y = net.forward_ws(&xs, &mut StackedScratch::new());
        assert_eq!(net.infer(&xs), y);
    }

    #[test]
    fn step_infer_matches_batch_infer() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let net = StackedLstm::new(2, 3, 2, 2, &mut rng);
        let xs = rand_seq(5, 1, 2, &mut rng);
        let mut states = net.zero_states(1);
        let mut last = Mat::zeros(1, 2);
        for x in &xs {
            last = net.step_infer(x, &mut states);
        }
        let batch = net.infer(&xs);
        for (a, b) in last.data().iter().zip(batch.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn step_infer_rows_bit_identical_to_sequential_streams() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let net = StackedLstm::new(3, 4, 2, 3, &mut rng);
        let slots = 5usize;
        // Independent per-slot event sequences of differing lengths, so
        // waves step a different row subset each tick.
        let seqs: Vec<Vec<Mat>> = (0..slots)
            .map(|s| rand_seq(3 + s % 3, 1, 3, &mut rng))
            .collect();
        // Batched: all slots resident as rows of one state/input matrix.
        let mut bstates = net.zero_states(slots);
        let mut bws = StackedScratch::new();
        let mut x = Mat::zeros(slots, 3);
        let mut outs: Vec<Vec<Vec<u32>>> = vec![Vec::new(); slots];
        let max_t = seqs.iter().map(|s| s.len()).max().unwrap();
        for t in 0..max_t {
            let rows: Vec<usize> = (0..slots).filter(|&s| t < seqs[s].len()).collect();
            for &s in &rows {
                x.row_mut(s).copy_from_slice(seqs[s][t].row(0));
            }
            let y = net.step_infer_rows_ws(&x, &rows, &mut bstates, &mut bws);
            for &s in &rows {
                outs[s].push(y.row(s).iter().map(|v| v.to_bits()).collect());
            }
        }
        // Sequential: each slot through its own batch=1 stream.
        for s in 0..slots {
            let mut states = net.zero_states(1);
            let mut ws = StackedScratch::new();
            for (t, xt) in seqs[s].iter().enumerate() {
                let y = net.step_infer_ws(xt, &mut states, &mut ws);
                let bits: Vec<u32> = y.row(0).iter().map(|v| v.to_bits()).collect();
                assert_eq!(outs[s][t], bits, "slot {s} step {t} diverged");
            }
        }
    }

    #[test]
    fn stacked_gradient_check() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut net = StackedLstm::new(2, 3, 2, 2, &mut rng);
        let xs = rand_seq(3, 2, 2, &mut rng);

        // L = 0.5 ||y||^2 -> dy = y.
        let loss = |net: &StackedLstm, xs: &[Mat]| -> f64 { net.infer(xs).sq_norm() * 0.5 };
        let mut ws = StackedScratch::new();
        let y = net.forward_ws(&xs, &mut ws);
        let dxs = net.backward(&mut ws, &y);

        let eps = 1e-3f32;
        // Sample several weights across all parameter tensors.
        let n_params = net.params().len();
        for pi in 0..n_params {
            let len = net.params()[pi].len();
            for s in 0..3usize {
                let idx = (s * 17 + pi * 7) % len;
                let orig = net.params()[pi].w.data()[idx];
                net.params_mut()[pi].w.data_mut()[idx] = orig + eps;
                let lp = loss(&net, &xs);
                net.params_mut()[pi].w.data_mut()[idx] = orig - eps;
                let lm = loss(&net, &xs);
                net.params_mut()[pi].w.data_mut()[idx] = orig;
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let ana = net.params()[pi].g.data()[idx];
                assert!(
                    (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                    "param {pi} idx {idx}: numeric {num} vs analytic {ana}"
                );
            }
        }
        // Input gradient check.
        let mut xs2 = xs.clone();
        for t in 0..xs2.len() {
            let orig = xs2[t].data()[0];
            xs2[t].data_mut()[0] = orig + eps;
            let lp = loss(&net, &xs2);
            xs2[t].data_mut()[0] = orig - eps;
            let lm = loss(&net, &xs2);
            xs2[t].data_mut()[0] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = dxs[t].data()[0];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "dx[{t}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn zero_grads_resets_everything() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut net = StackedLstm::new(2, 3, 1, 2, &mut rng);
        let xs = rand_seq(2, 1, 2, &mut rng);
        let mut ws = StackedScratch::new();
        let y = net.forward_ws(&xs, &mut ws);
        net.backward(&mut ws, &y);
        assert!(net.params().iter().any(|p| p.g.sq_norm() > 0.0));
        net.zero_grads();
        assert!(net.params().iter().all(|p| p.g.sq_norm() == 0.0));
    }

    /// The original stacked backward (head, then each layer's BPTT with
    /// per-step temporaries) over the tape recorded in `ws`.
    fn reference_backward(
        net: &StackedLstm,
        ws: &StackedScratch,
        dy: &Mat,
        grads: &mut [Mat],
    ) -> Vec<Mat> {
        let nl = net.layers.len();
        let (layer_grads, head_grads) = grads.split_at_mut(3 * nl);
        let [dw_head, db_head] = head_grads else {
            unreachable!()
        };
        let last_h = ws.tapes[nl - 1].hs().last().unwrap();
        dw_head.add_assign(&reference::t_matmul(last_h, dy));
        db_head.add_assign(&dy.col_sums());
        let dh_last = dy.matmul_t(&net.head.w.w);
        let seq_len = ws.tapes[0].len();
        let mut dhs: Vec<Mat> = (0..seq_len)
            .map(|t| match t + 1 == seq_len {
                true => dh_last.clone(),
                false => Mat::zeros(dh_last.rows(), net.hidden_dim()),
            })
            .collect();
        for (li, layer) in net.layers.iter().enumerate().rev() {
            let [a, b, c] = &mut layer_grads[3 * li..3 * li + 3] else {
                unreachable!()
            };
            dhs = reference::backward_seq(layer, &ws.tapes[li], &dhs, [a, b, c]);
        }
        dhs
    }

    /// Forward and backward through one reused workspace give bitwise the
    /// reference stacked gradients, at both trainers' shard shapes and
    /// with the batch size changing between calls; skipping the input
    /// gradient changes no weight gradient. Native backend here, scalar
    /// in a child process.
    #[test]
    fn backward_bit_identical_to_reference_formulas() {
        rerun_on_scalar_backend("stacked::tests::backward_bit_identical_to_reference_formulas");
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        for &(input, hidden, output, one_hot) in
            &[(52usize, 64usize, 52usize, true), (16, 48, 30, false)]
        {
            let net = StackedLstm::new(input, hidden, 2, output, &mut rng);
            let mut ws = StackedScratch::new();
            for &(batch, t_len) in &[(8usize, 8usize), (3, 5), (4, 5)] {
                let xs: Vec<Mat> = (0..t_len)
                    .map(|_| match one_hot {
                        true => one_hot_mat(batch, input),
                        false => rand_mat(batch, input, &mut rng),
                    })
                    .collect();
                let dy = rand_mat(batch, output, &mut rng);
                let acc: Vec<Mat> = net
                    .params()
                    .iter()
                    .map(|p| rand_mat(p.w.rows(), p.w.cols(), &mut rng))
                    .collect();

                let y = net.forward_ws(&xs, &mut ws);
                assert_eq!(bits(&y), bits(&net.infer(&xs)));
                let mut want = acc.clone();
                let want_dxs = reference_backward(&net, &ws, &dy, &mut want);

                let mut skip = acc.clone();
                assert!(net.backward_into(&mut ws, &dy, &mut skip, false).is_empty());
                let mut got = acc.clone();
                let dxs = net.backward_into(&mut ws, &dy, &mut got, true);
                assert_eq!(dxs.len(), want_dxs.len());
                for (g, w) in dxs.iter().zip(&want_dxs) {
                    assert_eq!(bits(g), bits(w), "dx at {input}x{hidden}, batch {batch}");
                }
                for ((g, s), w) in got.iter().zip(&skip).zip(&want) {
                    assert_eq!(bits(g), bits(w), "grad at {input}x{hidden}, batch {batch}");
                    assert_eq!(
                        bits(s),
                        bits(w),
                        "no-dx grad at {input}x{hidden}, batch {batch}"
                    );
                }
            }
        }
    }
}
