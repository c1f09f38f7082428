//! The two model shapes Desh trains.
//!
//! * [`TokenLstm`] — phrase-id sequences → next-phrase distribution
//!   (phase 1; also reused by the DeepLog-style baseline). Embedding →
//!   stacked LSTM → softmax head, trained with SGD + categorical
//!   cross-entropy per Table 5.
//! * [`VectorLstm`] — (ΔT, phrase-id) 2-state vectors → next vector
//!   (phases 2 and 3), trained with RMSprop + MSE per Table 5.
//!
//! Both train on fixed-length history windows (the paper's "history size"),
//! resetting recurrent state per window — i.e. truncated BPTT over the
//! window, which is exactly what a Keras stateless LSTM with a fixed
//! `timesteps` dimension does.

use crate::embedding::Embedding;
use crate::loss::{mse, mse_denom, mse_vec, softmax, softmax_xent, softmax_xent_denom};
use crate::lstm::LstmState;
use crate::mat::Mat;
use crate::observe::{NoopObserver, ParamStatsAcc, ShardStats, TrainObserver};
use crate::optim::Optimizer;
use crate::parallel::{shard_count, shard_ranges, tree_reduce_indices, GradSet};
use crate::param::{clip_global_norm, Param};
use crate::stacked::{StackedLstm, StackedScratch};
use desh_util::Xoshiro256pp;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Hyper-parameters for a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// History window size (paper: 8 in phase 1, 5 in phases 2/3).
    pub history: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Number of passes over the window set.
    pub epochs: usize,
    /// Global gradient-norm clip.
    pub clip: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            history: 8,
            batch: 32,
            epochs: 4,
            clip: 5.0,
        }
    }
}

/// Per-epoch mean losses returned by a training run.
pub type EpochLosses = Vec<f64>;

/// One shard's private state for the data-parallel trainer: gradient
/// accumulators, forward/backward scratch, the current batch's loss
/// contribution, and per-epoch work accounting.
struct TrainShard {
    grads: GradSet,
    ws: StackedScratch,
    loss: f64,
    windows: usize,
    busy: Duration,
}

impl TrainShard {
    fn fresh(params: &[&Param], n: usize) -> Vec<TrainShard> {
        (0..n)
            .map(|_| TrainShard {
                grads: GradSet::zeros_like(params),
                ws: StackedScratch::new(),
                loss: 0.0,
                windows: 0,
                busy: Duration::ZERO,
            })
            .collect()
    }

    fn reset_epoch(states: &mut [TrainShard]) {
        for st in states {
            st.windows = 0;
            st.busy = Duration::ZERO;
        }
    }

    fn epoch_stats(states: &[TrainShard]) -> Vec<ShardStats> {
        states
            .iter()
            .enumerate()
            .map(|(i, st)| ShardStats {
                shard: i,
                windows: st.windows,
                busy: st.busy,
            })
            .collect()
    }
}

/// Merge shard gradients in the fixed tree order, add the total into the
/// parameters, clip, and step the optimizer. Returns the batch's summed
/// loss and the wall time of the tree reduction (including the final add
/// into the parameter gradients). Shard gradient buffers are left zeroed
/// for the next batch. When `stats` is set (an observer opted into
/// per-layer stats) the merged buffers get one extra read pass before
/// they are cleared; the stats never feed back into the update, so the
/// numerics are identical with or without an accumulator.
fn reduce_apply_step(
    states: &mut [TrainShard],
    params: &mut [&mut Param],
    clip: f64,
    opt: &mut dyn Optimizer,
    stats: Option<&mut ParamStatsAcc>,
) -> (f64, Duration) {
    let t0 = Instant::now();
    tree_reduce_indices(states.len(), |d, s| {
        let (a, b) = states.split_at_mut(s);
        a[d].grads.add_assign(&b[0].grads);
        a[d].loss += b[0].loss;
    });
    states[0].grads.apply_to(params);
    let reduce_elapsed = t0.elapsed();
    if let Some(acc) = stats {
        acc.accumulate(states[0].grads.mats());
    }
    clip_global_norm(params, clip);
    opt.step(params);
    let loss = states[0].loss;
    for st in states {
        st.grads.clear();
    }
    (loss, reduce_elapsed)
}

// ---------------------------------------------------------------------------
// TokenLstm
// ---------------------------------------------------------------------------

/// Next-phrase language model over encoded phrase ids.
#[derive(Debug, Clone)]
pub struct TokenLstm {
    /// Input embedding table.
    pub embed: Embedding,
    /// Stacked LSTM + softmax head (logits over the vocabulary).
    pub net: StackedLstm,
}

impl TokenLstm {
    /// Fresh model with a jointly trained embedding.
    pub fn new(
        vocab: usize,
        embed_dim: usize,
        hidden: usize,
        layers: usize,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        Self {
            embed: Embedding::new(vocab, embed_dim, rng),
            net: StackedLstm::new(embed_dim, hidden, layers, vocab, rng),
        }
    }

    /// Model seeded with pre-trained embeddings (e.g. skip-gram, §3.1 of the
    /// paper). The table is still fine-tuned during training.
    pub fn with_embeddings(
        table: Mat,
        hidden: usize,
        layers: usize,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        let vocab = table.rows();
        let dim = table.cols();
        Self {
            embed: Embedding::from_table(table),
            net: StackedLstm::new(dim, hidden, layers, vocab, rng),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.embed.vocab()
    }

    /// All parameters in deterministic order (embedding first).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = vec![&mut self.embed.table];
        ps.extend(self.net.params_mut());
        ps
    }

    /// Immutable parameter view (same order as [`Self::params_mut`]).
    pub fn params(&self) -> Vec<&Param> {
        let mut ps = vec![&self.embed.table];
        ps.extend(self.net.params());
        ps
    }

    /// Enumerate (sequence index, end position) of every full history
    /// window with a target token after it.
    fn window_index(seqs: &[Vec<u32>], history: usize) -> Vec<(u32, u32)> {
        let mut idx = Vec::new();
        for (si, s) in seqs.iter().enumerate() {
            if s.len() > history {
                for t in history..s.len() {
                    idx.push((si as u32, t as u32));
                }
            }
        }
        idx
    }

    /// Train with the given optimizer; returns the mean loss per epoch.
    pub fn train(
        &mut self,
        seqs: &[Vec<u32>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
    ) -> EpochLosses {
        self.train_observed(seqs, cfg, opt, rng, &mut NoopObserver)
    }

    /// [`TokenLstm::train`] with a per-epoch [`TrainObserver`] callback.
    ///
    /// Data-parallel: each minibatch is split across a fixed number of
    /// gradient shards (`parallel::shard_count`, default 8) executed by
    /// however many threads the rayon shim is configured for, then merged
    /// with a deterministic tree reduction. Numerics depend only on the
    /// shard count: any thread count yields bit-identical weights.
    pub fn train_observed(
        &mut self,
        seqs: &[Vec<u32>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
        observer: &mut dyn TrainObserver,
    ) -> EpochLosses {
        let mut index = Self::window_index(seqs, cfg.history);
        assert!(
            !index.is_empty(),
            "no training windows: all sequences shorter than history+1"
        );
        let shards = shard_count();
        let mut states = TrainShard::fresh(&self.params(), shards);
        let mut stats_acc = observer
            .wants_param_stats()
            .then(|| ParamStatsAcc::new(&self.params()));
        let mut losses = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let epoch_start = Instant::now();
            rng.shuffle(&mut index);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            TrainShard::reset_epoch(&mut states);
            for chunk in index.chunks(cfg.batch) {
                let ranges = shard_ranges(chunk.len(), shards);
                {
                    let model = &*self;
                    states.par_chunks_mut(1).enumerate().for_each(|(si, st)| {
                        let st = &mut st[0];
                        st.loss = 0.0;
                        let r = ranges[si].clone();
                        if r.is_empty() {
                            return;
                        }
                        let t0 = Instant::now();
                        st.loss = model.shard_pass(
                            seqs,
                            &chunk[r.clone()],
                            cfg.history,
                            chunk.len(),
                            &mut st.ws,
                            &mut st.grads,
                        );
                        st.windows += r.len();
                        st.busy += t0.elapsed();
                    });
                }
                let (loss, reduce_elapsed) = reduce_apply_step(
                    &mut states,
                    &mut self.params_mut(),
                    cfg.clip,
                    opt,
                    stats_acc.as_mut(),
                );
                epoch_loss += loss;
                batches += 1;
                observer.on_grad_reduce(reduce_elapsed);
            }
            let mean = epoch_loss / batches.max(1) as f64;
            observer.on_epoch(epoch, mean, epoch_start.elapsed());
            observer.on_shards(epoch, &TrainShard::epoch_stats(&states));
            if let Some(acc) = stats_acc.as_mut() {
                let stats = acc.finish_epoch(&self.params(), f64::from(opt.learning_rate()));
                observer.on_param_stats(epoch, &stats);
            }
            if observer.wants_checkpoints() {
                let model = &*self;
                observer.on_checkpoint(epoch, &mut || model.to_bytes());
            }
            losses.push(mean);
            if observer.should_stop() {
                break;
            }
        }
        losses
    }

    /// Forward + backward for one shard's slice of a minibatch: gradients
    /// go into the shard's own buffers, losses use the full-batch
    /// denominator so the tree-reduced sum equals the one-shot batch
    /// gradient.
    fn shard_pass(
        &self,
        seqs: &[Vec<u32>],
        rows: &[(u32, u32)],
        history: usize,
        batch_rows: usize,
        ws: &mut StackedScratch,
        grads: &mut GradSet,
    ) -> f64 {
        // Build per-timestep id columns for this shard's rows.
        let mut step_ids: Vec<Vec<u32>> = vec![Vec::with_capacity(rows.len()); history];
        let mut targets = Vec::with_capacity(rows.len());
        for &(si, t) in rows {
            let s = &seqs[si as usize];
            let t = t as usize;
            for (k, ids) in step_ids.iter_mut().enumerate() {
                ids.push(s[t - history + k]);
            }
            targets.push(s[t]);
        }
        // Forward: embed each timestep, run the stack.
        let mut xs = Vec::with_capacity(history);
        let mut ecaches = Vec::with_capacity(history);
        for ids in &step_ids {
            let (x, c) = self.embed.forward(ids);
            xs.push(x);
            ecaches.push(c);
        }
        let logits = self.net.forward_ws(&xs, ws);
        let (loss, dlogits) = softmax_xent_denom(&logits, &targets, batch_rows);
        // Backward into the shard's buffers: [embed table | net params].
        let (etab, net_grads) = grads.mats_mut().split_first_mut().expect("grad layout");
        let dxs = self.net.backward_into(ws, &dlogits, net_grads, true);
        for (c, dx) in ecaches.iter().zip(dxs) {
            self.embed.backward_into(c, dx, etab);
        }
        loss
    }

    /// Single-threaded reference trainer: the exact pre-sharding loop,
    /// kept so benches can measure the parallel path against it and tests
    /// can bound the 1-worker-vs-sequential FP drift (summation order is
    /// the only difference).
    pub fn train_sequential(
        &mut self,
        seqs: &[Vec<u32>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
        observer: &mut dyn TrainObserver,
    ) -> EpochLosses {
        let mut index = Self::window_index(seqs, cfg.history);
        assert!(
            !index.is_empty(),
            "no training windows: all sequences shorter than history+1"
        );
        let mut losses = Vec::with_capacity(cfg.epochs);
        let mut ws = StackedScratch::new();
        for epoch in 0..cfg.epochs {
            let epoch_start = Instant::now();
            rng.shuffle(&mut index);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in index.chunks(cfg.batch) {
                // Build per-timestep id columns.
                let mut step_ids: Vec<Vec<u32>> =
                    vec![Vec::with_capacity(chunk.len()); cfg.history];
                let mut targets = Vec::with_capacity(chunk.len());
                for &(si, t) in chunk {
                    let s = &seqs[si as usize];
                    let t = t as usize;
                    for (k, ids) in step_ids.iter_mut().enumerate() {
                        ids.push(s[t - cfg.history + k]);
                    }
                    targets.push(s[t]);
                }
                // Forward: embed each timestep, run the stack.
                let mut xs = Vec::with_capacity(cfg.history);
                let mut ecaches = Vec::with_capacity(cfg.history);
                for ids in &step_ids {
                    let (x, c) = self.embed.forward(ids);
                    xs.push(x);
                    ecaches.push(c);
                }
                let logits = self.net.forward_ws(&xs, &mut ws);
                let (loss, dlogits) = softmax_xent(&logits, &targets);
                epoch_loss += loss;
                batches += 1;
                // Backward.
                let dxs = self.net.backward(&mut ws, &dlogits);
                for (c, dx) in ecaches.iter().zip(&dxs) {
                    self.embed.backward(c, dx);
                }
                clip_global_norm(&mut self.params_mut(), cfg.clip);
                opt.step(&mut self.params_mut());
            }
            let mean = epoch_loss / batches.max(1) as f64;
            observer.on_epoch(epoch, mean, epoch_start.elapsed());
            losses.push(mean);
        }
        losses
    }

    /// Probability distribution over the next phrase given a context window
    /// (uses up to the last `history` tokens; shorter contexts work too).
    pub fn predict_probs(&self, context: &[u32]) -> Vec<f32> {
        assert!(!context.is_empty());
        let xs: Vec<Mat> = context.iter().map(|&id| self.embed.infer(&[id])).collect();
        let logits = self.net.infer(&xs);
        softmax(&logits).row(0).to_vec()
    }

    /// Greedy k-step autoregressive prediction ("3-step prediction" in the
    /// paper): repeatedly predict the next phrase and feed it back, always
    /// conditioning on the most recent `history`-sized window so inference
    /// matches the fixed-window regime the model was trained in.
    pub fn predict_kstep(&self, context: &[u32], k: usize) -> Vec<u32> {
        let history = context.len();
        let mut ctx = context.to_vec();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let window = &ctx[ctx.len() - history..];
            let probs = self.predict_probs(window);
            let best = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i as u32)
                .unwrap();
            out.push(best);
            ctx.push(best);
        }
        out
    }

    /// Fraction of evaluation windows whose full k-step greedy prediction
    /// matches the actual continuation. This is the paper's phase-1
    /// "accuracy" knob for the history-size / step-count trade-off.
    pub fn accuracy_kstep(&self, seqs: &[Vec<u32>], history: usize, k: usize) -> f64 {
        let mut total = 0usize;
        let mut hit = 0usize;
        for s in seqs {
            if s.len() < history + k {
                continue;
            }
            for t in history..=(s.len() - k) {
                let pred = self.predict_kstep(&s[t - history..t], k);
                if pred[..] == s[t..t + k] {
                    hit += 1;
                }
                total += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------------
// VectorLstm
// ---------------------------------------------------------------------------

/// Next-sample regressor over small dense vectors, e.g. (ΔT, phrase-id).
#[derive(Debug, Clone)]
pub struct VectorLstm {
    /// Stacked LSTM with a linear head of the same width as the input.
    pub net: StackedLstm,
    pub(crate) dim: usize,
}

impl VectorLstm {
    /// Fresh model for `dim`-wide samples.
    pub fn new(dim: usize, hidden: usize, layers: usize, rng: &mut Xoshiro256pp) -> Self {
        Self {
            net: StackedLstm::new(dim, hidden, layers, dim, rng),
            dim,
        }
    }

    /// Sample width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Always `Some(self)`. Kept only for `perfbench/src/layers.rs`, which
    /// reads the scoring network as `model.net.f32()`; remove it together
    /// with that call.
    pub fn f32(&self) -> Option<&VectorLstm> {
        Some(self)
    }

    /// Enumerate (sequence, target position) training windows. Unlike the
    /// token model we allow short prefixes (zero-padded) because failure
    /// chains are often shorter than history+1.
    fn window_index(seqs: &[Vec<Vec<f32>>]) -> Vec<(u32, u32)> {
        let mut idx = Vec::new();
        for (si, s) in seqs.iter().enumerate() {
            for t in 1..s.len() {
                idx.push((si as u32, t as u32));
            }
        }
        idx
    }

    /// Train on sequences of samples; returns mean loss per epoch.
    pub fn train(
        &mut self,
        seqs: &[Vec<Vec<f32>>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
    ) -> EpochLosses {
        self.train_observed(seqs, cfg, opt, rng, &mut NoopObserver)
    }

    /// [`VectorLstm::train`] with a per-epoch [`TrainObserver`] callback.
    ///
    /// Data-parallel exactly like [`TokenLstm::train_observed`]: a fixed
    /// shard count and a deterministic gradient tree-reduction keep the
    /// weights bit-identical at any thread count.
    pub fn train_observed(
        &mut self,
        seqs: &[Vec<Vec<f32>>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
        observer: &mut dyn TrainObserver,
    ) -> EpochLosses {
        for s in seqs {
            for v in s {
                assert_eq!(v.len(), self.dim, "sample width mismatch");
            }
        }
        let mut index = Self::window_index(seqs);
        assert!(
            !index.is_empty(),
            "no training windows: sequences too short"
        );
        let shards = shard_count();
        let mut states = TrainShard::fresh(&self.net.params(), shards);
        let mut stats_acc = observer
            .wants_param_stats()
            .then(|| ParamStatsAcc::new(&self.net.params()));
        let mut losses = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let epoch_start = Instant::now();
            rng.shuffle(&mut index);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            TrainShard::reset_epoch(&mut states);
            for chunk in index.chunks(cfg.batch) {
                let ranges = shard_ranges(chunk.len(), shards);
                let denom_elems = chunk.len() * self.dim;
                {
                    let model = &*self;
                    states.par_chunks_mut(1).enumerate().for_each(|(si, st)| {
                        let st = &mut st[0];
                        st.loss = 0.0;
                        let r = ranges[si].clone();
                        if r.is_empty() {
                            return;
                        }
                        let t0 = Instant::now();
                        st.loss = model.shard_pass(
                            seqs,
                            &chunk[r.clone()],
                            cfg.history,
                            denom_elems,
                            &mut st.ws,
                            &mut st.grads,
                        );
                        st.windows += r.len();
                        st.busy += t0.elapsed();
                    });
                }
                let (loss, reduce_elapsed) = reduce_apply_step(
                    &mut states,
                    &mut self.net.params_mut(),
                    cfg.clip,
                    opt,
                    stats_acc.as_mut(),
                );
                epoch_loss += loss;
                batches += 1;
                observer.on_grad_reduce(reduce_elapsed);
            }
            let mean = epoch_loss / batches.max(1) as f64;
            observer.on_epoch(epoch, mean, epoch_start.elapsed());
            observer.on_shards(epoch, &TrainShard::epoch_stats(&states));
            if let Some(acc) = stats_acc.as_mut() {
                let stats = acc.finish_epoch(&self.net.params(), f64::from(opt.learning_rate()));
                observer.on_param_stats(epoch, &stats);
            }
            if observer.wants_checkpoints() {
                let model = &*self;
                observer.on_checkpoint(epoch, &mut || model.to_bytes());
            }
            losses.push(mean);
            if observer.should_stop() {
                break;
            }
        }
        losses
    }

    /// Forward + backward for one shard's slice of a minibatch (see
    /// [`TokenLstm::shard_pass`]); `denom_elems` is the full batch's
    /// rows × dim so shard losses sum to the batch MSE.
    fn shard_pass(
        &self,
        seqs: &[Vec<Vec<f32>>],
        rows: &[(u32, u32)],
        history: usize,
        denom_elems: usize,
        ws: &mut StackedScratch,
        grads: &mut GradSet,
    ) -> f64 {
        // Assemble this shard's timesteps with left zero-padding.
        let b = rows.len();
        let mut xs: Vec<Mat> = (0..history).map(|_| Mat::zeros(b, self.dim)).collect();
        let mut target = Mat::zeros(b, self.dim);
        for (r, &(si, t)) in rows.iter().enumerate() {
            let s = &seqs[si as usize];
            let t = t as usize;
            let lo = t.saturating_sub(history);
            let pad = history - (t - lo);
            for (k, sample) in s[lo..t].iter().enumerate() {
                xs[pad + k].row_mut(r).copy_from_slice(sample);
            }
            target.row_mut(r).copy_from_slice(&s[t]);
        }
        let pred = self.net.forward_ws(&xs, ws);
        let (loss, dpred) = mse_denom(&pred, &target, denom_elems);
        self.net.backward_into(ws, &dpred, grads.mats_mut(), false);
        loss
    }

    /// Single-threaded reference trainer (see
    /// [`TokenLstm::train_sequential`]).
    pub fn train_sequential(
        &mut self,
        seqs: &[Vec<Vec<f32>>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
        observer: &mut dyn TrainObserver,
    ) -> EpochLosses {
        for s in seqs {
            for v in s {
                assert_eq!(v.len(), self.dim, "sample width mismatch");
            }
        }
        let mut index = Self::window_index(seqs);
        assert!(
            !index.is_empty(),
            "no training windows: sequences too short"
        );
        let mut losses = Vec::with_capacity(cfg.epochs);
        let mut ws = StackedScratch::new();
        for epoch in 0..cfg.epochs {
            let epoch_start = Instant::now();
            rng.shuffle(&mut index);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in index.chunks(cfg.batch) {
                // Assemble batched timesteps with left zero-padding.
                let b = chunk.len();
                let mut xs: Vec<Mat> = (0..cfg.history).map(|_| Mat::zeros(b, self.dim)).collect();
                let mut target = Mat::zeros(b, self.dim);
                for (r, &(si, t)) in chunk.iter().enumerate() {
                    let s = &seqs[si as usize];
                    let t = t as usize;
                    let lo = t.saturating_sub(cfg.history);
                    let pad = cfg.history - (t - lo);
                    for (k, sample) in s[lo..t].iter().enumerate() {
                        xs[pad + k].row_mut(r).copy_from_slice(sample);
                    }
                    target.row_mut(r).copy_from_slice(&s[t]);
                }
                let pred = self.net.forward_ws(&xs, &mut ws);
                let (loss, dpred) = mse(&pred, &target);
                epoch_loss += loss;
                batches += 1;
                self.net.backward(&mut ws, &dpred);
                clip_global_norm(&mut self.net.params_mut(), cfg.clip);
                opt.step(&mut self.net.params_mut());
            }
            let mean = epoch_loss / batches.max(1) as f64;
            observer.on_epoch(epoch, mean, epoch_start.elapsed());
            losses.push(mean);
        }
        losses
    }

    /// Predict the next sample from a context window.
    pub fn predict_next(&self, window: &[&[f32]], history: usize) -> Vec<f32> {
        let mut sw = self.workspace();
        self.predict_next_ws(window.len(), history, &mut sw, |k, row| {
            row.copy_from_slice(window[k])
        })
        .to_vec()
    }

    /// [`VectorLstm::predict_next`] over a window of `len` samples that
    /// `stage(k, row)` writes, oldest first, straight into the
    /// workspace's input row (overwriting all of it). Only the last
    /// `history` samples are staged; a shorter window is left
    /// zero-padded, as failure chains can be shorter than the history.
    /// Returns the head output, borrowed from the workspace.
    pub fn predict_next_ws<'w>(
        &self,
        len: usize,
        history: usize,
        sw: &'w mut ScoreWorkspace,
        mut stage: impl FnMut(usize, &mut [f32]),
    ) -> &'w [f32] {
        assert!(len > 0 && history > 0);
        for st in &mut sw.states {
            st.clear();
        }
        sw.x.clear();
        for _ in len..history {
            self.net.step_layers(&sw.x, &mut sw.states, &mut sw.ws);
        }
        for k in len.saturating_sub(history)..len {
            stage(k, sw.x.row_mut(0));
            self.net.step_layers(&sw.x, &mut sw.states, &mut sw.ws);
        }
        let top = &sw.states[sw.states.len() - 1].h;
        self.net.head.infer_into(top, &mut sw.y);
        sw.y.row(0)
    }

    /// Fresh reusable workspace for the windowed scoring path.
    pub fn workspace(&self) -> ScoreWorkspace {
        ScoreWorkspace {
            states: self.net.zero_states(1),
            ws: StackedScratch::new(),
            x: Mat::zeros(1, self.dim),
            y: Mat::zeros(1, self.dim),
        }
    }

    /// Per-position one-step-ahead MSE along a sequence: element `t` scores
    /// how well positions `..=t` predicted sample `t+1`. This is the
    /// quantity the paper thresholds at 0.5 in phase 3. All transients
    /// live in the caller-held workspace; the only per-call allocation is
    /// the returned score vector.
    pub fn score_sequence_ws(
        &self,
        seq: &[Vec<f32>],
        history: usize,
        sw: &mut ScoreWorkspace,
    ) -> Vec<f64> {
        let mut scores = Vec::with_capacity(seq.len().saturating_sub(1));
        for t in 1..seq.len() {
            let lo = t.saturating_sub(history);
            let window = &seq[lo..t];
            // Re-run the window from zero state, left zero-padded to
            // `history` steps exactly like the batched training windows.
            for st in &mut sw.states {
                st.clear();
            }
            sw.x.clear();
            for _ in window.len()..history {
                self.net.step_layers(&sw.x, &mut sw.states, &mut sw.ws);
            }
            for sample in window {
                sw.x.row_mut(0).copy_from_slice(sample);
                self.net.step_layers(&sw.x, &mut sw.states, &mut sw.ws);
            }
            let top = &sw.states[sw.states.len() - 1].h;
            self.net.head.infer_into(top, &mut sw.y);
            scores.push(mse_vec(sw.y.row(0), &seq[t]));
        }
        scores
    }

    /// [`VectorLstm::score_sequence_ws`] with a throwaway workspace.
    pub fn score_sequence(&self, seq: &[Vec<f32>], history: usize) -> Vec<f64> {
        let mut sw = self.workspace();
        self.score_sequence_ws(seq, history, &mut sw)
    }

    /// Begin a slot-resident streaming pass (DeepLog-style carried
    /// state): `slots` independent streams living as rows of shared state
    /// matrices. A detector parks one node per slot and steps only the
    /// rows with a live event each wave via [`VectorLstm::stream_push_rows`]
    /// — each new sample costs one cell step per layer, with no per-event
    /// gather/scatter of recurrent state.
    pub fn begin_stream_batch(&self, slots: usize) -> VectorStreamBatch {
        VectorStreamBatch {
            states: self.net.zero_states(slots),
            ws: StackedScratch::new(),
            x: Mat::zeros(slots, self.dim),
            preds: Mat::zeros(slots, self.dim),
            steps: vec![0; slots],
        }
    }

    /// Feed one staged sample per listed slot, batched. Callers stage each
    /// slot's sample into [`VectorStreamBatch::input_row_mut`] first;
    /// `scores` is cleared and refilled with one entry per entry of
    /// `rows`, in order: the one-step-ahead MSE of the slot's previous
    /// prediction against the staged sample (`None` on a slot's first
    /// push). Every slot's scores are bit-identical to the from-scratch
    /// [`VectorLstm::score_stream_batch`] over that slot's samples; see
    /// the `stream_push_rows_bit_identical_to_streams` test.
    pub fn stream_push_rows(
        &self,
        sb: &mut VectorStreamBatch,
        rows: &[usize],
        scores: &mut Vec<Option<f64>>,
    ) {
        scores.clear();
        for &r in rows {
            scores.push((sb.steps[r] > 0).then(|| mse_vec(sb.preds.row(r), sb.x.row(r))));
        }
        let y = self
            .net
            .step_infer_rows_ws(&sb.x, rows, &mut sb.states, &mut sb.ws);
        for &r in rows {
            sb.preds.row_mut(r).copy_from_slice(y.row(r));
            sb.steps[r] += 1;
        }
    }

    /// Batch reference for the streaming scorer: for every position `t`,
    /// re-run the net from zero state over the full prefix `..=t` and
    /// score its prediction of sample `t+1`. O(n²) — exists so tests can
    /// prove [`VectorLstm::stream_push_rows`] matches a from-scratch
    /// recompute.
    pub fn score_stream_batch(&self, seq: &[Vec<f32>]) -> Vec<f64> {
        let mut scores = Vec::with_capacity(seq.len().saturating_sub(1));
        for t in 1..seq.len() {
            let xs: Vec<Mat> = seq[..t]
                .iter()
                .map(|v| Mat::from_vec(1, self.dim, v.clone()))
                .collect();
            let pred = self.net.infer(&xs);
            scores.push(mse_vec(pred.row(0), &seq[t]));
        }
        scores
    }
}

/// Reusable buffers for [`VectorLstm::score_sequence_ws`]: per-layer
/// recurrent states, the gate scratch, and staging mats for the input
/// sample and head output.
#[derive(Debug, Clone)]
pub struct ScoreWorkspace {
    states: Vec<LstmState>,
    ws: StackedScratch,
    x: Mat,
    y: Mat,
}

/// Slot-resident carried state for a batched [`VectorLstm`] streaming
/// pass: row `s` of every matrix belongs to stream slot `s`. Callers
/// recycle slots with [`VectorStreamBatch::reset_slot`] and add rows with
/// [`VectorStreamBatch::grow`].
#[derive(Debug, Clone)]
pub struct VectorStreamBatch {
    states: Vec<LstmState>,
    ws: StackedScratch,
    x: Mat,
    preds: Mat,
    steps: Vec<usize>,
}

impl VectorStreamBatch {
    /// Slot capacity.
    pub fn slots(&self) -> usize {
        self.steps.len()
    }

    /// Stage buffer for `slot`'s next sample; overwrite the whole row
    /// before listing the slot in a [`VectorLstm::stream_push_rows`] wave.
    pub fn input_row_mut(&mut self, slot: usize) -> &mut [f32] {
        self.x.row_mut(slot)
    }

    /// The model's current prediction of `slot`'s next sample (zeros
    /// before the slot's first push).
    pub fn prediction(&self, slot: usize) -> &[f32] {
        self.preds.row(slot)
    }

    /// Grow to `slots` rows. Existing rows keep their state and any staged
    /// sample; new rows start in the fresh-stream state.
    pub fn grow(&mut self, slots: usize) {
        assert!(slots >= self.slots(), "a stream batch never shrinks");
        for st in &mut self.states {
            st.h.resize_rows(slots);
            st.c.resize_rows(slots);
        }
        self.x.resize_rows(slots);
        self.preds.resize_rows(slots);
        self.steps.resize(slots, 0);
    }

    /// Return `slot` to the fresh-stream state (recurrent rows zeroed,
    /// step count cleared) so a new node can take it over.
    pub fn reset_slot(&mut self, slot: usize) {
        for st in &mut self.states {
            st.h.row_mut(slot).fill(0.0);
            st.c.row_mut(slot).fill(0.0);
        }
        self.preds.row_mut(slot).fill(0.0);
        self.steps[slot] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{RmsProp, Sgd};

    /// A deterministic cyclic token dataset the model must learn quickly.
    fn cyclic_seqs(vocab: u32, len: usize, n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|off| (0..len).map(|i| ((i + off) as u32) % vocab).collect())
            .collect()
    }

    #[test]
    fn token_lstm_learns_cyclic_sequence() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let seqs = cyclic_seqs(6, 40, 4);
        let mut m = TokenLstm::new(6, 8, 16, 2, &mut rng);
        let cfg = TrainConfig {
            history: 4,
            batch: 16,
            epochs: 30,
            clip: 5.0,
        };
        let mut opt = Sgd::with_momentum(0.3, 0.9);
        let losses = m.train(&seqs, &cfg, &mut opt, &mut rng);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not drop: {losses:?}"
        );
        let acc = m.accuracy_kstep(&seqs, 4, 1);
        assert!(acc > 0.9, "1-step accuracy {acc}");
    }

    #[test]
    fn token_lstm_kstep_feedback() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let seqs = cyclic_seqs(5, 50, 3);
        let mut m = TokenLstm::new(5, 8, 32, 2, &mut rng);
        let cfg = TrainConfig {
            history: 4,
            batch: 16,
            epochs: 80,
            clip: 5.0,
        };
        let mut opt = Sgd::with_momentum(0.3, 0.9);
        m.train(&seqs, &cfg, &mut opt, &mut rng);
        // After 0,1,2,3 the 3-step continuation must be 4,0,1.
        let pred = m.predict_kstep(&[0, 1, 2, 3], 3);
        assert_eq!(pred, vec![4, 0, 1]);
    }

    #[test]
    fn predict_probs_is_distribution() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let m = TokenLstm::new(7, 4, 8, 1, &mut rng);
        let p = m.predict_probs(&[1, 2, 3]);
        assert_eq!(p.len(), 7);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn train_observed_reports_every_epoch() {
        use crate::observe::RecordingObserver;
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let seqs = cyclic_seqs(5, 20, 2);
        let mut m = TokenLstm::new(5, 4, 8, 1, &mut rng);
        let cfg = TrainConfig {
            history: 4,
            batch: 8,
            epochs: 3,
            clip: 5.0,
        };
        let mut opt = Sgd::new(0.1);
        let mut obs = RecordingObserver::default();
        let losses = m.train_observed(&seqs, &cfg, &mut opt, &mut rng, &mut obs);
        assert_eq!(obs.epochs.len(), 3);
        let observed: Vec<f64> = obs.epochs.iter().map(|(l, _)| *l).collect();
        assert_eq!(observed, losses);
    }

    #[test]
    fn closure_observer_sees_vector_epochs() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let seqs = countdown_seqs(2, 8);
        let mut m = VectorLstm::new(2, 4, 1, &mut rng);
        let cfg = TrainConfig {
            history: 5,
            batch: 8,
            epochs: 2,
            clip: 5.0,
        };
        let mut opt = RmsProp::new(0.01);
        let mut seen = Vec::new();
        let mut hook = |epoch: usize, loss: f64, _d: std::time::Duration| {
            seen.push((epoch, loss));
        };
        m.train_observed(&seqs, &cfg, &mut opt, &mut rng, &mut hook);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[1].0, 1);
    }

    /// Observer exercising the opt-in hooks: records per-layer stats,
    /// keeps the latest checkpoint bytes, and can stop after N epochs.
    struct StatsProbe {
        epochs: Vec<f64>,
        stats: Vec<Vec<crate::observe::ParamStats>>,
        checkpoint: Option<bytes::Bytes>,
        stop_after: Option<usize>,
    }

    impl StatsProbe {
        fn new(stop_after: Option<usize>) -> Self {
            Self {
                epochs: Vec::new(),
                stats: Vec::new(),
                checkpoint: None,
                stop_after,
            }
        }
    }

    impl TrainObserver for StatsProbe {
        fn on_epoch(&mut self, _epoch: usize, mean_loss: f64, _elapsed: Duration) {
            self.epochs.push(mean_loss);
        }
        fn wants_param_stats(&self) -> bool {
            true
        }
        fn on_param_stats(&mut self, _epoch: usize, stats: &[crate::observe::ParamStats]) {
            self.stats.push(stats.to_vec());
        }
        fn wants_checkpoints(&self) -> bool {
            true
        }
        fn on_checkpoint(&mut self, _epoch: usize, serialize: &mut dyn FnMut() -> bytes::Bytes) {
            self.checkpoint = Some(serialize());
        }
        fn should_stop(&self) -> bool {
            self.stop_after.is_some_and(|n| self.epochs.len() >= n)
        }
    }

    #[test]
    fn param_stats_cover_every_layer_and_match_training() {
        // The stats hook must fire once per epoch with one entry per
        // parameter (embedding + per-layer wx/wh/b + head w/b), all
        // finite and named, without perturbing the weights: a run with
        // stats enabled must end bit-identical to a plain run.
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let seqs = cyclic_seqs(6, 30, 3);
        let cfg = TrainConfig {
            history: 4,
            batch: 16,
            epochs: 3,
            clip: 5.0,
        };
        let mut plain = TokenLstm::new(6, 8, 12, 2, &mut rng);
        let mut observed = plain.clone();
        let mut rng_a = Xoshiro256pp::seed_from_u64(99);
        let mut rng_b = Xoshiro256pp::seed_from_u64(99);
        let mut opt_a = Sgd::with_momentum(0.2, 0.9);
        let mut opt_b = Sgd::with_momentum(0.2, 0.9);
        plain.train(&seqs, &cfg, &mut opt_a, &mut rng_a);
        let mut probe = StatsProbe::new(None);
        observed.train_observed(&seqs, &cfg, &mut opt_b, &mut rng_b, &mut probe);

        assert_eq!(probe.stats.len(), 3, "one stats batch per epoch");
        let n_params = observed.params().len();
        for epoch_stats in &probe.stats {
            assert_eq!(epoch_stats.len(), n_params);
            for s in epoch_stats {
                assert!(!s.name.is_empty());
                assert!(
                    s.weight_norm.is_finite() && s.weight_norm > 0.0,
                    "{}",
                    s.name
                );
                assert!(s.grad_norm_mean.is_finite());
                assert!(s.grad_norm_max >= s.grad_norm_mean || s.grad_norm_max == 0.0);
                assert!(s.update_ratio.is_finite());
                assert_eq!(s.nonfinite, 0);
            }
        }
        assert!(probe.checkpoint.is_some());
        for (a, b) in plain.params().iter().zip(observed.params().iter()) {
            assert_eq!(
                a.w.data(),
                b.w.data(),
                "stats pass changed weights: {}",
                a.name
            );
        }
        // The checkpoint bytes reload to the trained weights.
        let restored = TokenLstm::from_bytes(probe.checkpoint.unwrap()).unwrap();
        assert_eq!(
            restored.predict_probs(&[0, 1, 2, 3]),
            observed.predict_probs(&[0, 1, 2, 3])
        );
    }

    #[test]
    fn should_stop_halts_vector_training_early() {
        let mut rng = Xoshiro256pp::seed_from_u64(22);
        let seqs = countdown_seqs(4, 10);
        let mut m = VectorLstm::new(2, 8, 1, &mut rng);
        let cfg = TrainConfig {
            history: 5,
            batch: 8,
            epochs: 10,
            clip: 5.0,
        };
        let mut opt = RmsProp::new(0.01);
        let mut probe = StatsProbe::new(Some(2));
        let losses = m.train_observed(&seqs, &cfg, &mut opt, &mut rng, &mut probe);
        assert_eq!(losses.len(), 2, "stopped after 2 of 10 epochs");
        assert_eq!(probe.stats.len(), 2);
    }

    #[test]
    #[should_panic]
    fn token_train_rejects_too_short_sequences() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut m = TokenLstm::new(4, 4, 4, 1, &mut rng);
        let cfg = TrainConfig {
            history: 8,
            batch: 4,
            epochs: 1,
            clip: 5.0,
        };
        let mut opt = Sgd::new(0.1);
        m.train(&[vec![0, 1, 2]], &cfg, &mut opt, &mut rng);
    }

    /// Synthetic chain: ΔT counts down linearly while the "phrase" channel
    /// ramps; the model must regress the next sample.
    fn countdown_seqs(n: usize, len: usize) -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|j| {
                (0..len)
                    .map(|i| {
                        let t = (len - 1 - i) as f32 / len as f32;
                        let p = (i as f32 + j as f32 * 0.1) / len as f32;
                        vec![t, p]
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn vector_lstm_learns_countdown() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let seqs = countdown_seqs(8, 10);
        let mut m = VectorLstm::new(2, 16, 2, &mut rng);
        let cfg = TrainConfig {
            history: 5,
            batch: 16,
            epochs: 60,
            clip: 5.0,
        };
        let mut opt = RmsProp::new(0.005);
        let losses = m.train(&seqs, &cfg, &mut opt, &mut rng);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.3),
            "loss did not drop: first {} last {}",
            losses[0],
            losses.last().unwrap()
        );
        // Scores along a training-like sequence should be small.
        let scores = m.score_sequence(&seqs[0], 5);
        let avg: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!(avg < 0.05, "avg score {avg}");
    }

    #[test]
    fn vector_lstm_flags_dissimilar_sequences() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let seqs = countdown_seqs(8, 10);
        let mut m = VectorLstm::new(2, 16, 2, &mut rng);
        let cfg = TrainConfig {
            history: 5,
            batch: 16,
            epochs: 60,
            clip: 5.0,
        };
        let mut opt = RmsProp::new(0.005);
        m.train(&seqs, &cfg, &mut opt, &mut rng);
        // A wildly different sequence must score worse than a familiar one.
        let alien: Vec<Vec<f32>> = (0..10).map(|i| vec![5.0, -3.0 + i as f32]).collect();
        let familiar_avg: f64 = {
            let s = m.score_sequence(&seqs[0], 5);
            s.iter().sum::<f64>() / s.len() as f64
        };
        let alien_avg: f64 = {
            let s = m.score_sequence(&alien, 5);
            s.iter().sum::<f64>() / s.len() as f64
        };
        assert!(
            alien_avg > familiar_avg * 10.0,
            "familiar {familiar_avg} vs alien {alien_avg}"
        );
    }

    #[test]
    fn vector_lstm_short_window_padding() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let m = VectorLstm::new(2, 8, 1, &mut rng);
        let w: Vec<&[f32]> = vec![&[0.5, 0.5]];
        let out = m.predict_next(&w, 5);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic]
    fn vector_train_rejects_bad_width() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut m = VectorLstm::new(2, 4, 1, &mut rng);
        let cfg = TrainConfig::default();
        let mut opt = RmsProp::new(0.01);
        m.train(&[vec![vec![1.0, 2.0, 3.0]]], &cfg, &mut opt, &mut rng);
    }

    #[test]
    fn predict_next_ws_bit_identical_to_padded_infer() {
        // The staged workspace path against `StackedLstm::infer` over
        // freshly built zero-padded window mats, for windows shorter than,
        // equal to and longer than the history, one workspace throughout.
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let m = VectorLstm::new(3, 8, 2, &mut rng);
        let seq: Vec<Vec<f32>> = (0..9)
            .map(|_| (0..3).map(|_| rng.f32() * 2.0 - 1.0).collect())
            .collect();
        let history = 5;
        let mut sw = m.workspace();
        for len in 1..=seq.len() {
            let window = &seq[..len];
            let xs: Vec<Mat> = (len..history)
                .map(|_| Mat::zeros(1, 3))
                .chain(
                    window[len.saturating_sub(history)..]
                        .iter()
                        .map(|v| Mat::from_vec(1, 3, v.clone())),
                )
                .collect();
            let want: Vec<u32> = m
                .net
                .infer(&xs)
                .row(0)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let got = m.predict_next_ws(len, history, &mut sw, |k, row| {
                row.copy_from_slice(&window[k])
            });
            let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "window of {len}");
        }
    }

    #[test]
    fn score_sequence_matches_predict_next_loop() {
        // The workspace scorer must reproduce the naive windowed path:
        // per position, predict from the `history` preceding samples and
        // take the MSE against the observation.
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let m = VectorLstm::new(2, 8, 2, &mut rng);
        let seq = &countdown_seqs(1, 12)[0];
        let history = 5;
        let fast = m.score_sequence(seq, history);
        assert_eq!(fast.len(), seq.len() - 1);
        for t in 1..seq.len() {
            let lo = t.saturating_sub(history);
            let window: Vec<&[f32]> = seq[lo..t].iter().map(|v| v.as_slice()).collect();
            let pred = m.predict_next(&window, history);
            let want = mse_vec(&pred, &seq[t]);
            assert_eq!(fast[t - 1], want, "position {t}");
        }
    }

    #[test]
    fn stream_push_rows_bit_identical_to_streams() {
        // A slot-resident batch stepped in waves must reproduce, bit for
        // bit, a from-scratch recompute of each slot's samples: scores,
        // the pending prediction, a mid-flight reset, and rows added by
        // growing the batch while other rows carry state.
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let m = VectorLstm::new(3, 8, 2, &mut rng);
        let slots = 4usize;
        let seqs: Vec<Vec<Vec<f32>>> = (0..slots)
            .map(|s| {
                (0..6 + s)
                    .map(|_| (0..3).map(|_| rng.f32() - 0.5).collect())
                    .collect()
            })
            .collect();
        // Slot 3 exists only once the batch grows, at tick 2.
        let start = |s: usize| if s == 3 { 2 } else { 0 };

        let mut sb = m.begin_stream_batch(slots - 1);
        let mut wave_scores = Vec::new();
        let mut batched: Vec<Vec<Option<f64>>> = vec![Vec::new(); slots];
        let max_t = (0..slots).map(|s| start(s) + seqs[s].len()).max().unwrap();
        for t in 0..max_t {
            if t == 2 {
                sb.grow(slots);
            }
            // Slot 2 is recycled after its 3rd event, as if its node was
            // evicted and a fresh one took the slot over.
            if t == 3 {
                sb.reset_slot(2);
            }
            let rows: Vec<usize> = (0..slots.min(sb.slots()))
                .filter(|&s| t >= start(s) && t - start(s) < seqs[s].len())
                .collect();
            for &s in &rows {
                sb.input_row_mut(s).copy_from_slice(&seqs[s][t - start(s)]);
            }
            m.stream_push_rows(&mut sb, &rows, &mut wave_scores);
            for (&s, sc) in rows.iter().zip(&wave_scores) {
                batched[s].push(*sc);
            }
        }

        for s in 0..slots {
            let segments = if s == 2 {
                vec![&seqs[s][..3], &seqs[s][3..]]
            } else {
                vec![&seqs[s][..]]
            };
            let mut want = Vec::new();
            for seg in &segments {
                want.push(None);
                want.extend(m.score_stream_batch(seg).into_iter().map(Some));
            }
            let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                v.iter().map(|x| x.map(f64::to_bits)).collect()
            };
            assert_eq!(bits(&batched[s]), bits(&want), "slot {s} scores diverged");
            let last = segments.last().unwrap();
            let xs: Vec<Mat> = last
                .iter()
                .map(|v| Mat::from_vec(1, 3, v.clone()))
                .collect();
            let pb: Vec<u32> = sb.prediction(s).iter().map(|x| x.to_bits()).collect();
            let ps: Vec<u32> = m
                .net
                .infer(&xs)
                .row(0)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(pb, ps, "slot {s} prediction diverged");
        }
    }
}
