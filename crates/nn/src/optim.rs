//! Optimizers: SGD (phase 1) and RMSprop (phases 2/3), per Table 5.
//! Adam is included for the ablation benches.

use crate::mat::Mat;
use crate::param::Param;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of non-finite gradient values caught (and zeroed)
/// by optimizer steps. See [`nonfinite_grad_count`].
static NONFINITE_GRADS: AtomicU64 = AtomicU64::new(0);

/// Monotonic process-wide count of NaN/Inf gradient values the optimizers
/// have zeroed before stepping. A healthy run stays at 0 forever; the
/// divergence watchdog samples it per epoch and treats any growth as a
/// divergence signal.
pub fn nonfinite_grad_count() -> u64 {
    NONFINITE_GRADS.load(Ordering::Relaxed)
}

/// Zero non-finite gradient values in place so one NaN cannot poison a
/// whole weight matrix through the update rule, counting what was caught
/// into [`nonfinite_grad_count`]. Returns this call's catch count.
fn sanitize_grads(params: &mut [&mut Param]) -> u64 {
    let mut bad = 0u64;
    for p in params.iter_mut() {
        // A read-only count first: a healthy run never takes the write pass.
        let n = p.g.data().iter().filter(|g| !g.is_finite()).count();
        if n > 0 {
            p.g.data_mut()
                .iter_mut()
                .filter(|g| !g.is_finite())
                .for_each(|g| *g = 0.0);
            bad += n as u64;
        }
    }
    if bad > 0 {
        NONFINITE_GRADS.fetch_add(bad, Ordering::Relaxed);
    }
    bad
}

/// A first-order optimizer stepping a fixed, ordered parameter set.
/// State is keyed by position, so the caller must always pass parameters
/// in the same order (models yield them deterministically).
pub trait Optimizer {
    /// Apply one update from the accumulated gradients, then zero them.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Learning rate currently in effect.
    fn learning_rate(&self) -> f32;

    /// Adjust the learning rate (simple decay schedules live in callers).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Mat>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum));
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        sanitize_grads(params);
        if self.velocity.is_empty() && self.momentum > 0.0 {
            self.velocity = params
                .iter()
                .map(|p| Mat::zeros(p.w.rows(), p.w.cols()))
                .collect();
        }
        let (lr, momentum) = (self.lr, self.momentum);
        for (i, p) in params.iter_mut().enumerate() {
            let Param { w, g, .. } = &mut **p;
            if momentum > 0.0 {
                let v = self.velocity[i].data_mut();
                for ((w, &g), v) in w.data_mut().iter_mut().zip(g.data()).zip(v) {
                    *v *= momentum;
                    *v += 1.0 * g;
                    *w += -lr * *v;
                }
            } else {
                w.axpy(-lr, g);
            }
            p.zero_grad();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// RMSprop (Tieleman & Hinton): per-weight learning rates from a moving
/// average of squared gradients. The paper pairs it with the MSE loss in
/// phases 2 and 3.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    decay: f32,
    eps: f32,
    cache: Vec<Mat>,
}

impl RmsProp {
    /// Standard configuration (decay 0.9, eps 1e-8).
    pub fn new(lr: f32) -> Self {
        Self::with_params(lr, 0.9, 1e-8)
    }

    /// Fully specified.
    pub fn with_params(lr: f32, decay: f32, eps: f32) -> Self {
        assert!((0.0..1.0).contains(&decay));
        Self {
            lr,
            decay,
            eps,
            cache: Vec::new(),
        }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, params: &mut [&mut Param]) {
        sanitize_grads(params);
        if self.cache.is_empty() {
            self.cache = params
                .iter()
                .map(|p| Mat::zeros(p.w.rows(), p.w.cols()))
                .collect();
        }
        assert_eq!(self.cache.len(), params.len(), "parameter set changed size");
        let (lr, decay, eps) = (self.lr, self.decay, self.eps);
        for (p, cache) in params.iter_mut().zip(&mut self.cache) {
            let Param { w, g, .. } = &mut **p;
            let wgc = w.data_mut().iter_mut().zip(g.data()).zip(cache.data_mut());
            for ((w, &g), c) in wgc {
                *c = decay * *c + (1.0 - decay) * g * g;
                *w -= lr * g / (c.sqrt() + eps);
            }
            p.zero_grad();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba). Not used by the paper's pipeline, but kept for the
/// optimizer ablation bench.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Mat>,
    v: Vec<Mat>,
}

impl Adam {
    /// Standard configuration (0.9 / 0.999 / 1e-8).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        sanitize_grads(params);
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Mat::zeros(p.w.rows(), p.w.cols()))
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            let Param { w, g, .. } = &mut **p;
            let wgmv = w
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.data_mut())
                .zip(v.data_mut());
            for (((w, &g), m), v) in wgmv {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mhat = *m / b1t;
                let vhat = *v / b2t;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
            p.zero_grad();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(w) = (w - 3)^2 with each optimizer; all must converge.
    fn run(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = Param::zeros("w", 1, 1);
        for _ in 0..steps {
            let w = p.w.data()[0];
            p.g.data_mut()[0] = 2.0 * (w - 3.0);
            opt.step(&mut [&mut p]);
        }
        p.w.data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = run(&mut Sgd::new(0.1), 200);
        assert!((w - 3.0).abs() < 1e-3, "w={w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let w = run(&mut Sgd::with_momentum(0.05, 0.9), 300);
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        let w = run(&mut RmsProp::new(0.05), 500);
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = run(&mut Adam::new(0.1), 500);
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = Param::zeros("w", 2, 2);
        p.g.data_mut().copy_from_slice(&[1.0, 1.0, 1.0, 1.0]);
        Sgd::new(0.1).step(&mut [&mut p]);
        assert!(p.g.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn rmsprop_adapts_per_weight() {
        // Two weights with very different gradient magnitudes should move
        // by comparable amounts under RMSprop (unlike SGD).
        let mut p = Param::zeros("w", 1, 2);
        let mut opt = RmsProp::new(0.01);
        for _ in 0..10 {
            p.g.data_mut()[0] = 100.0;
            p.g.data_mut()[1] = 0.01;
            opt.step(&mut [&mut p]);
        }
        let moved0 = p.w.data()[0].abs();
        let moved1 = p.w.data()[1].abs();
        assert!(moved0 > 0.0 && moved1 > 0.0);
        let ratio = moved0 / moved1;
        assert!(
            ratio < 10.0,
            "RMSprop should normalise magnitudes, ratio {ratio}"
        );
    }

    #[test]
    fn poisoned_gradient_is_counted_and_neutralised() {
        // A NaN/Inf gradient must not reach the weights: the step zeroes
        // the poisoned entries, applies the finite ones, and bumps the
        // process-wide counter the divergence watchdog reads.
        for opt in [
            &mut Sgd::with_momentum(0.1, 0.9) as &mut dyn Optimizer,
            &mut RmsProp::new(0.1),
            &mut Adam::new(0.1),
        ] {
            let before = nonfinite_grad_count();
            let mut p = Param::zeros("w", 1, 3);
            p.w.data_mut().copy_from_slice(&[1.0, 2.0, 3.0]);
            p.g.data_mut()
                .copy_from_slice(&[f32::NAN, f32::INFINITY, 0.5]);
            opt.step(&mut [&mut p]);
            assert!(
                p.w.data().iter().all(|x| x.is_finite()),
                "weights poisoned: {:?}",
                p.w.data()
            );
            // Poisoned entries got a zero gradient, so their weights are
            // untouched; the finite entry still trained.
            assert_eq!(p.w.data()[0], 1.0);
            assert_eq!(p.w.data()[1], 2.0);
            assert_ne!(p.w.data()[2], 3.0);
            assert_eq!(nonfinite_grad_count() - before, 2);
        }
    }

    #[test]
    fn learning_rate_accessors() {
        let mut s = Sgd::new(0.5);
        assert_eq!(s.learning_rate(), 0.5);
        s.set_learning_rate(0.25);
        assert_eq!(s.learning_rate(), 0.25);
    }
}
