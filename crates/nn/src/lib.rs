//! `desh-nn`: a from-scratch CPU deep-learning substrate.
//!
//! The Desh paper prototypes its pipeline with Keras on a TensorFlow
//! backend. This crate rebuilds exactly the pieces that pipeline needs —
//! nothing more — in dependency-light Rust (the only `unsafe` is the
//! feature-gated SIMD intrinsics in [`simd`]):
//!
//! * [`mat::Mat`] — row-major f32 matrices with rayon-parallel GEMM kernels.
//! * [`embedding::Embedding`] — phrase-id lookup tables.
//! * [`lstm::LstmLayer`] — an LSTM layer with full backpropagation through
//!   time; [`stacked::StackedLstm`] stacks them under a dense head
//!   (the paper's 2-hidden-layer configuration, Figure 1b).
//! * [`loss`] — categorical cross-entropy (phase 1) and MSE (phases 2/3).
//! * [`optim`] — SGD and RMSprop (Table 5), plus Adam for ablations.
//! * [`sgns::SkipGram`] — skip-gram embeddings with negative sampling and
//!   the paper's asymmetric 8-left/3-right context window.
//! * [`models::TokenLstm`] / [`models::VectorLstm`] — the two trained model
//!   shapes (next-phrase classifier; (ΔT, phrase) regressor).
//! * [`parallel`] — data-parallel training support: fixed-count gradient
//!   shards merged by a deterministic tree reduction, so training is
//!   bit-for-bit reproducible at any thread count.
//! * [`simd`] — runtime-dispatched SIMD micro-kernels (AVX2/FMA on x86_64,
//!   NEON on aarch64, scalar fallback via `DESH_SIMD=off`) behind the GEMM,
//!   GEMV and fused-gate paths.
//!
//! Everything is deterministic given a [`desh_util::Xoshiro256pp`] seed, and
//! every layer's backward pass is covered by numerical gradient checks in
//! its unit tests.

pub mod act;
pub mod dense;
pub mod embedding;
pub mod gru;
pub mod loss;
pub mod lstm;
pub mod mat;
pub mod models;
pub mod observe;
pub mod optim;
pub mod parallel;
pub mod param;
pub mod serialize;
pub mod sgns;
pub mod simd;
pub mod stacked;

pub use dense::Dense;
pub use embedding::Embedding;
pub use gru::{GruLayer, GruScratch};
pub use lstm::{LstmLayer, LstmScratch, LstmState};
pub use mat::Mat;
pub use models::{ScoreWorkspace, TokenLstm, TrainConfig, VectorLstm, VectorStreamBatch};
pub use observe::{NoopObserver, ParamStats, RecordingObserver, ShardStats, TrainObserver};
pub use optim::{nonfinite_grad_count, Adam, Optimizer, RmsProp, Sgd};
pub use parallel::{shard_count, GradSet};
pub use param::Param;
pub use sgns::{SgnsConfig, SkipGram};
pub use simd::{backend as kernel_backend, backend_name as kernel_backend_name, Backend};
pub use stacked::{StackedLstm, StackedScratch};
