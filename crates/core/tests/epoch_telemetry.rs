//! End-to-end coverage for [`desh_core::EpochTelemetry`]: a real
//! data-parallel `train_observed` run at 2 shards must populate the
//! per-shard throughput gauges and the gradient-reduce latency histogram
//! — not just the unit-level fakes in `observe.rs`.
//!
//! The shard count is fixed once per process, so this lives in its own
//! integration-test binary where `DESH_SHARDS` can be set before the
//! first `shard_count()` call.

use desh_core::EpochTelemetry;
use desh_nn::{Sgd, TokenLstm, TrainConfig};
use desh_obs::Telemetry;
use desh_util::Xoshiro256pp;

#[test]
fn two_shard_training_populates_shard_gauges_and_reduce_histogram() {
    std::env::set_var("DESH_SHARDS", "2");
    assert_eq!(
        desh_nn::shard_count(),
        2,
        "override must land before first use"
    );

    let t = Telemetry::enabled();
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let seqs: Vec<Vec<u32>> = (0..4)
        .map(|off| (0..24).map(|i| ((i + off) as u32) % 5).collect())
        .collect();
    let mut m = TokenLstm::new(5, 4, 8, 1, &mut rng);
    let cfg = TrainConfig {
        history: 4,
        batch: 8,
        epochs: 2,
        clip: 5.0,
    };
    let mut opt = Sgd::new(0.1);
    let mut obs = EpochTelemetry::new(&t, "phase1");
    m.train_observed(&seqs, &cfg, &mut opt, &mut rng, &mut obs);

    let snap = t.snapshot().unwrap();
    assert_eq!(snap.counter("phase1.epochs"), Some(2));
    // One throughput gauge per shard, and none beyond the shard count.
    for shard in 0..2 {
        let g = snap.gauge(&format!("phase1.shard_seqs_per_s[shard={shard}]"));
        assert!(g.is_some(), "missing throughput gauge for shard {shard}");
        assert!(g.unwrap() >= 0.0);
    }
    assert!(
        snap.gauge("phase1.shard_seqs_per_s[shard=2]").is_none(),
        "gauges must stop at the configured shard count"
    );
    // 4 sequences of 24 tokens with history 4 -> 80 windows per epoch.
    assert_eq!(snap.counter("phase1.shard_windows"), Some(160));
    // One tree-reduce per minibatch: ceil(80/8) = 10 per epoch.
    let h = snap.histogram("phase1.grad_reduce_us").unwrap();
    assert_eq!(h.count(), 20, "one grad_reduce_us sample per minibatch");
}
