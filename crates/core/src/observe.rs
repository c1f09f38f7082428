//! Bridge from `desh-nn`'s training-observer hook to `desh-obs` metrics.
//!
//! `desh-nn` stays telemetry-free: it defines [`TrainObserver`] and knows
//! nothing about registries. This adapter closes the gap — `desh-core`
//! hands it to `train_observed` and per-epoch loss/wall-time flow into the
//! shared registry under the caller's metric prefix.

use crate::online::Warning;
use desh_nn::{ShardStats, TrainObserver};
use desh_obs::{Telemetry, TraceEvent, WarningRecord};
use desh_util::duration_us;
use std::time::Duration;

/// Bridge a detector [`Warning`] (typed: `NodeId`, `FailureClass`,
/// `Micros`) into the obs-layer [`WarningRecord`] (stringly, so `desh-obs`
/// stays free of core's domain types). `trace` is the node's flight-ring
/// contents at firing time, oldest first.
pub fn warning_record(w: &Warning, trace: Vec<TraceEvent>) -> WarningRecord {
    WarningRecord {
        node: w.node.to_string(),
        at_us: w.at.0,
        predicted_lead_secs: w.predicted_lead_secs,
        score: w.score,
        class: w.class.name().to_string(),
        matched_chain: w.matched_chain.map(|c| c as i64).unwrap_or(-1),
        chain_distance: w.chain_distance.unwrap_or(f64::NAN),
        evidence: w.evidence.clone(),
        trace,
    }
}

/// Forwards per-epoch training progress into a telemetry registry:
/// `<prefix>.epochs` (counter), `<prefix>.epoch_loss` (gauge, last epoch's
/// mean loss) and `<prefix>.epoch_time_us` (latency histogram). The
/// data-parallel trainer additionally feeds `<prefix>.grad_reduce_us`
/// (tree-reduction latency per minibatch), a per-shard
/// `<prefix>.shard_seqs_per_s[shard=N]` throughput gauge, and a
/// `<prefix>.shard_windows` counter of windows processed across shards.
pub struct EpochTelemetry<'a> {
    telemetry: &'a Telemetry,
    prefix: &'a str,
}

impl<'a> EpochTelemetry<'a> {
    pub fn new(telemetry: &'a Telemetry, prefix: &'a str) -> Self {
        Self { telemetry, prefix }
    }
}

impl TrainObserver for EpochTelemetry<'_> {
    fn on_epoch(&mut self, _epoch: usize, mean_loss: f64, elapsed: Duration) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.count(&format!("{}.epochs", self.prefix), 1);
        self.telemetry
            .gauge_set(&format!("{}.epoch_loss", self.prefix), mean_loss);
        self.telemetry.observe_us(
            &format!("{}.epoch_time_us", self.prefix),
            duration_us(elapsed),
        );
    }

    fn on_shards(&mut self, _epoch: usize, stats: &[ShardStats]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let mut windows = 0u64;
        for s in stats {
            windows += s.windows as u64;
            self.telemetry.gauge_set(
                &format!("{}.shard_seqs_per_s[shard={}]", self.prefix, s.shard),
                s.throughput(),
            );
        }
        self.telemetry
            .count(&format!("{}.shard_windows", self.prefix), windows);
    }

    fn on_grad_reduce(&mut self, elapsed: Duration) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.observe_us(
            &format!("{}.grad_reduce_us", self.prefix),
            duration_us(elapsed),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_flow_into_registry() {
        let t = Telemetry::enabled();
        let mut obs = EpochTelemetry::new(&t, "phase1");
        obs.on_epoch(0, 2.0, Duration::from_micros(500));
        obs.on_epoch(1, 1.0, Duration::from_micros(700));
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counter("phase1.epochs"), Some(2));
        assert_eq!(
            snap.gauge("phase1.epoch_loss"),
            Some(1.0),
            "gauge keeps last epoch"
        );
        let h = snap.histogram("phase1.epoch_time_us").unwrap();
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.5) >= 400.0);
    }

    #[test]
    fn shard_stats_and_reduce_latency_flow_into_registry() {
        let t = Telemetry::enabled();
        let mut obs = EpochTelemetry::new(&t, "phase1");
        obs.on_shards(
            0,
            &[
                ShardStats {
                    shard: 0,
                    windows: 30,
                    busy: Duration::from_millis(10),
                },
                ShardStats {
                    shard: 1,
                    windows: 20,
                    busy: Duration::from_millis(10),
                },
            ],
        );
        obs.on_grad_reduce(Duration::from_micros(120));
        obs.on_grad_reduce(Duration::from_micros(80));
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counter("phase1.shard_windows"), Some(50));
        assert_eq!(snap.gauge("phase1.shard_seqs_per_s[shard=0]"), Some(3000.0));
        assert_eq!(snap.gauge("phase1.shard_seqs_per_s[shard=1]"), Some(2000.0));
        let h = snap.histogram("phase1.grad_reduce_us").unwrap();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn disabled_telemetry_stays_empty() {
        let t = Telemetry::disabled();
        let mut obs = EpochTelemetry::new(&t, "phase2");
        obs.on_epoch(0, 1.0, Duration::from_micros(10));
        assert!(t.snapshot().is_none());
    }
}
