//! Ledger-backed training sessions: wire the run ledger and divergence
//! watchdog into the observer hooks of all three training phases.
//!
//! A [`RunSession`] owns one [`desh_obs::RunLedger`] for the duration of
//! a pipeline run. Each training phase borrows a [`LedgerObserver`] from
//! it; the observer forwards every callback to the existing
//! [`EpochTelemetry`] metrics bridge (so attaching a ledger changes no
//! metric), assembles one [`EpochRecord`] per epoch from the pieces the
//! trainer reports (`on_epoch` → loss/wall, `on_shards` → throughput,
//! `on_grad_reduce` → reduce latency, `on_param_stats` → per-layer
//! gradient stats), appends it to `series.jsonl`, and runs the
//! [`watchdog`](crate::watchdog) over it.
//!
//! When the watchdog trips, the observer stops accepting checkpoints,
//! dumps `divergence.json` plus the last healthy epoch's weights
//! (`last-good-<phase>.ckpt`), and returns `true` from `should_stop`, so
//! the trainer breaks out of its epoch loop at the end of the offending
//! epoch. The phase function then surfaces the [`DivergenceRecord`] as an
//! error and the pipeline writes `run.json` with status `"diverged"`.
//!
//! Attaching a session never perturbs training numerics: observers only
//! read the merged gradient buffers and (lazily) serialize weights; the
//! trainer's RNG and shuffle state advance exactly as without a ledger.

use crate::config::DeshConfig;
use crate::observe::EpochTelemetry;
use crate::watchdog::{check_epoch, WatchdogConfig};
use bytes::Bytes;
use desh_loggen::LogRecord;
use desh_nn::{nonfinite_grad_count, shard_count, ParamStats, ShardStats, TrainObserver};
use desh_obs::{
    fnv1a, now_unix_ms, DivergenceRecord, EpochRecord, LayerStat, RunLedger, RunManifest, Telemetry,
};
use std::io;
use std::path::Path;
use std::time::Duration;

/// Fingerprint a dataset for the run manifest: FNV-1a over every
/// record's timestamp, node and text, plus the record count. Two runs
/// over the same log stream get the same fingerprint regardless of
/// where the file lives.
pub fn dataset_fingerprint(records: &[LogRecord]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut step = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for r in records {
        step(&r.time.0.to_le_bytes());
        step(&[
            r.node.cab_x,
            r.node.cab_y,
            r.node.chassis,
            r.node.slot,
            r.node.node,
        ]);
        step(r.text.as_bytes());
    }
    format!("ds-{:016x}-n{}", h, records.len())
}

/// Hash a pipeline configuration. The same value is stamped into v3
/// checkpoints, so `runs show` can link a checkpoint back to the ledger
/// it was trained under.
pub fn config_hash(cfg: &DeshConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// A live run ledger plus watchdog state, threaded through phases 1–3.
#[derive(Debug)]
pub struct RunSession {
    ledger: RunLedger,
    watchdog: WatchdogConfig,
    divergence: Option<DivergenceRecord>,
    /// Last healthy epoch's serialized weights for the current phase.
    last_good: Option<(u64, Bytes)>,
    /// Loss fault-injection seam: `(phase, epoch)` after which the
    /// observed mean loss is overridden with NaN.
    poison: Option<(String, u64)>,
    /// [`nonfinite_grad_count`] baseline at session start, so the
    /// watchdog reasons over this run's poisoned gradients only.
    nonfinite_base: u64,
}

impl RunSession {
    /// Create a session (and its ledger directory) under `root`. The
    /// manifest snapshots the seed, shard/thread environment, dataset
    /// fingerprint, and the key config fields.
    pub fn create(root: &Path, seed: u64, cfg: &DeshConfig, dataset: String) -> io::Result<Self> {
        let run_id = format!("run-{}-s{}", now_unix_ms(), seed);
        Self::create_with_id(root, run_id, seed, cfg, dataset)
    }

    /// [`RunSession::create`] with an explicit run id (tests, CLI `--run-id`).
    pub fn create_with_id(
        root: &Path,
        run_id: String,
        seed: u64,
        cfg: &DeshConfig,
        dataset: String,
    ) -> io::Result<Self> {
        let p1 = &cfg.phase1;
        let p2 = &cfg.phase2;
        let manifest = RunManifest {
            run_id,
            created_unix_ms: now_unix_ms(),
            seed,
            shards: shard_count() as u64,
            threads: std::env::var("DESH_THREADS").unwrap_or_else(|_| "default".into()),
            dataset,
            config_hash: config_hash(cfg),
            config: vec![
                ("phase1.hidden".into(), p1.hidden.to_string()),
                ("phase1.layers".into(), p1.layers.to_string()),
                ("phase1.history".into(), p1.history.to_string()),
                ("phase1.epochs".into(), p1.epochs.to_string()),
                ("phase1.lr".into(), p1.lr.to_string()),
                ("phase1.use_sgns".into(), p1.use_sgns.to_string()),
                ("phase2.hidden".into(), p2.hidden.to_string()),
                ("phase2.epochs".into(), p2.epochs.to_string()),
                ("phase2.lr".into(), p2.lr.to_string()),
                (
                    "phase3.mse_threshold".into(),
                    cfg.phase3.mse_threshold.to_string(),
                ),
            ],
        };
        Ok(Self {
            ledger: RunLedger::create(root, manifest)?,
            watchdog: WatchdogConfig::default(),
            divergence: None,
            last_good: None,
            poison: None,
            nonfinite_base: nonfinite_grad_count(),
        })
    }

    /// Override the watchdog thresholds.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Fault injection for tests and drills: once `phase` reaches
    /// `epoch`, the observed mean loss is replaced with NaN before the
    /// watchdog sees it. Everything downstream — the abort, the
    /// divergence dump, the last-good checkpoint — is the real machinery.
    pub fn poison_loss_after(&mut self, phase: &str, epoch: u64) {
        self.poison = Some((phase.to_string(), epoch));
    }

    /// The run id.
    pub fn run_id(&self) -> &str {
        self.ledger.run_id()
    }

    /// The config hash recorded in the manifest.
    pub fn config_hash(&self) -> u64 {
        self.ledger.manifest().config_hash
    }

    /// The run's ledger directory.
    pub fn dir(&self) -> &Path {
        self.ledger.dir()
    }

    /// The watchdog abort record, once a phase has diverged.
    pub fn diverged(&self) -> Option<&DivergenceRecord> {
        self.divergence.as_ref()
    }

    /// Record the path of the exported model checkpoint (the CLI's
    /// `--out` file, stamped with this run's id and config hash) so
    /// `runs show` can link checkpoint and ledger both ways.
    pub fn note_checkpoint(&mut self, path: &str) {
        self.ledger.note_checkpoint(path);
    }

    /// Borrow an observer for one training phase. `phase` names the
    /// series rows and the metric prefix (`sgns`/`phase1`/`phase2`).
    pub fn observer<'a>(
        &'a mut self,
        phase: &'static str,
        telemetry: &'a Telemetry,
    ) -> LedgerObserver<'a> {
        self.last_good = None;
        LedgerObserver {
            inner: EpochTelemetry::new(telemetry, phase),
            session: self,
            phase,
            epochs: 0,
            phase_wall_us: 0,
            final_loss: f64::NAN,
            cur: EpochScratch::default(),
        }
    }

    /// Write `run.json` and consume the session. Pass the final pipeline
    /// metrics (with `paper.*` reference keys) for completed runs; on a
    /// diverged run the stored abort record sets status `"diverged"`.
    pub fn finish(self, end_metrics: &[(String, f64)]) -> io::Result<()> {
        self.ledger.finish(self.divergence.as_ref(), end_metrics)
    }

    /// Finalize one epoch: poison seam, watchdog, series append.
    fn commit_epoch(&mut self, phase: &str, rec: &mut EpochRecord) {
        if let Some((p, e)) = &self.poison {
            if p == phase && rec.epoch >= *e {
                rec.loss = f64::NAN;
            }
        }
        if self.divergence.is_none() {
            let run_delta = nonfinite_grad_count() - self.nonfinite_base;
            let reason = check_epoch(&self.watchdog, rec.loss, &rec.layers).or_else(|| {
                // Belt-and-braces: the optimizer's sanitizer saw poisoned
                // gradients this run even if per-layer stats missed them
                // (e.g. a trainer without the stats hook).
                (self.watchdog.trip_on_nonfinite
                    && run_delta > 0
                    && rec.layers.iter().all(|l| l.nonfinite == 0))
                .then(|| crate::watchdog::DivergenceReason::NonFiniteGrads {
                    layer: "optimizer".into(),
                    count: run_delta,
                })
            });
            if let Some(reason) = reason {
                let last_good_checkpoint = self.last_good.as_ref().map(|(epoch, bytes)| {
                    let name = format!("last-good-{phase}.ckpt");
                    match self.ledger.save_checkpoint(&name, bytes) {
                        Ok(n) => format!("{n} (epoch {epoch})"),
                        Err(_) => name,
                    }
                });
                let record = DivergenceRecord {
                    phase: phase.to_string(),
                    epoch: rec.epoch,
                    reason: reason.kind().to_string(),
                    detail: reason.detail(),
                    last_good_checkpoint,
                };
                let _ = self.ledger.write_divergence(&record, rec);
                self.divergence = Some(record);
            }
        }
        let _ = self.ledger.append_epoch(rec);
    }
}

/// Per-epoch accumulation: the trainer reports an epoch's pieces across
/// several callbacks (in trainer-specific order), so the observer
/// collects them here and flushes once both the loss (`on_epoch`) and
/// the per-layer stats (`on_param_stats`) have arrived.
#[derive(Debug, Default)]
struct EpochScratch {
    have_loss: bool,
    have_stats: bool,
    epoch: u64,
    loss: f64,
    wall_us: u64,
    shard_seqs_per_s: Vec<f64>,
    reduce_us_sum: f64,
    reduce_n: u64,
    layers: Vec<LayerStat>,
}

/// The [`TrainObserver`] a [`RunSession`] lends to each training phase.
/// Forwards everything to [`EpochTelemetry`] and feeds the ledger.
pub struct LedgerObserver<'a> {
    inner: EpochTelemetry<'a>,
    session: &'a mut RunSession,
    phase: &'static str,
    epochs: u64,
    phase_wall_us: u64,
    final_loss: f64,
    cur: EpochScratch,
}

impl LedgerObserver<'_> {
    /// Record the phase's summary row for `run.json`. Call after the
    /// trainer returns (also safe after an abort).
    pub fn finish(self) {
        self.session
            .ledger
            .end_phase(self.phase, self.epochs, self.phase_wall_us, self.final_loss);
    }

    fn maybe_commit(&mut self) {
        if !(self.cur.have_loss && self.cur.have_stats) {
            return;
        }
        let cur = std::mem::take(&mut self.cur);
        let grad_norm = cur
            .layers
            .iter()
            .map(|l| l.grad_norm_max)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut rec = EpochRecord {
            phase: self.phase.to_string(),
            epoch: cur.epoch,
            loss: cur.loss,
            wall_us: cur.wall_us,
            grad_norm: if grad_norm.is_finite() {
                grad_norm
            } else {
                f64::NAN
            },
            grad_reduce_us: if cur.reduce_n > 0 {
                cur.reduce_us_sum / cur.reduce_n as f64
            } else {
                f64::NAN
            },
            shard_seqs_per_s: cur.shard_seqs_per_s,
            layers: cur.layers,
        };
        self.epochs += 1;
        self.phase_wall_us += rec.wall_us;
        self.session.commit_epoch(self.phase, &mut rec);
        self.final_loss = rec.loss;
    }
}

impl TrainObserver for LedgerObserver<'_> {
    fn on_epoch(&mut self, epoch: usize, mean_loss: f64, elapsed: Duration) {
        self.inner.on_epoch(epoch, mean_loss, elapsed);
        self.cur.epoch = epoch as u64;
        self.cur.loss = mean_loss;
        self.cur.wall_us = elapsed.as_micros() as u64;
        self.cur.have_loss = true;
        self.maybe_commit();
    }

    fn on_shards(&mut self, epoch: usize, stats: &[ShardStats]) {
        self.inner.on_shards(epoch, stats);
        self.cur.shard_seqs_per_s = stats.iter().map(ShardStats::throughput).collect();
    }

    fn on_grad_reduce(&mut self, elapsed: Duration) {
        self.inner.on_grad_reduce(elapsed);
        self.cur.reduce_us_sum += elapsed.as_micros() as f64;
        self.cur.reduce_n += 1;
    }

    fn wants_param_stats(&self) -> bool {
        true
    }

    fn on_param_stats(&mut self, epoch: usize, stats: &[ParamStats]) {
        self.cur.epoch = epoch as u64;
        self.cur.layers = stats
            .iter()
            .map(|s| LayerStat {
                name: s.name.clone(),
                weight_norm: s.weight_norm,
                grad_norm_mean: s.grad_norm_mean,
                grad_norm_max: s.grad_norm_max,
                update_ratio: s.update_ratio,
                nonfinite: s.nonfinite,
            })
            .collect();
        self.cur.have_stats = true;
        self.maybe_commit();
    }

    fn wants_checkpoints(&self) -> bool {
        self.session.divergence.is_none()
    }

    fn on_checkpoint(&mut self, epoch: usize, serialize: &mut dyn FnMut() -> Bytes) {
        // Skipped for the offending epoch (wants_checkpoints gates the
        // call after the watchdog trips), so this always holds the last
        // *healthy* weights.
        if self.session.divergence.is_none() {
            self.session.last_good = Some((epoch as u64, serialize()));
        }
    }

    fn should_stop(&self) -> bool {
        self.session.divergence.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_obs::load_series;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("desh-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stats(name: &str, grad_max: f64, nonfinite: u64) -> ParamStats {
        ParamStats {
            name: name.into(),
            weight_norm: 2.0,
            grad_norm_mean: grad_max / 2.0,
            grad_norm_max: grad_max,
            update_ratio: 0.01,
            nonfinite,
        }
    }

    fn session(root: &Path, id: &str) -> RunSession {
        RunSession::create_with_id(root, id.into(), 7, &DeshConfig::fast(), "ds-test".into())
            .unwrap()
    }

    #[test]
    fn observer_assembles_epochs_in_either_callback_order() {
        let root = temp_root("order");
        let mut s = session(&root, "run-order");
        let t = Telemetry::disabled();
        {
            let mut obs = s.observer("phase1", &t);
            // models.rs order: epoch first, then stats.
            obs.on_grad_reduce(Duration::from_micros(100));
            obs.on_epoch(0, 0.9, Duration::from_micros(500));
            obs.on_param_stats(0, &[stats("l0", 1.0, 0)]);
            // sgns order: stats first, then epoch.
            obs.on_param_stats(1, &[stats("l0", 0.8, 0)]);
            obs.on_epoch(1, 0.7, Duration::from_micros(400));
            assert!(!obs.should_stop());
            obs.finish();
        }
        assert!(s.diverged().is_none());
        let series = load_series(s.dir()).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].epoch, 0);
        assert_eq!(series[0].grad_reduce_us, 100.0);
        assert_eq!(series[1].loss, 0.7);
        assert!(series[1].grad_reduce_us.is_nan(), "no reduce in epoch 1");
        assert_eq!(series[1].layers[0].grad_norm_max, 0.8);
        s.finish(&[]).unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn poisoned_loss_trips_watchdog_and_keeps_last_good_checkpoint() {
        let root = temp_root("poison");
        let mut s = session(&root, "run-poison");
        s.poison_loss_after("phase1", 1);
        let t = Telemetry::disabled();
        {
            let mut obs = s.observer("phase1", &t);
            obs.on_epoch(0, 0.9, Duration::from_micros(10));
            obs.on_param_stats(0, &[stats("l0", 1.0, 0)]);
            assert!(obs.wants_checkpoints());
            obs.on_checkpoint(0, &mut || Bytes::from(vec![1, 2, 3]));
            assert!(!obs.should_stop());

            obs.on_epoch(1, 0.8, Duration::from_micros(10)); // poisoned to NaN
            obs.on_param_stats(1, &[stats("l0", 1.0, 0)]);
            assert!(!obs.wants_checkpoints(), "no checkpoint of the bad epoch");
            assert!(obs.should_stop());
            obs.finish();
        }
        let d = s.diverged().unwrap().clone();
        assert_eq!(d.reason, "nan_loss");
        assert_eq!(d.epoch, 1);
        let ckpt = d.last_good_checkpoint.unwrap();
        assert!(ckpt.starts_with("last-good-phase1.ckpt"), "{ckpt}");
        assert_eq!(
            std::fs::read(s.dir().join("last-good-phase1.ckpt")).unwrap(),
            vec![1, 2, 3]
        );
        assert!(s.dir().join("divergence.json").exists());
        // The offending epoch is still in the series, loss null → NaN.
        let series = load_series(s.dir()).unwrap();
        assert_eq!(series.len(), 2);
        assert!(series[1].loss.is_nan());
        s.finish(&[]).unwrap();
        let run = desh_obs::load_run(&root.join("run-poison")).unwrap();
        assert_eq!(run.status, "diverged");
        assert_eq!(run.divergence.unwrap().reason, "nan_loss");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn exploding_grad_trips_via_param_stats() {
        let root = temp_root("explode");
        let mut s = session(&root, "run-explode");
        let t = Telemetry::disabled();
        {
            let mut obs = s.observer("phase2", &t);
            obs.on_epoch(0, 0.5, Duration::from_micros(10));
            obs.on_param_stats(0, &[stats("net.cell", 5e4, 0)]);
            assert!(obs.should_stop());
            obs.finish();
        }
        let d = s.diverged().unwrap();
        assert_eq!(d.reason, "exploding_grad");
        assert!(d.detail.contains("net.cell"));
        assert!(d.last_good_checkpoint.is_none(), "no healthy epoch existed");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dataset_fingerprint_is_stable_and_content_sensitive() {
        use desh_util::Micros;
        let rec = |t: u64, text: &str| LogRecord {
            time: Micros(t),
            node: "c0-0c0s0n0".parse().unwrap(),
            text: text.into(),
        };
        let a = vec![rec(1, "boot"), rec(2, "ok")];
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&a.clone()));
        let b = vec![rec(1, "boot"), rec(2, "fail")];
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        assert!(dataset_fingerprint(&a).ends_with("-n2"));
    }
}
