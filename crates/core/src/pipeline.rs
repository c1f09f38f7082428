//! The end-to-end Desh pipeline: raw dataset → 30/70 chronological split →
//! phase 1 (train) → phase 2 (re-train with ΔTs) → phase 3 (test).

use crate::chain::FailureChain;
use crate::config::DeshConfig;
use crate::leadtime::{lead_by_class, lead_overall, observation4, recall_by_class};
use crate::metrics::Confusion;
use crate::online::{OnlineDetector, DEFAULT_MAX_NODES};
use crate::phase1::{run_phase1_session, run_phase1_telemetry, Phase1Output};
use crate::phase2::{run_phase2_session, run_phase2_telemetry, LeadTimeModel};
use crate::phase3::{run_phase3_telemetry, Verdict};
use crate::session::RunSession;
use desh_loggen::{Dataset, FailureClass};
use desh_logparse::{parse_records_telemetry, ParsedLog};
use desh_obs::{DivergenceRecord, Telemetry};
use desh_util::{Summary, Xoshiro256pp};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Full report from one Desh run on one system's dataset.
#[derive(Debug)]
pub struct DeshReport {
    /// System name (M1..M4).
    pub system: String,
    /// Phase-1 k-step prediction accuracy.
    pub phase1_accuracy: f64,
    /// Number of training failure chains learned.
    pub chains_trained: usize,
    /// Confusion counts over test episodes.
    pub confusion: Confusion,
    /// Per-episode verdicts.
    pub verdicts: Vec<Verdict>,
    /// Overall lead-time summary (true positives).
    pub lead_overall: Summary,
    /// Per-class lead-time summaries.
    pub lead_by_class: BTreeMap<FailureClass, Summary>,
    /// Per-class (flagged, total) ground-truth failure counts.
    pub recall_by_class: BTreeMap<FailureClass, (u64, u64)>,
    /// (mean per-class stddev, overall stddev) — Observation 4.
    pub observation4: (f64, f64),
}

/// The Desh system: configuration + deterministic seed.
#[derive(Debug, Clone)]
pub struct Desh {
    /// Pipeline configuration.
    pub cfg: DeshConfig,
    /// Seed for every stochastic component.
    pub seed: u64,
    /// Telemetry sink for phase spans and metrics (disabled by default).
    pub telemetry: Telemetry,
}

/// Intermediate artifacts kept for inspection and reuse (benches, examples).
#[derive(Debug)]
pub struct TrainedDesh {
    /// Phase-1 artifacts (token model + chains).
    pub phase1: Phase1Output,
    /// Phase-2 lead-time model.
    pub lead_model: LeadTimeModel,
    /// The parsed training log.
    pub parsed_train: ParsedLog,
}

impl TrainedDesh {
    /// Build an [`OnlineDetector`] from the trained artifacts: the
    /// phase-2 model scores against the training vocabulary, and the
    /// trained failure chains are attached so fired warnings can name
    /// their matched chain. Tracing sinks can then be added with
    /// [`OnlineDetector::attach_tracing`].
    pub fn online_detector(&self, cfg: DeshConfig, telemetry: &Telemetry) -> OnlineDetector {
        let mut det = OnlineDetector::with_telemetry(
            self.lead_model.clone(),
            self.parsed_train.vocab.clone(),
            cfg,
            DEFAULT_MAX_NODES,
            telemetry,
        );
        det.attach_chains(&self.phase1.chains);
        det
    }
}

impl Desh {
    /// New pipeline with the given configuration and seed. Telemetry is
    /// disabled; opt in with [`Desh::with_telemetry`].
    pub fn new(cfg: DeshConfig, seed: u64) -> Self {
        Self {
            cfg,
            seed,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; phases record spans and metrics into it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Train phases 1 and 2 on a training dataset.
    pub fn train(&self, train: &Dataset) -> TrainedDesh {
        let _span = self.telemetry.span("train");
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed);
        let parsed_train = parse_records_telemetry(
            &train.records,
            Arc::new(desh_logparse::Vocab::new()),
            &self.telemetry,
        );
        let phase1 = run_phase1_telemetry(&parsed_train, &self.cfg, &mut rng, &self.telemetry);
        assert!(
            !phase1.chains.is_empty(),
            "no failure chains in the training split; enlarge the dataset"
        );
        let lead_model = run_phase2_telemetry(
            &phase1.chains,
            parsed_train.vocab_size(),
            &self.cfg.phase2,
            &mut rng,
            &self.telemetry,
        );
        TrainedDesh {
            phase1,
            lead_model,
            parsed_train,
        }
    }

    /// Evaluate a trained pipeline on a test dataset. The test split is
    /// parsed against the *training* vocabulary so phrase ids stay stable
    /// between phases (new templates extend the vocabulary at fresh ids).
    pub fn evaluate(&self, trained: &TrainedDesh, test: &Dataset) -> DeshReport {
        let _span = self.telemetry.span("evaluate");
        let parsed_test = parse_records_telemetry(
            &test.records,
            trained.parsed_train.vocab.clone(),
            &self.telemetry,
        );
        let out = run_phase3_telemetry(
            &trained.lead_model,
            &parsed_test,
            &test.failures,
            &self.cfg,
            &self.telemetry,
        );
        DeshReport {
            system: test.system.clone(),
            phase1_accuracy: trained.phase1.accuracy_kstep,
            chains_trained: trained.phase1.chains.len(),
            lead_overall: lead_overall(&out.verdicts),
            lead_by_class: lead_by_class(&out.verdicts),
            recall_by_class: recall_by_class(&out.verdicts),
            observation4: observation4(&out.verdicts),
            confusion: out.confusion,
            verdicts: out.verdicts,
        }
    }

    /// Convenience: split 30/70 (the paper's §4 protocol), train, evaluate.
    pub fn run(&self, dataset: &Dataset) -> DeshReport {
        let (train, test) = dataset.split_by_time(0.3);
        let trained = self.train(&train);
        let mut report = self.evaluate(&trained, &test);
        report.system = dataset.system.clone();
        report
    }

    /// [`Desh::train`] with a run ledger attached: both training phases
    /// (plus SGNS pre-training) stream per-epoch rows into the session's
    /// `series.jsonl`, and the divergence watchdog can abort either phase
    /// — in which case the [`DivergenceRecord`] is returned and the
    /// caller should still [`RunSession::finish`] to write `run.json`.
    pub fn train_session(
        &self,
        train: &Dataset,
        session: &mut RunSession,
    ) -> Result<TrainedDesh, DivergenceRecord> {
        let _span = self.telemetry.span("train");
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed);
        let parsed_train = parse_records_telemetry(
            &train.records,
            Arc::new(desh_logparse::Vocab::new()),
            &self.telemetry,
        );
        let phase1 = run_phase1_session(
            &parsed_train,
            &self.cfg,
            &mut rng,
            &self.telemetry,
            Some(session),
        )?;
        assert!(
            !phase1.chains.is_empty(),
            "no failure chains in the training split; enlarge the dataset"
        );
        let lead_model = run_phase2_session(
            &phase1.chains,
            parsed_train.vocab_size(),
            &self.cfg.phase2,
            &mut rng,
            &self.telemetry,
            Some(session),
        )?;
        Ok(TrainedDesh {
            phase1,
            lead_model,
            parsed_train,
        })
    }

    /// The end-of-run metrics written into a ledger's `run.json`:
    /// measured prediction-efficiency and lead-time figures next to the
    /// paper's headline references (`paper.*` keys — ≥85% recall, ≥83.6%
    /// accuracy, >2 min mean lead; Tables 6/7).
    pub fn end_metrics(report: &DeshReport) -> Vec<(String, f64)> {
        vec![
            ("recall".into(), report.confusion.recall()),
            ("precision".into(), report.confusion.precision()),
            ("accuracy".into(), report.confusion.accuracy()),
            ("f1".into(), report.confusion.f1()),
            ("fp_rate".into(), report.confusion.fp_rate()),
            ("lead_mean_secs".into(), report.lead_overall.mean()),
            ("chains_trained".into(), report.chains_trained as f64),
            ("phase1_accuracy_kstep".into(), report.phase1_accuracy),
            ("paper.recall".into(), 0.85),
            ("paper.accuracy".into(), 0.836),
            ("paper.lead_mean_secs".into(), 120.0),
        ]
    }

    /// [`Desh::run`] under a run ledger: split, train, evaluate, and
    /// write the session's `run.json` whichever way it ends. Returns the
    /// report, or the watchdog's [`DivergenceRecord`] when training
    /// aborted (status `"diverged"` in `run.json`). The outer `Err` is a
    /// ledger I/O failure.
    pub fn run_session(
        &self,
        dataset: &Dataset,
        mut session: RunSession,
    ) -> std::io::Result<Result<DeshReport, DivergenceRecord>> {
        let (train, test) = dataset.split_by_time(0.3);
        match self.train_session(&train, &mut session) {
            Ok(trained) => {
                let mut report = self.evaluate(&trained, &test);
                report.system = dataset.system.clone();
                session.finish(&Self::end_metrics(&report))?;
                Ok(Ok(report))
            }
            Err(d) => {
                session.finish(&[])?;
                Ok(Err(d))
            }
        }
    }

    /// Access the training chains of a trained pipeline (for analyses).
    pub fn chains(trained: &TrainedDesh) -> &[FailureChain] {
        &trained.phase1.chains
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_loggen::{generate, SystemProfile};

    #[test]
    fn end_to_end_tiny_run_produces_sane_report() {
        let mut p = SystemProfile::tiny();
        p.failures = 30; // enough chains in the 30% training split
        p.nodes = 24;
        let d = generate(&p, 111);
        let desh = Desh::new(DeshConfig::fast(), 111);
        let report = desh.run(&d);
        assert!(
            report.chains_trained >= 3,
            "chains {}",
            report.chains_trained
        );
        assert!(report.confusion.total() > 0);
        // With a trained model the pipeline must catch a majority of test
        // failures even in the fast configuration.
        assert!(
            report.confusion.recall() > 0.5,
            "{}",
            report.confusion.summary_row(&report.system)
        );
    }

    #[test]
    fn telemetry_records_phase_spans_and_counters() {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, 113);
        let desh = Desh::new(DeshConfig::fast(), 113).with_telemetry(Telemetry::enabled());
        let report = desh.run(&d);
        assert!(report.confusion.total() > 0);
        let snap = desh.telemetry.snapshot().unwrap();
        // Every phase recorded a nested span under train/evaluate.
        for span in [
            "span.train_us",
            "span.train.parse_us",
            "span.train.phase1_us",
            "span.train.phase2_us",
            "span.evaluate_us",
            "span.evaluate.parse_us",
            "span.evaluate.phase3_us",
        ] {
            let h = snap
                .histogram(span)
                .unwrap_or_else(|| panic!("missing {span}"));
            assert_eq!(h.count(), 1, "{span}");
        }
        // Phase counters reflect the report.
        assert_eq!(
            snap.counter("phase1.chains"),
            Some(report.chains_trained as u64)
        );
        assert_eq!(
            snap.counter("phase2.chains"),
            Some(report.chains_trained as u64)
        );
        assert_eq!(
            snap.counter("phase3.episodes"),
            Some(report.verdicts.len() as u64)
        );
        assert_eq!(
            snap.counter("phase3.flagged"),
            Some(report.verdicts.iter().filter(|v| v.flagged).count() as u64)
        );
        // Training epochs flowed through the observer hook.
        assert!(snap.counter("phase1.epochs").unwrap() > 0);
        assert!(snap.histogram("phase2.epoch_time_us").unwrap().count() > 0);
        // The data-parallel trainer reported its gradient reductions and
        // per-shard throughput for both training phases.
        assert!(snap.histogram("phase1.grad_reduce_us").unwrap().count() > 0);
        assert!(snap.histogram("phase2.grad_reduce_us").unwrap().count() > 0);
        assert!(snap.counter("phase1.shard_windows").unwrap() > 0);
        assert!(snap
            .gauges
            .iter()
            .any(|(name, _)| name.starts_with("phase1.shard_seqs_per_s[shard=")));
        // Phase-3 scoring throughput gauges.
        assert!(snap.gauge("phase3.workers").unwrap() >= 1.0);
        assert!(snap.gauge("phase3.episodes_per_s").unwrap() > 0.0);
        // Per-episode scoring latency was captured from the rayon workers.
        assert_eq!(
            snap.histogram("phase3.episode_score_us").unwrap().count(),
            report.verdicts.len() as u64
        );
        // Labelled verdicts fed the quality monitor: the rolling confusion
        // counters agree with the report's aggregate.
        assert_eq!(
            snap.counter("quality.confusion.tp"),
            Some(report.confusion.tp)
        );
        assert_eq!(
            snap.counter("quality.confusion.fp"),
            Some(report.confusion.fp)
        );
        assert_eq!(
            snap.counter("quality.confusion.fn"),
            Some(report.confusion.fnn)
        );
        assert_eq!(
            snap.counter("quality.confusion.tn"),
            Some(report.confusion.tn)
        );
        let recall = snap.gauge("quality.recall").unwrap();
        assert!((recall - report.confusion.recall()).abs() < 1e-12);
        // Flagged true positives landed per-class lead-time series.
        assert!(
            snap.hists
                .iter()
                .any(|(k, _)| k.starts_with("quality.lead_secs[class=")),
            "no per-class lead histograms"
        );
    }

    #[test]
    fn trained_pipeline_builds_online_detector_with_chains() {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, 114);
        let (train, test) = d.split_by_time(0.3);
        let desh = Desh::new(DeshConfig::fast(), 114);
        let trained = desh.train(&train);
        let mut det = trained.online_detector(desh.cfg.clone(), &Telemetry::disabled());
        let mut matched = 0;
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                let c = w.matched_chain.expect("chains attached by online_detector");
                assert!(c < trained.phase1.chains.len());
                assert!(w.chain_distance.unwrap().is_finite());
                matched += 1;
            }
        }
        assert!(matched > 0, "no warnings to check chain matching on");
    }

    #[test]
    fn report_is_deterministic_for_fixed_seed() {
        let mut p = SystemProfile::tiny();
        p.failures = 24;
        p.nodes = 16;
        let d = generate(&p, 112);
        let desh = Desh::new(DeshConfig::fast(), 7);
        let a = desh.run(&d);
        let b = desh.run(&d);
        assert_eq!(a.confusion, b.confusion);
        assert_eq!(a.lead_overall.count(), b.lead_overall.count());
    }
}
