//! Shadow scoring: run a candidate checkpoint beside the serving primary.
//!
//! Promotion of a retrained model is the riskiest routine operation this
//! system performs: the new checkpoint was validated offline, but nothing
//! offline replays the exact production stream with the exact serving
//! configuration. The shadow layer closes that gap. A [`ShadowScorer`]
//! holds a second, fully independent [`OnlineDetector`] built from the
//! candidate checkpoint (its own model *and* its own vocabulary — two
//! training runs rarely agree on phrase IDs). Attached to the primary with
//! [`OnlineDetector::attach_shadow`], it is fed every record the primary
//! sees, in record order, with the primary's warning and score for it —
//! on every path, whether the primary ingests one record at a time or a
//! `serve` shard ingests chunks. Divergence — warning agreement,
//! lead-time deltas, raw score drift — streams into a
//! [`ShadowMonitor`](desh_obs::ShadowMonitor) and, optionally, a sealed
//! [`ShadowLedger`](desh_obs::ShadowLedger) for the auditable
//! `desh-cli shadow report` promotion verdict.
//!
//! The contract that makes this safe to run in production: **the primary's
//! decision stream is bit-identical with or without a shadow attached.**
//! The candidate is a separate detector with separate state, fed only
//! after the primary's chunk has settled; the primary's score is read
//! from the aggregate it already computed and never feeds back into
//! thresholding. The tests below pin that guarantee bit-for-bit.

use std::sync::Arc;

use desh_loggen::LogRecord;
use desh_obs::{ObservedWarning, ShadowMonitor};

use crate::online::{OnlineDetector, Warning};

/// Convert a fired [`Warning`] into the model-free observation shape the
/// obs-layer monitor matches on.
fn observed(w: &Warning) -> ObservedWarning {
    ObservedWarning {
        at_us: w.at.0,
        lead_secs: w.predicted_lead_secs,
        score: w.score,
        class: w.class.name().to_string(),
    }
}

/// A candidate detector plus the divergence monitor it reports into.
#[derive(Debug)]
pub struct ShadowScorer {
    candidate: OnlineDetector,
    monitor: Arc<ShadowMonitor>,
    /// The candidate's warning for the most recently observed record.
    last_warning: Option<Warning>,
}

impl ShadowScorer {
    /// Wrap `candidate` (typically built from a second checkpoint) so its
    /// verdicts are compared against a primary via `monitor`. The
    /// candidate's score probe is switched on so score-divergence EWMA
    /// samples flow whenever the primary scored the same record.
    pub fn new(mut candidate: OnlineDetector, monitor: Arc<ShadowMonitor>) -> Self {
        candidate.set_observe_scores(true);
        Self {
            candidate,
            monitor,
            last_warning: None,
        }
    }

    /// One observation: the primary has ingested `record`, yielding
    /// `primary_warning` and `primary_score`. Feeds the candidate the same
    /// record and reports both sides to the monitor.
    pub(crate) fn observe(
        &mut self,
        record: &LogRecord,
        primary_warning: Option<&Warning>,
        primary_score: Option<f64>,
    ) {
        if let Some(w) = primary_warning {
            self.monitor
                .observe_primary(&w.node.to_string(), observed(w));
        }
        let cw = self.candidate.ingest(record);
        self.monitor
            .observe_event(record.time.0, primary_score, self.candidate.last_score());
        if let Some(w) = &cw {
            self.monitor
                .observe_candidate(&w.node.to_string(), observed(w));
        }
        self.last_warning = cw;
    }

    /// The candidate's warning for the last record it observed, if it
    /// fired one — callers that score against ground truth need the
    /// candidate's decision stream too.
    pub fn last_warning(&self) -> Option<&Warning> {
        self.last_warning.as_ref()
    }

    /// The shared divergence monitor.
    pub fn monitor(&self) -> &Arc<ShadowMonitor> {
        &self.monitor
    }

    /// Resolve all still-pending warning matches as one-sided (stream
    /// over) and refresh the agreement gauge. Call once at end of stream.
    pub fn finish(&self) {
        self.monitor.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeshConfig;
    use crate::pipeline::Desh;
    use desh_loggen::{generate, SystemProfile};
    use desh_obs::{ShadowMonitor, ShadowSummary, Telemetry, DEFAULT_SHADOW_SLACK_SECS};

    fn trained(seed: u64) -> (OnlineDetector, desh_loggen::Dataset) {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, seed);
        let (train, test) = d.split_by_time(0.3);
        let desh = Desh::new(DeshConfig::fast(), seed);
        let trained = desh.train(&train);
        let det = OnlineDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            desh.cfg.clone(),
        );
        (det, test)
    }

    #[test]
    fn self_shadow_agrees_fully_and_primary_is_bit_identical() {
        // Baseline: the primary alone, no shadow attached.
        let (mut baseline, test) = trained(901);
        let mut expected = Vec::new();
        for r in &test.records {
            if let Some(w) = baseline.ingest(r) {
                expected.push((
                    w.node,
                    w.at,
                    w.score.to_bits(),
                    w.predicted_lead_secs.to_bits(),
                ));
            }
        }
        assert!(!expected.is_empty(), "fixture fired no warnings");

        // Same checkpoint on both sides of the shadow.
        let (mut det, _) = trained(901);
        let (candidate, _) = trained(901);
        let t = Telemetry::enabled();
        let monitor = Arc::new(ShadowMonitor::new(&t, DEFAULT_SHADOW_SLACK_SECS));
        det.attach_shadow(ShadowScorer::new(candidate, Arc::clone(&monitor)));
        let mut got = Vec::new();
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                got.push((
                    w.node,
                    w.at,
                    w.score.to_bits(),
                    w.predicted_lead_secs.to_bits(),
                ));
            }
        }
        det.shadow().unwrap().finish();

        // Bit-identical decision stream despite the attached shadow.
        assert_eq!(expected, got);

        // A model shadowed against itself must agree with itself: every
        // warning matches, no one-sided residue, zero lead-time delta.
        let s = monitor.summary();
        assert_eq!(s.agree_both, expected.len() as u64);
        assert_eq!(s.primary_only, 0);
        assert_eq!(s.candidate_only, 0);
        assert_eq!(monitor.pending_warnings(), 0);
        assert_eq!(s.agreement(), Some(1.0));
        assert!(s.score_samples > 0, "no primary/candidate score pairs");
        assert!(s.score_drift.abs() < 1e-12, "drift {}", s.score_drift);
        let snap = t.snapshot().unwrap();
        for (name, h) in &snap.hists {
            if name.starts_with("shadow.lead_delta_secs[") {
                // `max()` is the exclusive upper bound of the highest
                // occupied bucket, so all-zero deltas read back as 1.
                assert!(h.max() <= 1, "nonzero delta in {name}: max {}", h.max());
                assert_eq!(h.sum(), 0, "nonzero delta sum in {name}");
            }
        }
    }

    #[test]
    fn different_seeds_populate_confusion_and_deltas() {
        let (mut det, test) = trained(902);
        let (candidate, _) = trained(903);
        let t = Telemetry::enabled();
        let monitor = Arc::new(ShadowMonitor::new(&t, DEFAULT_SHADOW_SLACK_SECS));
        det.attach_shadow(ShadowScorer::new(candidate, Arc::clone(&monitor)));
        for r in &test.records {
            det.ingest(r);
        }
        det.shadow().unwrap().finish();
        let s = monitor.summary();
        assert!(s.primary.warnings > 0 && s.candidate.warnings > 0);
        // Two independently trained models cannot agree perfectly: some
        // one-sided warnings must exist, and the score EWMA must move.
        assert!(
            s.primary_only + s.candidate_only > 0,
            "different seeds produced identical warning streams"
        );
        assert!(s.score_samples > 0);
        assert!(s.score_drift > 0.0, "score EWMA never moved");
    }

    #[test]
    fn batched_halves_match_sequential_observation() {
        // A shadow fed by a primary ingesting chunks must see exactly what
        // it sees behind a primary ingesting one record at a time: the
        // same warnings, the same score pairs, the same drift.
        let run = |chunk: usize| -> ShadowSummary {
            let (mut det, test) = trained(904);
            let (candidate, _) = trained(905);
            let t = Telemetry::enabled();
            let monitor = Arc::new(ShadowMonitor::new(&t, DEFAULT_SHADOW_SLACK_SECS));
            det.attach_shadow(ShadowScorer::new(candidate, Arc::clone(&monitor)));
            let mut warnings = Vec::new();
            for c in test.records.chunks(chunk) {
                det.ingest_chunk(c, &mut warnings);
            }
            det.shadow().unwrap().finish();
            assert_eq!(warnings.len() as u64, det.warnings_emitted());
            monitor.summary()
        };
        let one = run(1);
        let wide = run(97);
        assert!(one.primary.warnings > 0 && one.score_samples > 0);
        assert_eq!(one.primary.warnings, wide.primary.warnings);
        assert_eq!(one.candidate.warnings, wide.candidate.warnings);
        assert_eq!(one.agree_both, wide.agree_both);
        assert_eq!(one.primary_only, wide.primary_only);
        assert_eq!(one.candidate_only, wide.candidate_only);
        assert_eq!(one.score_samples, wide.score_samples);
        assert_eq!(one.score_drift.to_bits(), wide.score_drift.to_bits());
    }
}
