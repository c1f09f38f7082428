//! Lead-time aggregation and sensitivity analysis (paper §4.2, Figures
//! 6-8, Observations 2-4).

use crate::config::DeshConfig;
use crate::metrics::Confusion;
use crate::phase2::LeadTimeModel;
use crate::phase3::{run_phase3, Verdict};
use desh_loggen::{FailureClass, GroundTruthFailure};
use desh_logparse::ParsedLog;
use desh_util::Summary;
use std::collections::BTreeMap;

/// Lead-time statistics per failure class (Figure 6 / Table 7) computed
/// over true-positive verdicts.
pub fn lead_by_class(verdicts: &[Verdict]) -> BTreeMap<FailureClass, Summary> {
    let mut map: BTreeMap<FailureClass, Summary> = BTreeMap::new();
    for v in verdicts {
        if let (true, Some(class), Some(lead)) = (v.is_failure, v.class, v.predicted_lead_secs) {
            map.entry(class).or_default().push(lead);
        }
    }
    map
}

/// Overall lead-time summary for a system (Figure 7).
pub fn lead_overall(verdicts: &[Verdict]) -> Summary {
    let mut s = Summary::new();
    for v in verdicts {
        if v.is_failure {
            if let Some(lead) = v.predicted_lead_secs {
                s.push(lead);
            }
        }
    }
    s
}

/// Observation 4 check: is the per-class lead-time deviation lower than the
/// overall (cross-class) deviation? Returns (mean per-class stddev, overall
/// stddev).
pub fn observation4(verdicts: &[Verdict]) -> (f64, f64) {
    let by_class = lead_by_class(verdicts);
    let class_sds: Vec<f64> = by_class
        .values()
        .filter(|s| s.count() >= 3)
        .map(|s| s.stddev())
        .collect();
    let mean_class_sd = if class_sds.is_empty() {
        0.0
    } else {
        class_sds.iter().sum::<f64>() / class_sds.len() as f64
    };
    (mean_class_sd, lead_overall(verdicts).stddev())
}

/// One point of the Figure 8 lead-time vs FP-rate sensitivity curve.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Minimum-evidence setting producing this point.
    pub min_evidence: usize,
    /// Mean predicted lead time over true positives, seconds.
    pub mean_lead_secs: f64,
    /// False-positive rate.
    pub fp_rate: f64,
    /// Recall, for reference.
    pub recall: f64,
    /// The confusion counts behind the point.
    pub confusion: Confusion,
}

/// Sweep the flag-earliness knob: lower evidence requirements flag earlier
/// in the chain (longer lead times) at a higher false-positive rate.
pub fn sensitivity_sweep(
    model: &LeadTimeModel,
    parsed_test: &ParsedLog,
    truth: &[GroundTruthFailure],
    cfg: &DeshConfig,
    evidences: &[usize],
) -> Vec<SweepPoint> {
    evidences
        .iter()
        .map(|&min_evidence| {
            let mut c = cfg.clone();
            c.phase3.min_evidence = min_evidence;
            let out = run_phase3(model, parsed_test, truth, &c);
            let leads: Vec<f64> = out
                .verdicts
                .iter()
                .filter(|v| v.flagged && v.is_failure)
                .filter_map(|v| v.predicted_lead_secs)
                .collect();
            let mean_lead_secs = if leads.is_empty() {
                0.0
            } else {
                leads.iter().sum::<f64>() / leads.len() as f64
            };
            SweepPoint {
                min_evidence,
                mean_lead_secs,
                fp_rate: out.confusion.fp_rate(),
                recall: out.confusion.recall(),
                confusion: out.confusion,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_loggen::NodeId;
    use desh_util::Micros;

    fn verdict(class: Option<FailureClass>, lead: Option<f64>, flagged: bool) -> Verdict {
        Verdict {
            node: NodeId::from_index(0),
            start: Micros(0),
            end: Micros(1),
            flagged,
            score: 0.1,
            predicted_lead_secs: lead,
            is_failure: class.is_some(),
            class,
        }
    }

    #[test]
    fn lead_by_class_groups_true_positives_only() {
        let vs = vec![
            verdict(Some(FailureClass::Mce), Some(150.0), true),
            verdict(Some(FailureClass::Mce), Some(170.0), true),
            verdict(Some(FailureClass::Panic), Some(60.0), true),
            verdict(None, Some(100.0), true), // FP: excluded
            verdict(Some(FailureClass::Job), None, false), // FN: excluded
        ];
        let m = lead_by_class(&vs);
        assert_eq!(m.len(), 2);
        assert_eq!(m[&FailureClass::Mce].count(), 2);
        assert!((m[&FailureClass::Mce].mean() - 160.0).abs() < 1e-9);
        assert_eq!(m[&FailureClass::Panic].count(), 1);
    }

    #[test]
    fn observation4_structure() {
        // Two tight classes far apart: per-class sd ≈ small, overall sd large.
        let mut vs = Vec::new();
        for lead in [58.0, 60.0, 62.0] {
            vs.push(verdict(Some(FailureClass::Panic), Some(lead), true));
        }
        for lead in [158.0, 160.0, 162.0] {
            vs.push(verdict(Some(FailureClass::Mce), Some(lead), true));
        }
        let (class_sd, overall_sd) = observation4(&vs);
        assert!(
            class_sd < overall_sd,
            "per-class sd {class_sd:.1} should be below overall {overall_sd:.1}"
        );
    }

    #[test]
    fn lead_overall_ignores_non_failures() {
        let vs = vec![
            verdict(Some(FailureClass::Job), Some(80.0), true),
            verdict(None, Some(500.0), true),
        ];
        let s = lead_overall(&vs);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 80.0);
    }
}

/// Per-class recall: of the ground-truth failures of each class, what
/// fraction was flagged. Complements Figure 6: a class with short chains
/// (Panic) is not just short-lead but also harder to catch early.
pub fn recall_by_class(verdicts: &[Verdict]) -> BTreeMap<FailureClass, (u64, u64)> {
    let mut map: BTreeMap<FailureClass, (u64, u64)> = BTreeMap::new();
    for v in verdicts {
        if let Some(class) = v.class {
            let entry = map.entry(class).or_insert((0, 0));
            entry.1 += 1;
            if v.flagged {
                entry.0 += 1;
            }
        }
    }
    map
}

#[cfg(test)]
mod recall_tests {
    use super::*;
    use desh_loggen::NodeId;
    use desh_util::Micros;

    #[test]
    fn recall_by_class_counts_hits_and_totals() {
        let mk = |class, flagged| Verdict {
            node: NodeId::from_index(0),
            start: Micros(0),
            end: Micros(1),
            flagged,
            score: 0.1,
            predicted_lead_secs: flagged.then_some(10.0),
            is_failure: true,
            class: Some(class),
        };
        let vs = vec![
            mk(FailureClass::Mce, true),
            mk(FailureClass::Mce, false),
            mk(FailureClass::Panic, true),
        ];
        let m = recall_by_class(&vs);
        assert_eq!(m[&FailureClass::Mce], (1, 2));
        assert_eq!(m[&FailureClass::Panic], (1, 1));
    }
}
