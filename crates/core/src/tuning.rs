//! Operating-point calibration.
//!
//! §4.5: "Desh aims to strike a good balance between lead times and false
//! positives. Increasing lead times hurts the false positive rate.
//! Instead, acceptable lead times with low false positive rates are
//! desirable." This module automates finding that point: given a
//! validation split, sweep the evidence/threshold grid and pick the
//! configuration with the longest mean lead time whose FP rate stays
//! under a budget.

use crate::config::DeshConfig;
use crate::phase2::LeadTimeModel;
use crate::phase3::run_phase3;
use desh_loggen::GroundTruthFailure;
use desh_logparse::ParsedLog;

/// One evaluated candidate operating point.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Evidence setting.
    pub min_evidence: usize,
    /// MSE threshold.
    pub mse_threshold: f64,
    /// Measured FP rate on the validation split.
    pub fp_rate: f64,
    /// Measured recall.
    pub recall: f64,
    /// Mean lead time over true positives, seconds.
    pub mean_lead_secs: f64,
}

/// Result of a calibration sweep.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Every evaluated point (for plotting the frontier).
    pub points: Vec<OperatingPoint>,
    /// The chosen point, if any satisfied the budget.
    pub chosen: Option<OperatingPoint>,
}

/// Sweep evidence x threshold on a validation split and choose the point
/// with maximal mean lead time subject to `fp_rate <= fp_budget` and
/// `recall >= recall_floor`.
pub fn calibrate(
    model: &LeadTimeModel,
    parsed_val: &ParsedLog,
    truth: &[GroundTruthFailure],
    base: &DeshConfig,
    fp_budget: f64,
    recall_floor: f64,
) -> Calibration {
    let mut points = Vec::new();
    for min_evidence in 1..=4usize {
        for &mse_threshold in &[0.3, 0.4, 0.5, 0.6, 0.7] {
            let mut cfg = base.clone();
            cfg.phase3.min_evidence = min_evidence;
            cfg.phase3.mse_threshold = mse_threshold;
            let out = run_phase3(model, parsed_val, truth, &cfg);
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
            points.push(OperatingPoint {
                min_evidence,
                mse_threshold,
                fp_rate: out.confusion.fp_rate(),
                recall: out.confusion.recall(),
                mean_lead_secs,
            });
        }
    }
    let chosen = points
        .iter()
        .filter(|p| p.fp_rate <= fp_budget && p.recall >= recall_floor)
        .max_by(|a, b| a.mean_lead_secs.partial_cmp(&b.mean_lead_secs).unwrap())
        .cloned();
    Calibration { points, chosen }
}

/// Apply a chosen operating point to a configuration.
pub fn apply(cfg: &mut DeshConfig, point: &OperatingPoint) {
    cfg.phase3.min_evidence = point.min_evidence;
    cfg.phase3.mse_threshold = point.mse_threshold;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::extract_chains;
    use crate::phase2::run_phase2;
    use desh_loggen::{generate, SystemProfile};
    use desh_logparse::{parse_records, parse_records_with_vocab};
    use desh_util::Xoshiro256pp;

    fn setup() -> (
        LeadTimeModel,
        ParsedLog,
        Vec<GroundTruthFailure>,
        DeshConfig,
    ) {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, 501);
        let (train, val) = d.split_by_time(0.3);
        let cfg = DeshConfig::fast();
        let parsed_train = parse_records(&train.records);
        let chains = extract_chains(&parsed_train, &cfg.episodes);
        let mut rng = Xoshiro256pp::seed_from_u64(501);
        let model = run_phase2(&chains, parsed_train.vocab_size(), &cfg.phase2, &mut rng);
        let parsed_val = parse_records_with_vocab(&val.records, parsed_train.vocab.clone());
        (model, parsed_val, val.failures, cfg)
    }

    #[test]
    fn calibration_explores_the_grid() {
        let (model, parsed_val, truth, cfg) = setup();
        let cal = calibrate(&model, &parsed_val, &truth, &cfg, 0.30, 0.6);
        assert_eq!(cal.points.len(), 20);
        // All points carry valid rates.
        for p in &cal.points {
            assert!((0.0..=1.0).contains(&p.fp_rate));
            assert!((0.0..=1.0).contains(&p.recall));
            assert!(p.mean_lead_secs >= 0.0);
        }
    }

    #[test]
    fn chosen_point_respects_budget() {
        let (model, parsed_val, truth, cfg) = setup();
        let cal = calibrate(&model, &parsed_val, &truth, &cfg, 0.35, 0.5);
        let chosen = cal.chosen.expect("a feasible point exists on this data");
        assert!(chosen.fp_rate <= 0.35);
        assert!(chosen.recall >= 0.5);
        // It is the longest-lead feasible point.
        for p in cal
            .points
            .iter()
            .filter(|p| p.fp_rate <= 0.35 && p.recall >= 0.5)
        {
            assert!(p.mean_lead_secs <= chosen.mean_lead_secs + 1e-9);
        }
    }

    #[test]
    fn impossible_budget_yields_no_choice() {
        let (model, parsed_val, truth, cfg) = setup();
        let cal = calibrate(&model, &parsed_val, &truth, &cfg, 0.0, 1.01);
        assert!(cal.chosen.is_none());
    }

    #[test]
    fn apply_updates_config() {
        let mut cfg = DeshConfig::fast();
        let point = OperatingPoint {
            min_evidence: 3,
            mse_threshold: 0.4,
            fp_rate: 0.1,
            recall: 0.9,
            mean_lead_secs: 50.0,
        };
        apply(&mut cfg, &point);
        assert_eq!(cfg.phase3.min_evidence, 3);
        assert_eq!(cfg.phase3.mse_threshold, 0.4);
    }
}
