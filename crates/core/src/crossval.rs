//! Multi-seed stability evaluation.
//!
//! The paper reports single numbers per system; a reproduction should show
//! they are not seed lottery. [`stability_run`] repeats the full pipeline
//! over independently generated datasets and aggregates each metric into a
//! mean ± deviation summary.
//!
//! Every source of nondeterminism in the pipeline is seeded, and training
//! parallelism uses fixed-count shards with a deterministic tree reduction
//! (see `desh_nn::parallel`), so a stability run's numbers depend only on
//! the seed list — never on `DESH_THREADS` or the host's core count.

use crate::config::DeshConfig;
use crate::pipeline::Desh;
use desh_loggen::{generate, SystemProfile};
use desh_util::Summary;

/// Aggregated metrics over several seeds.
#[derive(Debug, Clone)]
pub struct StabilityReport {
    /// System name.
    pub system: String,
    /// Number of seeds run.
    pub runs: usize,
    /// Recall distribution.
    pub recall: Summary,
    /// Precision distribution.
    pub precision: Summary,
    /// Accuracy distribution.
    pub accuracy: Summary,
    /// F1 distribution.
    pub f1: Summary,
    /// FP-rate distribution.
    pub fp_rate: Summary,
    /// Mean-lead-time distribution (seconds).
    pub lead_secs: Summary,
}

impl StabilityReport {
    /// One-line rendering.
    pub fn summary_row(&self) -> String {
        let pct = |s: &Summary| format!("{:.1}±{:.1}", s.mean() * 100.0, s.stddev() * 100.0);
        format!(
            "{}: recall {}% precision {}% accuracy {}% F1 {}% FP {}% lead {:.1}±{:.1}s ({} seeds)",
            self.system,
            pct(&self.recall),
            pct(&self.precision),
            pct(&self.accuracy),
            pct(&self.f1),
            pct(&self.fp_rate),
            self.lead_secs.mean(),
            self.lead_secs.stddev(),
            self.runs
        )
    }
}

/// Run the full protocol over `seeds` independent datasets of `profile`.
pub fn stability_run(profile: &SystemProfile, cfg: &DeshConfig, seeds: &[u64]) -> StabilityReport {
    assert!(!seeds.is_empty());
    let mut report = StabilityReport {
        system: profile.name.clone(),
        runs: seeds.len(),
        recall: Summary::new(),
        precision: Summary::new(),
        accuracy: Summary::new(),
        f1: Summary::new(),
        fp_rate: Summary::new(),
        lead_secs: Summary::new(),
    };
    for &seed in seeds {
        let dataset = generate(profile, seed);
        let desh = Desh::new(cfg.clone(), seed);
        let r = desh.run(&dataset);
        report.recall.push(r.confusion.recall());
        report.precision.push(r.confusion.precision());
        report.accuracy.push(r.confusion.accuracy());
        report.f1.push(r.confusion.f1());
        report.fp_rate.push(r.confusion.fp_rate());
        report.lead_secs.push(r.lead_overall.mean());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_over_two_seeds_is_consistent() {
        let mut p = SystemProfile::tiny();
        p.failures = 24;
        p.nodes = 16;
        let rep = stability_run(&p, &DeshConfig::fast(), &[1, 2]);
        assert_eq!(rep.runs, 2);
        assert_eq!(rep.recall.count(), 2);
        assert!(rep.recall.mean() > 0.4, "{}", rep.summary_row());
        assert!(rep.summary_row().contains("seeds"));
    }

    #[test]
    fn stability_is_invariant_to_worker_count() {
        let mut p = SystemProfile::tiny();
        p.failures = 24;
        p.nodes = 16;
        let run_with = |workers: usize| {
            rayon::set_thread_override(Some(workers));
            let rep = stability_run(&p, &DeshConfig::fast(), &[7]);
            rayon::set_thread_override(None);
            (
                rep.recall.mean(),
                rep.precision.mean(),
                rep.f1.mean(),
                rep.lead_secs.mean(),
            )
        };
        let one = run_with(1);
        let four = run_with(4);
        assert_eq!(
            one, four,
            "pipeline metrics must not depend on worker count"
        );
    }
}
