//! Plain-text rendering of a [`DeshReport`] — the operator-facing summary
//! the examples and experiment binaries print.

use crate::pipeline::DeshReport;
use desh_loggen::FailureClass;
use std::fmt::Write as _;

/// Render a full report as human-readable text.
pub fn render(report: &DeshReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Desh report: {} ===", report.system);
    let _ = writeln!(out, "{}", report.confusion.summary_row(&report.system));
    let _ = writeln!(
        out,
        "phase-1 3-step accuracy: {:.1}%  |  failure chains trained: {}",
        report.phase1_accuracy * 100.0,
        report.chains_trained
    );
    let _ = writeln!(
        out,
        "lead time: mean {:.1}s sd {:.1}s over {} true positives",
        report.lead_overall.mean(),
        report.lead_overall.stddev(),
        report.lead_overall.count()
    );
    let _ = writeln!(out, "lead time and recall by class:");
    for class in FailureClass::ALL {
        if let Some(s) = report.lead_by_class.get(&class) {
            let (hit, total) = report
                .recall_by_class
                .get(&class)
                .copied()
                .unwrap_or((0, 0));
            let _ = writeln!(
                out,
                "  {:<11} {:>7.1}s ± {:>5.1}s  (caught {hit}/{total})",
                class.name(),
                s.mean(),
                s.stddev(),
            );
        }
    }
    let (class_sd, overall_sd) = report.observation4;
    let _ = writeln!(
        out,
        "observation 4: per-class sd {:.1}s vs overall sd {:.1}s ({})",
        class_sd,
        overall_sd,
        if class_sd < overall_sd {
            "holds"
        } else {
            "violated"
        }
    );
    let flagged = report.verdicts.iter().filter(|v| v.flagged).count();
    let _ = writeln!(
        out,
        "episodes: {} total, {} flagged, {} ground-truth failures",
        report.verdicts.len(),
        flagged,
        report.verdicts.iter().filter(|v| v.is_failure).count()
    );
    out
}

/// Render a compact markdown table row for multi-system summaries.
pub fn markdown_row(report: &DeshReport) -> String {
    let c = &report.confusion;
    format!(
        "| {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |",
        report.system,
        c.recall() * 100.0,
        c.precision() * 100.0,
        c.accuracy() * 100.0,
        c.f1() * 100.0,
        c.fp_rate() * 100.0,
        c.fn_rate() * 100.0,
        report.lead_overall.mean()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeshConfig;
    use crate::pipeline::Desh;
    use desh_loggen::{generate, SystemProfile};

    fn sample_report() -> DeshReport {
        let mut p = SystemProfile::tiny();
        p.failures = 24;
        p.nodes = 16;
        let d = generate(&p, 401);
        Desh::new(DeshConfig::fast(), 401).run(&d)
    }

    #[test]
    fn render_contains_every_section() {
        let r = sample_report();
        let text = render(&r);
        for needle in [
            "Desh report",
            "phase-1",
            "lead time",
            "observation 4",
            "episodes:",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn markdown_row_has_eight_cells() {
        let r = sample_report();
        let row = markdown_row(&r);
        assert_eq!(row.matches('|').count(), 9, "{row}");
    }
}
