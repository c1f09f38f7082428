//! Rule-based Safe / Error / Unknown phrase labelling.
//!
//! The paper's phrase grouping "is based on consultation with the system
//! administrators" — i.e. it is curated domain knowledge, not a learned
//! artifact. We encode that knowledge as substring rules seeded from the
//! published examples (Table 3). Anything matching no rule is `Unknown`,
//! which is exactly the paper's conservative default: unknowns *may or may
//! not* lead to failures and are kept for chain formation.
//!
//! Note the deliberate asymmetry with severity levels: the paper shows
//! (Observation 6) that tags like "warning"/"critical" are unreliable, so
//! no rule here keys on a severity word alone — each rule pins a concrete
//! message family.

use desh_loggen::Label;

/// Substring rules marking definitely-benign phrases (Table 3 column 1).
const SAFE_PATTERNS: &[&str] = &[
    "Mounting NID",
    "apic_timer_irqs",
    "Setting flag",
    "Wait4Boot",
    "ec_node_info",
    "values from /etc/sysctl.conf",
    "hardware quiesce",
    "nscd:",
    "Lustre: * connected",
    "launched job",
    "BMC heartbeat",
    "EXT4-fs mounted",
];

/// Substring rules marking definitely-anomalous phrases (Table 3 column 3).
const ERROR_PATTERNS: &[&str] = &[
    "WARNING: Node",
    "Debug NMI",
    "cb_node_unavailable",
    "Kernel panic",
    "Call Trace",
    "Stack Trace",
    "Stop NMI",
    "heartbeat fault",
    "slurmd stopped",
    "System: halted",
];

/// Label a phrase template.
pub fn label_template(template: &str) -> Label {
    if ERROR_PATTERNS.iter().any(|p| template.contains(p)) {
        return Label::Error;
    }
    if SAFE_PATTERNS.iter().any(|p| template.contains(p)) {
        return Label::Safe;
    }
    Label::Unknown
}

/// True when a template is a terminal message marking an *anomalous* node
/// failure. Intentional shutdowns ("System: halted") are excluded — the
/// paper distinguishes anomaly-based failures from maintenance reboots.
pub fn is_failure_terminal(template: &str) -> bool {
    template.starts_with("cb_node_unavailable")
        || (template.starts_with("WARNING: Node") && template.contains("down"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_loggen::Phrase;

    #[test]
    fn table3_examples() {
        assert_eq!(label_template("Wait4Boot"), Label::Safe);
        assert_eq!(label_template("cpu * apic_timer_irqs"), Label::Safe);
        assert_eq!(
            label_template("LNet: No gnilnd traffic received from *"),
            Label::Unknown
        );
        assert_eq!(
            label_template("PCIe Bus Error: severity=Corrected, type=Physical Layer *"),
            Label::Unknown
        );
        assert_eq!(label_template("WARNING: Node * is down"), Label::Error);
        assert_eq!(
            label_template("Kernel panic - not syncing: *"),
            Label::Error
        );
        assert_eq!(label_template("Debug NMI detected *"), Label::Error);
    }

    #[test]
    fn default_is_unknown() {
        assert_eq!(
            label_template("some entirely novel message *"),
            Label::Unknown
        );
        assert_eq!(label_template(""), Label::Unknown);
    }

    #[test]
    fn rules_agree_with_generator_ground_truth() {
        // The rule labeller must reproduce the generator's catalog labels
        // from the *rendered static templates* for every phrase.
        for p in Phrase::ALL {
            let spec = p.spec();
            let template = spec.static_form();
            let got = label_template(&template);
            assert_eq!(
                got, spec.label,
                "{}: template {:?} labelled {:?}, catalog says {:?}",
                spec.name, template, got, spec.label
            );
        }
    }

    #[test]
    fn terminal_detection_matches_catalog() {
        for p in Phrase::ALL {
            let template = p.spec().static_form();
            assert_eq!(
                is_failure_terminal(&template),
                p.is_failure_terminal(),
                "{}",
                p.spec().name
            );
        }
    }

    #[test]
    fn maintenance_halt_is_not_terminal() {
        assert!(!is_failure_terminal("System: halted"));
        assert_eq!(label_template("System: halted"), Label::Error);
    }
}
