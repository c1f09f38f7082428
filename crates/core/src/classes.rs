//! Failure-class inference from chain phrases (paper Table 7).
//!
//! The paper classifies node failures "considering their predominant
//! context of failures" — i.e. by the phrases of the chain, not by any
//! oracle label. We reproduce that: each phrase template votes for the
//! classes its keywords indicate, and a chain is assigned the
//! highest-voted class. Generator ground truth is used only to *evaluate*
//! this classifier, never inside it.

use crate::chain::FailureChain;
use desh_loggen::FailureClass;
use desh_logparse::ParsedLog;

/// Keyword votes: (substring of the template, class it indicates).
const KEYWORDS: &[(&str, FailureClass)] = &[
    // Job scheduler context.
    ("Slurm load partitions", FailureClass::Job),
    ("slurmd:", FailureClass::Job),
    ("slurmd stopped", FailureClass::Job),
    ("aborted job", FailureClass::Job),
    // MCE context.
    ("Machine Check Exception", FailureClass::Mce),
    ("mcelog", FailureClass::Mce),
    ("RIP !INEXACT!", FailureClass::Mce),
    ("mce_notify_irq", FailureClass::Mce),
    ("Corrected Memory Errors", FailureClass::Mce),
    ("Fatal Machine check", FailureClass::Mce),
    // Filesystem context.
    ("LustreError", FailureClass::FileSystem),
    ("DVS:", FailureClass::FileSystem),
    ("LNet: Critical", FailureClass::FileSystem),
    ("llmrd", FailureClass::FileSystem),
    ("Lustre:", FailureClass::FileSystem),
    // Traps context.
    ("Trap invalid opcode", FailureClass::Traps),
    ("segfault", FailureClass::Traps),
    ("NULL pointer dereference", FailureClass::Traps),
    ("modprobe: FATAL", FailureClass::Traps),
    // Hardware context.
    ("AER_BAD_TLP", FailureClass::Hardware),
    ("AER: Multiple corrected", FailureClass::Hardware),
    ("critical h/w error", FailureClass::Hardware),
    ("heartbeat fault", FailureClass::Hardware),
    ("NMI detected", FailureClass::Hardware),
    ("ssid_rsp", FailureClass::Hardware),
    // Panic context.
    ("Kernel panic", FailureClass::Panic),
    ("Call Trace", FailureClass::Panic),
];

/// Classify a failure chain by keyword voting over its phrase templates.
pub fn classify_chain(chain: &FailureChain, parsed: &ParsedLog) -> FailureClass {
    classify_templates(chain.events.iter().map(|ev| parsed.template(ev.phrase)))
}

/// Classify any collection of phrase templates by keyword voting. Ties
/// break toward Panic (last in vote order) — a kernel panic accompanies
/// many MCE/Trap chains and must not swallow chains with more specific
/// evidence, so Panic votes also count one less when any other class has
/// evidence.
pub fn classify_templates<S: AsRef<str>>(templates: impl IntoIterator<Item = S>) -> FailureClass {
    let mut votes = [0usize; 6];
    for template in templates {
        for (kw, class) in KEYWORDS {
            if template.as_ref().contains(kw) {
                let idx = FailureClass::ALL.iter().position(|c| c == class).unwrap();
                votes[idx] += 1;
            }
        }
    }
    // Panic votes count half when any other class has evidence: panic
    // phrases are generic cascade terminators (see Table 7's taxonomy where
    // MCE chains also end in kernel panic).
    let panic_idx = FailureClass::ALL
        .iter()
        .position(|c| *c == FailureClass::Panic)
        .unwrap();
    let non_panic: usize = votes
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != panic_idx)
        .map(|(_, v)| *v)
        .sum();
    if non_panic > 0 {
        votes[panic_idx] = votes[panic_idx].saturating_sub(1);
    }
    let best = votes
        .iter()
        .enumerate()
        .max_by_key(|(_, v)| **v)
        .map(|(i, _)| i)
        .unwrap_or(panic_idx);
    if votes[best] == 0 {
        FailureClass::Panic // generic fallback: bare panic/trace chains
    } else {
        FailureClass::ALL[best]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::extract_chains;
    use crate::config::EpisodeConfig;
    use desh_loggen::{generate, SystemProfile};
    use desh_logparse::parse_records;

    #[test]
    fn classifier_agrees_with_ground_truth_mostly() {
        let d = generate(&SystemProfile::m1(), 55);
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &EpisodeConfig::default());
        let mut hit = 0usize;
        let mut total = 0usize;
        for c in &chains {
            let Some(gt) = d
                .failures
                .iter()
                .find(|f| f.node == c.node && f.time.abs_diff(c.terminal_time).as_secs_f64() < 2.0)
            else {
                continue;
            };
            total += 1;
            if classify_chain(c, &parsed) == gt.class {
                hit += 1;
            }
        }
        assert!(total > 50, "too few matched chains: {total}");
        let acc = hit as f64 / total as f64;
        assert!(acc > 0.8, "class inference accuracy {acc:.2} too low");
    }

    #[test]
    fn every_class_is_produced() {
        let d = generate(&SystemProfile::m1(), 56);
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &EpisodeConfig::default());
        let mut seen = std::collections::HashSet::new();
        for c in &chains {
            seen.insert(classify_chain(c, &parsed));
        }
        assert!(seen.len() >= 5, "only {} classes inferred", seen.len());
    }
}
