//! Unknown-phrase analysis (paper §4.3, Table 8, Table 9, Figure 9).
//!
//! For each Unknown-labelled phrase, measure what fraction of its
//! appearances fall inside failure chains. The paper's insight
//! (Observations 5 and 6): the same phrase can be benign in one context
//! and part of a failure chain in another, so phrase identity alone — or a
//! severity tag — is not a failure indicator.

use crate::chain::FailureChain;
use desh_loggen::Label;
use desh_logparse::ParsedLog;
use std::collections::HashMap;

/// Contribution of one unknown phrase to node failures.
#[derive(Debug, Clone)]
pub struct PhraseContribution {
    /// Phrase id.
    pub phrase: u32,
    /// Template text.
    pub template: String,
    /// Total appearances in the log.
    pub total: u64,
    /// Appearances inside extracted failure chains.
    pub in_chain: u64,
}

impl PhraseContribution {
    /// Percentage of appearances that were part of a failure chain
    /// (Table 8 column 3).
    pub fn contribution_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.in_chain as f64 / self.total as f64
        }
    }
}

/// Analyse every Unknown phrase's contribution to node failures.
/// `min_total` filters out phrases too rare to report a stable percentage.
pub fn unknown_contributions(
    parsed: &ParsedLog,
    chains: &[FailureChain],
    min_total: u64,
) -> Vec<PhraseContribution> {
    // Count chain membership per (phrase, event time) identity.
    let mut in_chain: HashMap<u32, u64> = HashMap::new();
    for c in chains {
        for e in &c.events {
            *in_chain.entry(e.phrase).or_default() += 1;
        }
    }
    let mut totals: HashMap<u32, u64> = HashMap::new();
    for events in parsed.per_node.values() {
        for e in events {
            *totals.entry(e.phrase).or_default() += 1;
        }
    }
    let mut out: Vec<PhraseContribution> = totals
        .into_iter()
        .filter(|(p, total)| parsed.label(*p) == Label::Unknown && *total >= min_total)
        .map(|(phrase, total)| PhraseContribution {
            phrase,
            template: parsed.template(phrase),
            total,
            in_chain: (*in_chain.get(&phrase).unwrap_or(&0)).min(total),
        })
        .collect();
    out.sort_by(|a, b| {
        b.contribution_pct()
            .partial_cmp(&a.contribution_pct())
            .unwrap()
            .then_with(|| a.template.cmp(&b.template))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::extract_chains;
    use crate::config::EpisodeConfig;
    use desh_loggen::{generate, Phrase, SystemProfile};
    use desh_logparse::parse_records;

    fn analysis(seed: u64) -> Vec<PhraseContribution> {
        let d = generate(&SystemProfile::m1(), seed);
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &EpisodeConfig::default());
        unknown_contributions(&parsed, &chains, 10)
    }

    #[test]
    fn contributions_are_valid_percentages() {
        for c in analysis(101) {
            let pct = c.contribution_pct();
            assert!((0.0..=100.0).contains(&pct), "{}: {pct}", c.template);
            assert!(c.in_chain <= c.total);
        }
    }

    #[test]
    fn only_unknown_phrases_are_reported() {
        let contributions = analysis(102);
        for c in &contributions {
            // No Safe or Error templates may appear.
            assert!(
                !c.template.starts_with("Wait4Boot")
                    && !c.template.starts_with("cb_node_unavailable"),
                "{} leaked into unknown analysis",
                c.template
            );
        }
        assert!(
            contributions.len() >= 10,
            "too few unknown phrases analysed"
        );
    }

    #[test]
    fn lustre_and_dvs_lead_the_ranking() {
        // Figure 9's headline: LustreError (P1, 56%) and DVS Verify (P11,
        // 60%) are the top contributors; correctable AER errors (P5, 12%)
        // and trap opcode (P8, 8%) are near the bottom.
        let contributions = analysis(103);
        let pct_of = |prefix: &str| -> f64 {
            contributions
                .iter()
                .find(|c| c.template.starts_with(prefix))
                .map(|c| c.contribution_pct())
                .unwrap_or(-1.0)
        };
        let lustre = pct_of("LustreError");
        let dvs = pct_of("DVS: Verify");
        let aer = pct_of("hwerr[*]: Correctable");
        let trap = pct_of("Trap invalid opcode");
        assert!(lustre > 35.0, "LustreError contribution {lustre:.0}%");
        assert!(dvs > 35.0, "DVS contribution {dvs:.0}%");
        if aer >= 0.0 {
            assert!(
                aer < lustre,
                "AER {aer:.0}% should trail Lustre {lustre:.0}%"
            );
        }
        if trap >= 0.0 {
            assert!(trap < dvs, "Trap {trap:.0}% should trail DVS {dvs:.0}%");
        }
        let _ = Phrase::table8(); // keep paper mapping in scope for readers
    }
}
