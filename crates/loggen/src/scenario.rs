//! Failure scenarios, near-miss confounders, and maintenance events.
//!
//! Table 7 of the paper defines six node-failure classes with
//! characteristic average lead times (time from the first anomalous phrase
//! of the chain to the terminal message). Each class here carries a phrase
//! chain assembled from the paper's own examples and a lead-time
//! distribution centred on the paper's reported average.
//!
//! Near-misses reproduce Table 9's right-hand columns: sequences of
//! anomalous ("Unknown") phrases that share prefixes with real failure
//! chains but never reach a terminal message — the source of false
//! positives, and the reason the lead-time/FP-rate trade-off (Figure 8)
//! exists at all.

use crate::phrases::Phrase;
use desh_util::Xoshiro256pp;

/// Node-failure classes (paper Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FailureClass {
    /// Slurm scheduler / application-related failures.
    Job,
    /// Hardware machine check exceptions, memory faults, processor corruption.
    Mce,
    /// Lustre/DVS bugs, packet and protocol errors.
    FileSystem,
    /// Segmentation faults, invalid opcodes, software interrupts.
    Traps,
    /// NMI faults, heartbeat errors, critical hardware errors.
    Hardware,
    /// Kernel panic with stack trace.
    Panic,
}

impl FailureClass {
    /// All classes, Table 7 order.
    pub const ALL: [FailureClass; 6] = [
        FailureClass::Job,
        FailureClass::Mce,
        FailureClass::FileSystem,
        FailureClass::Traps,
        FailureClass::Hardware,
        FailureClass::Panic,
    ];

    /// Display name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            FailureClass::Job => "Job",
            FailureClass::Mce => "MCE",
            FailureClass::FileSystem => "FileSystem",
            FailureClass::Traps => "Traps",
            FailureClass::Hardware => "H/W",
            FailureClass::Panic => "Panic",
        }
    }

    /// Average lead time in seconds reported by the paper (Table 7).
    pub fn paper_lead_secs(self) -> f64 {
        match self {
            FailureClass::Job => 81.52,
            FailureClass::Mce => 160.29,
            FailureClass::FileSystem => 119.32,
            FailureClass::Traps => 115.74,
            FailureClass::Hardware => 124.29,
            FailureClass::Panic => 58.87,
        }
    }

    /// The scenario specification for this class.
    pub fn spec(self) -> &'static ScenarioSpec {
        &SCENARIOS[match self {
            FailureClass::Job => 0,
            FailureClass::Mce => 1,
            FailureClass::FileSystem => 2,
            FailureClass::Traps => 3,
            FailureClass::Hardware => 4,
            FailureClass::Panic => 5,
        }]
    }
}

/// One optional step of a chain: the phrase and its inclusion probability.
#[derive(Debug, Clone, Copy)]
pub struct ChainStep {
    /// Phrase emitted at this step.
    pub phrase: Phrase,
    /// Probability the step appears in a sampled chain instance.
    pub prob: f64,
}

const fn step(phrase: Phrase, prob: f64) -> ChainStep {
    ChainStep { phrase, prob }
}

/// A failure-class scenario: ordered pre-terminal steps, the terminal
/// message, and the lead-time distribution.
#[derive(Debug)]
pub struct ScenarioSpec {
    /// The class this scenario realises.
    pub class: FailureClass,
    /// Ordered candidate steps before the terminal message.
    pub steps: &'static [ChainStep],
    /// Terminal message marking the node failure.
    pub terminal: Phrase,
    /// Mean lead time (first chain phrase → terminal), seconds.
    pub lead_mean_secs: f64,
    /// Lead-time standard deviation, seconds. Per the paper's Observation 4
    /// this is deliberately small relative to cross-class spread.
    pub lead_sd_secs: f64,
}

/// The six scenarios, Table 7 order. Chains follow the paper's examples:
/// the MCE chain is Table 4 verbatim; FS/Job/Traps/H-W/Panic chains are
/// assembled from Tables 8 and 9.
pub static SCENARIOS: [ScenarioSpec; 6] = [
    ScenarioSpec {
        class: FailureClass::Job,
        steps: &[
            step(Phrase::SlurmCtrlErr, 0.95),
            step(Phrase::NodeHealthExit, 0.85),
            step(Phrase::SlurmAbort, 0.85),
            step(Phrase::OomKilled, 0.45),
            step(Phrase::SlurmdStopped, 0.95),
        ],
        terminal: Phrase::CbNodeUnavailable,
        lead_mean_secs: 81.52,
        lead_sd_secs: 14.0,
    },
    ScenarioSpec {
        class: FailureClass::Mce,
        steps: &[
            step(Phrase::MceException, 1.0),
            step(Phrase::HwMcelog, 0.9),
            step(Phrase::HwRip, 0.85),
            step(Phrase::MceNotifyIrq, 0.85),
            step(Phrase::CorrectedPage, 0.85),
            step(Phrase::PanicFatalMce, 0.9),
            step(Phrase::CallTrace, 0.9),
        ],
        terminal: Phrase::CbNodeUnavailable,
        lead_mean_secs: 160.29,
        lead_sd_secs: 24.0,
    },
    ScenarioSpec {
        class: FailureClass::FileSystem,
        steps: &[
            step(Phrase::LustreError, 1.0),
            step(Phrase::DvsVerify, 0.85),
            step(Phrase::LnetCritHw, 0.85),
            step(Phrase::DvsNoServers, 0.85),
            step(Phrase::LustreSkipped, 0.45),
            step(Phrase::LlmrdShutdown, 0.85),
        ],
        terminal: Phrase::NodeDown,
        lead_mean_secs: 119.32,
        lead_sd_secs: 18.0,
    },
    ScenarioSpec {
        class: FailureClass::Traps,
        steps: &[
            step(Phrase::TrapInvalid, 0.9),
            step(Phrase::Segfault, 0.85),
            step(Phrase::NullDeref, 0.85),
            step(Phrase::ModprobeFatal, 0.85),
            step(Phrase::CallTrace, 0.85),
        ],
        terminal: Phrase::CbNodeUnavailable,
        lead_mean_secs: 115.74,
        lead_sd_secs: 17.0,
    },
    ScenarioSpec {
        class: FailureClass::Hardware,
        steps: &[
            step(Phrase::AerBadTlp, 0.85),
            step(Phrase::AerMulti, 0.85),
            step(Phrase::GsocketsCrit, 0.85),
            step(Phrase::HwerrProto, 0.85),
            step(Phrase::HeartbeatFault, 0.9),
            step(Phrase::DebugNmi, 0.85),
            step(Phrase::StopNmi, 0.9),
        ],
        terminal: Phrase::CbNodeUnavailable,
        lead_mean_secs: 124.29,
        lead_sd_secs: 19.0,
    },
    ScenarioSpec {
        class: FailureClass::Panic,
        steps: &[
            step(Phrase::NullDeref, 0.85),
            step(Phrase::OomKilled, 0.45),
            step(Phrase::PanicNotSyncing, 1.0),
            step(Phrase::CallTrace, 0.95),
            step(Phrase::StopNmi, 0.85),
        ],
        terminal: Phrase::CbNodeUnavailable,
        lead_mean_secs: 58.87,
        lead_sd_secs: 11.0,
    },
];

/// A sampled chain instance: phrases with their time *before* the terminal
/// message, in seconds, ordered oldest first. The terminal itself is the
/// last element at offset 0.
#[derive(Debug, Clone)]
pub struct ChainInstance {
    /// The failure class sampled.
    pub class: FailureClass,
    /// (seconds before terminal, phrase) pairs, oldest first; last is the
    /// terminal at 0.0.
    pub events: Vec<(f64, Phrase)>,
}

impl ChainInstance {
    /// Lead time of this instance: first event offset.
    pub fn lead_secs(&self) -> f64 {
        self.events.first().map(|(t, _)| *t).unwrap_or(0.0)
    }
}

/// Sample a chain for `class`. Steps are included independently with their
/// probabilities (at least two pre-terminal steps are forced so a chain is
/// recognisable); gaps follow the class lead-time distribution with the
/// cascade accelerating toward the terminal, like the Table 4 example.
pub fn sample_chain(class: FailureClass, rng: &mut Xoshiro256pp) -> ChainInstance {
    let spec = class.spec();
    let mut chosen: Vec<Phrase> = spec
        .steps
        .iter()
        .filter(|s| rng.chance(s.prob))
        .map(|s| s.phrase)
        .collect();
    if chosen.len() < 3 {
        // Force the three most likely steps to keep the chain recognisable
        // (and its episode above the extraction minimum).
        let mut ranked: Vec<&ChainStep> = spec.steps.iter().collect();
        ranked.sort_by(|a, b| b.prob.partial_cmp(&a.prob).unwrap());
        chosen = ranked.iter().take(3).map(|s| s.phrase).collect();
        // Restore catalog order.
        chosen.sort_by_key(|p| {
            spec.steps
                .iter()
                .position(|s| s.phrase == *p)
                .expect("phrase from spec")
        });
    }

    let lead = rng
        .normal_with(spec.lead_mean_secs, spec.lead_sd_secs)
        .clamp(spec.lead_mean_secs * 0.35, spec.lead_mean_secs * 1.9);

    // Offsets before terminal: the k-th of n pre-terminal events sits at
    // lead * (1 - k/n)^gamma. gamma slightly below 1 keeps the early events
    // bunched near the chain start with the cascade accelerating into the
    // terminal, matching the Table 4 example's spacing.
    let n = chosen.len();
    let gamma = 0.9f64;
    let mut events: Vec<(f64, Phrase)> = chosen
        .into_iter()
        .enumerate()
        .map(|(k, p)| {
            let frac = 1.0 - (k as f64) / (n as f64);
            let jitter = 1.0 + (rng.f64() - 0.5) * 0.25;
            let offset = lead * frac.powf(gamma) * jitter;
            (offset.max(0.3), p)
        })
        .collect();
    // First event defines the lead exactly.
    events[0].0 = lead;
    // Enforce strictly decreasing offsets (sorting + minimum gap).
    for k in 1..events.len() {
        let max_allowed = events[k - 1].0 - 0.25;
        if events[k].0 >= max_allowed {
            events[k].0 = max_allowed.max(0.3);
        }
    }
    events.push((0.0, spec.terminal));
    ChainInstance { class, events }
}

/// A near-miss scenario: anomalous phrases that do not end in failure
/// (Table 9, "Not Failure" columns).
#[derive(Debug)]
pub struct NearMissSpec {
    /// Diagnostic name.
    pub name: &'static str,
    /// Relative sampling weight (hard chain-prefix confounders are rarer
    /// than garden-variety blips in real logs).
    pub weight: f64,
    /// Ordered candidate steps.
    pub steps: &'static [ChainStep],
    /// Benign phrases that close the episode (the fault was corrected).
    pub recovery: &'static [Phrase],
    /// Mean episode span, seconds.
    pub span_mean_secs: f64,
}

/// Near-miss catalog. Each deliberately shares a prefix with one of the
/// failure scenarios (Observation 5: the same phrase can be benign in one
/// context and part of a failure chain in another). The `*_prefix` entries
/// are verbatim chain openings that simply never reach a terminal — the
/// paper's §4.2 caveat: "there are several other sequence of events similar
/// to a target failure chain not leading to a failed node", which is what
/// makes early flagging cost false positives (Figure 8).
pub static NEAR_MISSES: [NearMissSpec; 9] = [
    NearMissSpec {
        name: "mce_prefix",
        weight: 0.65,
        steps: &[
            step(Phrase::MceException, 0.95),
            step(Phrase::HwMcelog, 0.9),
            step(Phrase::HwRip, 0.8),
            step(Phrase::MceNotifyIrq, 0.7),
        ],
        recovery: &[Phrase::LnetQuiesce],
        span_mean_secs: 100.0,
    },
    NearMissSpec {
        name: "hw_prefix",
        weight: 0.45,
        steps: &[
            step(Phrase::GsocketsCrit, 0.95),
            step(Phrase::HwerrProto, 0.8),
            step(Phrase::HeartbeatFault, 0.9),
            step(Phrase::DebugNmi, 0.6),
        ],
        recovery: &[Phrase::BmcHeartbeat],
        span_mean_secs: 85.0,
    },
    NearMissSpec {
        name: "fs_prefix",
        weight: 0.45,
        steps: &[
            step(Phrase::LustreError, 0.95),
            step(Phrase::DvsVerify, 0.9),
            step(Phrase::LnetCritHw, 0.8),
            step(Phrase::DvsNoServers, 0.7),
        ],
        recovery: &[Phrase::LustreConnected],
        span_mean_secs: 80.0,
    },
    NearMissSpec {
        name: "traps_prefix",
        weight: 0.65,
        steps: &[
            step(Phrase::TrapInvalid, 0.95),
            step(Phrase::Segfault, 0.9),
            step(Phrase::NullDeref, 0.8),
        ],
        recovery: &[Phrase::NscdReconnect],
        span_mean_secs: 75.0,
    },
    NearMissSpec {
        name: "traps_recovered",
        weight: 4.5,
        steps: &[
            step(Phrase::TrapInvalid, 0.9),
            step(Phrase::OomKilled, 0.85),
            step(Phrase::NodeHealthExit, 0.85),
            step(Phrase::HwerrProto, 0.85),
        ],
        recovery: &[Phrase::NscdReconnect],
        span_mean_secs: 110.0,
    },
    NearMissSpec {
        name: "mce_corrected",
        weight: 4.5,
        steps: &[
            step(Phrase::MceException, 0.85),
            step(Phrase::CorrectedDimm, 0.9),
            step(Phrase::CorrectedPage, 0.85),
            step(Phrase::MceNotifyIrq, 0.85),
        ],
        recovery: &[Phrase::LnetQuiesce, Phrase::LustreConnected],
        span_mean_secs: 150.0,
    },
    NearMissSpec {
        name: "lustre_blip",
        weight: 4.5,
        steps: &[
            step(Phrase::LustreError, 0.95),
            step(Phrase::LustreSkipped, 0.85),
            step(Phrase::DvsVerify, 0.85),
            step(Phrase::LnetNoTraffic, 0.85),
            step(Phrase::LnetReaper, 0.85),
        ],
        recovery: &[Phrase::LustreConnected],
        span_mean_secs: 115.0,
    },
    NearMissSpec {
        name: "pcie_corrected",
        weight: 1.2,
        steps: &[
            step(Phrase::AerBadTlp, 0.85),
            step(Phrase::PcieCorrected, 0.9),
            step(Phrase::AerMulti, 0.85),
            step(Phrase::GsocketsCrit, 0.45),
        ],
        recovery: &[Phrase::BmcHeartbeat],
        span_mean_secs: 120.0,
    },
    NearMissSpec {
        name: "slurm_blip",
        weight: 2.5,
        steps: &[
            step(Phrase::SlurmCtrlErr, 0.9),
            step(Phrase::NodeHealthExit, 0.85),
            step(Phrase::StartprocFailed, 0.85),
        ],
        recovery: &[Phrase::SlurmLaunch],
        span_mean_secs: 80.0,
    },
];

/// A sampled near-miss: (seconds before episode end, phrase), oldest first.
#[derive(Debug, Clone)]
pub struct NearMissInstance {
    /// Which catalog entry was sampled.
    pub name: &'static str,
    /// (seconds before episode end, phrase), oldest first.
    pub events: Vec<(f64, Phrase)>,
}

/// Sample a near-miss episode.
pub fn sample_near_miss(rng: &mut Xoshiro256pp) -> NearMissInstance {
    sample_near_miss_with(rng, |_| true)
}

/// Sample a near-miss episode, consulting `allow` before including a step.
/// The generator uses this to cap out-of-chain appearances of the Table 8
/// phrases so their measured failure-contribution percentages match the
/// paper's Figure 9.
pub fn sample_near_miss_with(
    rng: &mut Xoshiro256pp,
    mut allow: impl FnMut(Phrase) -> bool,
) -> NearMissInstance {
    let weights: Vec<f64> = NEAR_MISSES.iter().map(|s| s.weight).collect();
    let spec = &NEAR_MISSES[rng.weighted(&weights)];
    let mut chosen: Vec<Phrase> = spec
        .steps
        .iter()
        .filter(|s| rng.chance(s.prob) && allow(s.phrase))
        .map(|s| s.phrase)
        .collect();
    if chosen.is_empty() {
        // Fall back to the first permitted step, else the least constrained.
        let fallback = spec
            .steps
            .iter()
            .map(|s| s.phrase)
            .find(|p| allow(*p))
            .unwrap_or(spec.steps[spec.steps.len() - 1].phrase);
        chosen.push(fallback);
    }
    let span = rng
        .normal_with(spec.span_mean_secs, spec.span_mean_secs * 0.2)
        .clamp(spec.span_mean_secs * 0.4, spec.span_mean_secs * 2.0);
    let n = chosen.len() + spec.recovery.len();
    let mut events = Vec::with_capacity(n);
    for (k, p) in chosen.iter().chain(spec.recovery.iter()).enumerate() {
        let frac = 1.0 - (k as f64) / (n.max(1) as f64);
        let jitter = 1.0 + (rng.f64() - 0.5) * 0.25;
        events.push(((span * frac * jitter).max(0.2), *p));
    }
    for k in 1..events.len() {
        let max_allowed: f64 = events[k - 1].0 - 0.2;
        if events[k].0 >= max_allowed {
            events[k].0 = max_allowed.max(0.1);
        }
    }
    NearMissInstance {
        name: spec.name,
        events,
    }
}

/// Routine background cycles: the stereotyped benign sequences (health
/// checks, boot verification, job launches) that dominate real system logs
/// and make next-phrase prediction learnable at all — the paper's phase 1
/// reaches high accuracy *because* such structure exists.
///
/// Cycles 1 and 2 deliberately share the 5-phrase run
/// `BmcHeartbeat -> ApicTimer -> NscdReconnect -> Ext4Mounted -> SlurmLaunch`
/// and then diverge: a 3-phrase history cannot tell which cycle it is in
/// at the divergence point, while an 8-phrase history can. That is the
/// mechanism behind the paper's observation that "reducing the history
/// size to 3 brings down the accuracy by 10% to 14%".
pub fn routine_cycles() -> [&'static [Phrase]; 3] {
    const C1: &[Phrase] = &[
        Phrase::Wait4Boot,
        Phrase::MountNid,
        Phrase::EcNodeInfo,
        Phrase::SysctlValues,
        Phrase::SettingFlag,
        Phrase::LnetQuiesce,
        Phrase::BmcHeartbeat,
        Phrase::ApicTimer,
        Phrase::NscdReconnect,
        Phrase::Ext4Mounted,
        Phrase::SlurmLaunch,
        Phrase::LustreConnected,
    ];
    const C2: &[Phrase] = &[
        Phrase::BmcHeartbeat,
        Phrase::ApicTimer,
        Phrase::NscdReconnect,
        Phrase::Ext4Mounted,
        Phrase::SlurmLaunch,
        Phrase::LnetQuiesce,
        Phrase::SettingFlag,
        Phrase::MountNid,
        Phrase::SysctlValues,
        Phrase::EcNodeInfo,
    ];
    const C3: &[Phrase] = &[
        Phrase::SlurmLaunch,
        Phrase::Ext4Mounted,
        Phrase::LustreConnected,
        Phrase::LnetQuiesce,
        Phrase::BmcHeartbeat,
        Phrase::ApicTimer,
        Phrase::SettingFlag,
        Phrase::NscdReconnect,
    ];
    [C1, C2, C3]
}

/// Phrases emitted on every node of a cabinet during a maintenance
/// shutdown, oldest first with offsets before the reboot completes.
/// These are *intentional* shutdowns: the ground truth records no failure
/// and the terminal set does not match [`Phrase::SystemHalted`].
pub fn maintenance_sequence() -> Vec<(f64, Phrase)> {
    vec![
        (120.0, Phrase::LlmrdShutdown),
        (90.0, Phrase::SlurmdStopped),
        (60.0, Phrase::StopNmi),
        (45.0, Phrase::SystemHalted),
        (10.0, Phrase::Wait4Boot),
        (0.0, Phrase::MountNid),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_samples_valid_chains() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for class in FailureClass::ALL {
            for _ in 0..50 {
                let c = sample_chain(class, &mut rng);
                assert!(c.events.len() >= 3, "{class:?} chain too short");
                // Strictly decreasing offsets, terminal at zero.
                for w in c.events.windows(2) {
                    assert!(
                        w[0].0 > w[1].0,
                        "{class:?}: offsets not decreasing: {:?}",
                        c.events
                    );
                }
                assert_eq!(c.events.last().unwrap().0, 0.0);
                assert!(c.events.last().unwrap().1.is_failure_terminal());
            }
        }
    }

    #[test]
    fn lead_times_track_table7() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for class in FailureClass::ALL {
            let mean: f64 = (0..400)
                .map(|_| sample_chain(class, &mut rng).lead_secs())
                .sum::<f64>()
                / 400.0;
            let target = class.paper_lead_secs();
            assert!(
                (mean - target).abs() < target * 0.15,
                "{class:?}: sampled mean {mean:.1}s vs paper {target:.1}s"
            );
        }
    }

    #[test]
    fn class_ordering_matches_paper() {
        // Panic shortest, MCE longest (Table 7 / Figure 6).
        let leads: Vec<f64> = FailureClass::ALL
            .iter()
            .map(|c| c.paper_lead_secs())
            .collect();
        let panic = FailureClass::Panic.paper_lead_secs();
        let mce = FailureClass::Mce.paper_lead_secs();
        assert!(leads.iter().all(|&l| l >= panic));
        assert!(leads.iter().all(|&l| l <= mce));
    }

    #[test]
    fn near_miss_never_contains_terminal() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..300 {
            let nm = sample_near_miss(&mut rng);
            assert!(!nm.events.is_empty());
            for (_, p) in &nm.events {
                assert!(
                    !p.is_failure_terminal(),
                    "{}: terminal in near miss",
                    nm.name
                );
            }
            for w in nm.events.windows(2) {
                assert!(w[0].0 > w[1].0, "offsets not decreasing");
            }
        }
    }

    #[test]
    fn near_miss_shares_prefix_phrases_with_chains() {
        // The confounders must overlap chain vocabularies, otherwise they
        // exert no false-positive pressure.
        use std::collections::HashSet;
        let chain_phrases: HashSet<Phrase> = SCENARIOS
            .iter()
            .flat_map(|s| s.steps.iter().map(|st| st.phrase))
            .collect();
        for nm in &NEAR_MISSES {
            let overlap = nm
                .steps
                .iter()
                .filter(|s| chain_phrases.contains(&s.phrase))
                .count();
            assert!(overlap >= 1, "{} shares no phrases with any chain", nm.name);
        }
    }

    #[test]
    fn maintenance_ends_with_reboot_markers() {
        let seq = maintenance_sequence();
        assert!(seq.iter().any(|(_, p)| *p == Phrase::SystemHalted));
        assert!(!seq.iter().any(|(_, p)| p.is_failure_terminal()));
        for w in seq.windows(2) {
            assert!(w[0].0 > w[1].0);
        }
    }

    #[test]
    fn chain_sampling_is_deterministic() {
        let mut a = Xoshiro256pp::seed_from_u64(9);
        let mut b = Xoshiro256pp::seed_from_u64(9);
        for class in FailureClass::ALL {
            let ca = sample_chain(class, &mut a);
            let cb = sample_chain(class, &mut b);
            assert_eq!(ca.events.len(), cb.events.len());
            for (x, y) in ca.events.iter().zip(&cb.events) {
                assert_eq!(x.1, y.1);
                assert!((x.0 - y.0).abs() < 1e-12);
            }
        }
    }
}
