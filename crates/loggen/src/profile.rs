//! System profiles M1-M4 mirroring Table 1 of the paper.
//!
//! The paper's datasets are 22-373 GB of production Cray logs over 8-12
//! months from clusters of 1,872-5,600 nodes. Those logs are proprietary,
//! so each profile here pairs the *paper's* metadata (kept for Table 1
//! regeneration) with a scaled-down synthetic workload that preserves the
//! statistical structure that matters to Desh: the failure-class mix, the
//! near-miss confounder pressure, and the benign-noise floor.
//!
//! The class mixes implement the paper's §4.2 observation that "M2 features
//! more node failures caused by Hardware and Filesystem classes and fewer
//! kernel panics", which is why M2 shows the longest average lead time in
//! Figure 7.

use crate::scenario::FailureClass;
use desh_util::{time::MICROS_PER_HOUR, Micros};

/// Workload description for one synthetic system.
#[derive(Debug, Clone)]
pub struct SystemProfile {
    /// System name (M1..M4).
    pub name: String,
    /// Cray machine type from Table 1.
    pub machine: &'static str,
    /// Paper metadata for Table 1: dataset duration.
    pub paper_duration: &'static str,
    /// Paper metadata for Table 1: dataset size.
    pub paper_size: &'static str,
    /// Paper metadata for Table 1: cluster scale in nodes.
    pub paper_scale: usize,

    /// Synthetic cluster size (scaled down from `paper_scale`).
    pub nodes: usize,
    /// Synthetic dataset duration.
    pub duration: Micros,
    /// Number of anomalous node failures to inject.
    pub failures: usize,
    /// Class mix over [Job, MCE, FileSystem, Traps, H/W, Panic]; sums to 1.
    pub class_mix: [f64; 6],
    /// Near-miss episodes injected per failure.
    pub near_miss_ratio: f64,
    /// Benign (Safe-phrase) events per node-hour.
    pub noise_per_node_hour: f64,
    /// Cabinet-wide maintenance shutdowns over the dataset.
    pub maintenance_events: usize,
    /// Fraction of failures whose chain is a *novel* variant (mutated
    /// ordering plus a foreign phrase). The paper notes "new patterns or
    /// unknown failures are rare" — rare, not absent; these bound recall.
    pub novelty: f64,
    /// Probability that a failure lands in the same cabinet as the
    /// previous failure, modelling the spatial correlation Gupta et al.
    /// report (failure correlation higher within a cabinet than a blade).
    /// The M1-M4 profiles keep this at 0 so the headline experiments match
    /// the paper protocol; spatial studies can turn it up.
    pub cabinet_correlation: f64,
}

impl SystemProfile {
    /// Weight of a class in this profile's mix.
    pub fn class_weight(&self, class: FailureClass) -> f64 {
        let idx = FailureClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("class in ALL");
        self.class_mix[idx]
    }

    /// Scale the synthetic workload (nodes, failures, noise volume) by a
    /// factor, keeping mixes intact. Benches use this for size sweeps.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.nodes = ((self.nodes as f64 * factor).round() as usize).max(4);
        self.failures = ((self.failures as f64 * factor).round() as usize).max(4);
        self
    }

    /// M1: Cray XC30, balanced mix, slightly panic-heavy (the paper notes
    /// M1 has the highest FP rate).
    pub fn m1() -> Self {
        Self {
            name: "M1".into(),
            machine: "Cray XC30",
            paper_duration: "10 months",
            paper_size: "373GB",
            paper_scale: 5600,
            nodes: 128,
            duration: Micros(48 * MICROS_PER_HOUR),
            failures: 160,
            class_mix: [0.12, 0.22, 0.20, 0.13, 0.15, 0.18],
            near_miss_ratio: 1.6,
            noise_per_node_hour: 5.0,
            maintenance_events: 2,
            novelty: 0.12,
            cabinet_correlation: 0.0,
        }
    }

    /// M2: Cray XE6; more Hardware + FileSystem failures, fewer panics,
    /// hence the longest lead times (Figure 7).
    pub fn m2() -> Self {
        Self {
            name: "M2".into(),
            machine: "Cray XE6",
            paper_duration: "12 months",
            paper_size: "150GB",
            paper_scale: 6400,
            nodes: 144,
            duration: Micros(48 * MICROS_PER_HOUR),
            failures: 170,
            class_mix: [0.08, 0.16, 0.28, 0.09, 0.30, 0.09],
            near_miss_ratio: 1.4,
            noise_per_node_hour: 5.0,
            maintenance_events: 2,
            novelty: 0.12,
            cabinet_correlation: 0.0,
        }
    }

    /// M3: Cray XC40, balanced.
    pub fn m3() -> Self {
        Self {
            name: "M3".into(),
            machine: "Cray XC40",
            paper_duration: "8 months",
            paper_size: "39GB",
            paper_scale: 2100,
            nodes: 96,
            duration: Micros(48 * MICROS_PER_HOUR),
            failures: 130,
            class_mix: [0.15, 0.20, 0.18, 0.15, 0.14, 0.18],
            near_miss_ratio: 1.5,
            noise_per_node_hour: 5.0,
            maintenance_events: 1,
            novelty: 0.12,
            cabinet_correlation: 0.0,
        }
    }

    /// M4: Cray XC40/XC30, panic-heavy (shortest lead times).
    pub fn m4() -> Self {
        Self {
            name: "M4".into(),
            machine: "Cray XC40/XC30",
            paper_duration: "10 months",
            paper_size: "22GB",
            paper_scale: 1872,
            nodes: 88,
            duration: Micros(48 * MICROS_PER_HOUR),
            failures: 120,
            class_mix: [0.10, 0.18, 0.20, 0.12, 0.16, 0.24],
            near_miss_ratio: 1.7,
            noise_per_node_hour: 5.0,
            maintenance_events: 1,
            novelty: 0.12,
            cabinet_correlation: 0.0,
        }
    }

    /// All four paper systems.
    pub fn all() -> Vec<Self> {
        vec![Self::m1(), Self::m2(), Self::m3(), Self::m4()]
    }

    /// A tiny profile for unit tests: small cluster, short span, but the
    /// same structure as the real profiles.
    pub fn tiny() -> Self {
        Self {
            name: "tiny".into(),
            machine: "Cray XC40",
            paper_duration: "-",
            paper_size: "-",
            paper_scale: 0,
            nodes: 12,
            duration: Micros(6 * MICROS_PER_HOUR),
            failures: 12,
            class_mix: [0.15, 0.2, 0.2, 0.15, 0.15, 0.15],
            near_miss_ratio: 1.0,
            noise_per_node_hour: 4.0,
            maintenance_events: 1,
            novelty: 0.12,
            cabinet_correlation: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one() {
        for p in SystemProfile::all() {
            let s: f64 = p.class_mix.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{}: mix sums to {s}", p.name);
        }
    }

    #[test]
    fn m2_is_hardware_and_fs_heavy() {
        let m2 = SystemProfile::m2();
        let hw_fs =
            m2.class_weight(FailureClass::Hardware) + m2.class_weight(FailureClass::FileSystem);
        let panic = m2.class_weight(FailureClass::Panic);
        for other in [
            SystemProfile::m1(),
            SystemProfile::m3(),
            SystemProfile::m4(),
        ] {
            let o_hw_fs = other.class_weight(FailureClass::Hardware)
                + other.class_weight(FailureClass::FileSystem);
            assert!(
                hw_fs > o_hw_fs,
                "M2 should lead in H/W+FS vs {}",
                other.name
            );
            assert!(panic < other.class_weight(FailureClass::Panic));
        }
    }

    #[test]
    fn table1_metadata_matches_paper() {
        let all = SystemProfile::all();
        assert_eq!(all[0].paper_size, "373GB");
        assert_eq!(all[1].paper_scale, 6400);
        assert_eq!(all[2].paper_duration, "8 months");
        assert_eq!(all[3].machine, "Cray XC40/XC30");
    }

    #[test]
    fn scaled_preserves_mix() {
        let p = SystemProfile::m1().scaled(0.5);
        assert_eq!(p.nodes, 64);
        assert_eq!(p.failures, 80);
        let s: f64 = p.class_mix.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}
