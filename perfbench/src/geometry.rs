//! The frozen workload geometry. Every number here is part of the
//! benchmark's definition: changing one changes what the metrics mean, so
//! a change that claims a gain must leave this file alone. The intake runs
//! with `IntakeConfig::default()` (Block backpressure, queue depth 8192,
//! batch window 256), as `desh-cli serve` does without flags.

use desh::loggen::SystemProfile;

/// Seed of the M1 log the served model is trained on (the paper's
/// experiment seed, as in `desh-bench`). The served streams come from
/// `--seed`; the model does not, so every run serves the same model.
pub const MODEL_SEED: u64 = 2018;
/// Chronological train share of the M1 log (the paper's 30/70 protocol).
pub const TRAIN_SHARE: f64 = 0.3;
/// Intake shards, as `desh-cli serve --shards 2` on a 2-core host.
pub const SHARDS: usize = 2;
/// Resident node slots per shard (`desh-cli serve` default).
pub const SLOTS: usize = 256;
/// Open-loop tick: the generator sends the lines due in each tick at once.
pub const TICK_US: u64 = 1_000;
/// Trainings per run, on every workload: every checkpoint must be bitwise
/// identical to the first, and the fastest is reported as `train_s`.
/// Training is deterministic work, so what differs between the trainings
/// is the host, and one slowed training must not set the figure.
pub const TRAININGS: usize = 2;
/// A latency pass whose generator started more than 1 % of its ticks over
/// ten ticks late fell behind its schedule: it is reported invalid and not
/// averaged in. Smaller lateness (the host's own scheduling jitter reaches
/// a few ms) stays in the latency, which runs from the due time.
pub const MAX_GENERATOR_LATE_P99_US: f64 = 10_000.0;
/// An open-loop pass offers the first `rate × LATENCY_PASS_S` lines of the
/// stream, or all of it when that is shorter.
pub const LATENCY_PASS_S: f64 = 0.6;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// M1 ×16 rendered to raw lines, one loopback TCP connection.
    FleetTcp,
    /// M1 ×64 at low noise, native records through `push_records`.
    StormPush,
    /// `Desh::train` on the M1 head, then a fresh 32-day M1 log pushed in
    /// process.
    TrainM1,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::FleetTcp, Workload::StormPush, Workload::TrainM1];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetTcp => "fleet_tcp",
            Workload::StormPush => "storm_push",
            Workload::TrainM1 => "train_m1",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The generator profile of the served stream.
    pub fn profile(self) -> SystemProfile {
        match self {
            Workload::FleetTcp => SystemProfile::m1().scaled(16.0),
            Workload::StormPush => {
                let mut p = SystemProfile::m1().scaled(64.0);
                p.noise_per_node_hour = 0.5;
                p
            }
            // 32 days instead of two, at the same failure rate, so that a
            // saturation pass lasts long enough (~0.4 s) to time steadily.
            Workload::TrainM1 => {
                let mut p = SystemProfile::m1();
                p.duration = desh::util::Micros(16 * p.duration.0);
                p.failures *= 16;
                p
            }
        }
    }

    /// Raw lines over TCP (`true`) or native records in process.
    pub fn over_tcp(self) -> bool {
        self == Workload::FleetTcp
    }

    /// Open-loop offered loads in events/s: 25 % and 50 % of the median
    /// `capacity_ev_s` measured when the benchmark was defined (2-core
    /// x86-64 host with AVX2+FMA kernels). Absolute, never re-derived
    /// from the run under test.
    pub fn loads(self) -> [(&'static str, f64); 2] {
        let capacity = match self {
            Workload::FleetTcp => 800_000.0,
            Workload::StormPush => 350_000.0,
            Workload::TrainM1 => 1_200_000.0,
        };
        [("load25", 0.25 * capacity), ("load50", 0.5 * capacity)]
    }

    /// Whether a warning that differs from the sequential reference, or a
    /// line that never gets its verdict, fails the run. On `fleet_tcp` a
    /// differing warning is a known defect (the raw-line clock wraps at
    /// midnight and eviction timing then depends on chunk boundaries), so
    /// there both are measured and reported instead.
    pub fn mismatch_fails(self) -> bool {
        self != Workload::FleetTcp
    }
}
