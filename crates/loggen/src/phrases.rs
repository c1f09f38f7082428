//! The phrase catalog: every static message template the generator can emit.
//!
//! The inventory is lifted from the paper's own examples — Table 2 (phrase
//! vectors), Table 3 (Safe/Unknown/Error labelling), Table 4 (the MCE
//! failure chain), Table 8 (unknown-tagged phrases P1-P12) and Table 9
//! (failure vs non-failure contexts) — rounded out with generic Linux/Cray
//! chatter so benign traffic dominates, as it does in real logs.
//!
//! `Label` here is the *generator-side* ground truth. The parsing substrate
//! (`desh-logparse`) has its own rule-based labeller that works from raw
//! text; tests cross-check the two.

use desh_util::Xoshiro256pp;

/// Ground-truth phrase category (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Benign, never part of a failure chain.
    Safe,
    /// May or may not indicate an anomaly.
    Unknown,
    /// Definitely indicative of an anomaly.
    Error,
}

/// Kinds of dynamic (variable) content a template slot can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dyn {
    /// Hex word like `0x6624`.
    Hex,
    /// Small decimal integer.
    Int,
    /// Process id.
    Pid,
    /// Filesystem-ish path.
    Path,
    /// Return code like `rc = -108`.
    Rc,
    /// 64-bit address like `ffffffff810a1b2c`.
    Addr,
    /// Compact timestamp token like `20141216t162520`.
    Stamp,
}

impl Dyn {
    /// Render a random instance of this dynamic field.
    pub fn render(self, rng: &mut Xoshiro256pp) -> String {
        match self {
            Dyn::Hex => format!("0x{:x}", rng.below(1 << 32)),
            Dyn::Int => format!("{}", rng.below(512)),
            Dyn::Pid => format!("{}", 300 + rng.below(65_000)),
            Dyn::Path => {
                const DIRS: [&str; 4] = ["/proc", "/sys/devices", "/etc", "/var/run"];
                const FILES: [&str; 4] = ["stat", "config", "lock", "state"];
                format!(
                    "{}/{}{}",
                    DIRS[rng.index(4)],
                    FILES[rng.index(4)],
                    rng.below(100)
                )
            }
            Dyn::Rc => format!("-{}", 1 + rng.below(120)),
            Dyn::Addr => format!("{:016x}", rng.next_u64()),
            Dyn::Stamp => format!(
                "2014{:02}{:02}t{:02}{:02}{:02}",
                1 + rng.below(12),
                1 + rng.below(28),
                rng.below(24),
                rng.below(60),
                rng.below(60)
            ),
        }
    }
}

/// Specification of one phrase template.
#[derive(Debug, Clone, Copy)]
pub struct PhraseSpec {
    /// Short identifier for diagnostics and experiment output.
    pub name: &'static str,
    /// Message text with `{}` slots for dynamic fields.
    pub template: &'static str,
    /// Ground-truth label.
    pub label: Label,
    /// Fillers for the `{}` slots, in order.
    pub dyns: &'static [Dyn],
}

impl PhraseSpec {
    /// Render the template with random dynamic fields.
    pub fn render(&self, rng: &mut Xoshiro256pp) -> String {
        let mut out = String::with_capacity(self.template.len() + 16);
        let mut slots = self.dyns.iter();
        let mut rest = self.template;
        while let Some(pos) = rest.find("{}") {
            out.push_str(&rest[..pos]);
            let d = slots
                .next()
                .unwrap_or_else(|| panic!("template {:?} has more slots than dyns", self.name));
            out.push_str(&d.render(rng));
            rest = &rest[pos + 2..];
        }
        assert!(
            slots.next().is_none(),
            "template {:?} has fewer slots than dyns",
            self.name
        );
        out.push_str(rest);
        out
    }

    /// The static part of the phrase: template with slots elided. Useful for
    /// tests asserting template-miner output.
    pub fn static_form(&self) -> String {
        self.template.replace("{}", "*")
    }
}

macro_rules! catalog {
    ($( $variant:ident => ($name:literal, $tmpl:literal, $label:ident, [$($d:ident),*]) ),+ $(,)?) => {
        /// Every phrase the generator can emit.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u16)]
        pub enum Phrase {
            $( #[allow(missing_docs)] $variant ),+
        }

        impl Phrase {
            /// All phrases in catalog order.
            pub const ALL: &'static [Phrase] = &[ $( Phrase::$variant ),+ ];

            /// The phrase's specification.
            pub fn spec(self) -> PhraseSpec {
                match self {
                    $( Phrase::$variant => PhraseSpec {
                        name: $name,
                        template: $tmpl,
                        label: Label::$label,
                        dyns: &[ $(Dyn::$d),* ],
                    } ),+
                }
            }
        }
    };
}

catalog! {
    // ---- Safe background chatter (Table 3 column 1 + generic noise) ----
    MountNid => ("mount_nid", "Mounting NID specific", Safe, []),
    ApicTimer => ("apic_timer", "cpu {} apic_timer_irqs", Safe, [Int]),
    SettingFlag => ("setting_flag", "Setting flag {}", Safe, [Hex]),
    Wait4Boot => ("wait4boot", "Wait4Boot", Safe, []),
    EcNodeInfo => ("ec_node_info", "Sending ec_node_info with boot code {}", Safe, [Hex]),
    SysctlValues => ("sysctl", "Running {} using values from /etc/sysctl.conf", Safe, [Path]),
    LnetQuiesce => ("lnet_quiesce", "kernel LNet: hardware quiesce {}, All threads awake", Safe, [Stamp]),
    NscdReconnect => ("nscd_reconnect", "nscd: nss_ldap reconnected to LDAP server {}", Safe, [Int]),
    LustreConnected => ("lustre_connected", "Lustre: {} connected to {}", Safe, [Hex, Int]),
    SlurmLaunch => ("slurm_launch", "slurmd: launched job {} for user {}", Safe, [Int, Int]),
    BmcHeartbeat => ("bmc_heartbeat", "ipmi: BMC heartbeat ok seq {}", Safe, [Int]),
    Ext4Mounted => ("ext4_mounted", "EXT4-fs mounted filesystem with ordered data mode {}", Safe, [Hex]),

    // ---- Unknown phrases (Table 8 P1-P12, in order) ----
    LustreError => ("lustre_error", "LustreError: {} failed: rc = {}", Unknown, [Hex, Rc]),
    OomKilled => ("oom_killed", "Out of memory: Killed process {} ({})", Unknown, [Pid, Path]),
    LnetCritHw => ("lnet_crit_hw", "LNet: Critical H/W error {}", Unknown, [Hex]),
    SlurmCtrlErr => ("slurm_ctrl_err", "Slurm load partitions error: Unable to contact slurm controller {}", Unknown, [Int]),
    AerBadTlp => ("aer_bad_tlp", "hwerr[{}]: Correctable AER_BAD_TLP Error {}", Unknown, [Hex, Hex]),
    LlmrdShutdown => ("llmrd_shutdown", "Sent shutdown to llmrd at process {}", Unknown, [Pid]),
    AerMulti => ("aer_multi", "AER: Multiple corrected error recvd {}", Unknown, [Hex]),
    TrapInvalid => ("trap_invalid", "Trap invalid opcode {} Error {}", Unknown, [Addr, Hex]),
    ModprobeFatal => ("modprobe_fatal", "modprobe: FATAL: Module {} not found rc = {}", Unknown, [Path, Rc]),
    NodeHealthExit => ("node_health_exit", "<node_health> {} Warning: program {} returned with exit code {}", Unknown, [Int, Path, Int]),
    DvsVerify => ("dvs_verify", "DVS: Verify Filesystem: {}", Unknown, [Path]),
    NullDeref => ("null_deref", "BUG: unable to handle kernel NULL pointer dereference at {}", Unknown, [Addr]),

    // ---- Further unknowns used by chains and near-misses (Tables 4 & 9) ----
    MceException => ("mce_exception", "CPU {}: Machine Check Exception: {}", Unknown, [Int, Hex]),
    HwMcelog => ("hw_mcelog", "[Hardware Error]: Run the above through 'mcelog --ascii'", Unknown, []),
    HwRip => ("hw_rip", "[Hardware Error]: RIP !INEXACT! {}: {}", Unknown, [Int, Addr]),
    MceNotifyIrq => ("mce_notify_irq", "mce_notify_irq: {}", Unknown, [Hex]),
    CorrectedPage => ("corrected_page", "Corrected Memory Errors on Page {}", Unknown, [Addr]),
    CorrectedDimm => ("corrected_dimm", "Corrected DIMM Memory Errors {}", Unknown, [Hex]),
    HwerrProto => ("hwerr_proto", "hwerr {}: ssid_rsp_a_status_msg_protocol_error {}", Unknown, [Hex, Hex]),
    GsocketsCrit => ("gsockets_crit", "[Gsockets] debug[{}]: critical h/w error {}", Unknown, [Int, Hex]),
    PcieCorrected => ("pcie_corrected", "PCIe Bus Error: severity=Corrected, type=Physical Layer {}", Unknown, [Hex]),
    LnetNoTraffic => ("lnet_no_traffic", "LNet: No gnilnd traffic received from {}", Unknown, [Int]),
    LnetReaper => ("lnet_reaper", "LNet: kgnilnd reaper dgram check {}", Unknown, [Int]),
    Segfault => ("segfault", "segfault at {} ip {} sp {} error {}", Unknown, [Addr, Addr, Addr, Int]),
    SlurmAbort => ("slurm_abort", "slurmd: error: {} aborted job {}", Unknown, [Path, Int]),
    DvsNoServers => ("dvs_no_servers", "DVS: {} no servers functioning properly", Unknown, [Path]),
    LustreSkipped => ("lustre_skipped", "Lustre: {} binary skipped rc = {}", Unknown, [Path, Rc]),
    StartprocFailed => ("startproc_failed", "startproc: nss_ldap: failed rc = {}", Unknown, [Rc]),

    // ---- Error phrases (Table 3 column 3) ----
    NodeDown => ("node_down", "WARNING: Node {} is down", Error, [Int]),
    DebugNmi => ("debug_nmi", "Debug NMI detected {}", Error, [Hex]),
    CbNodeUnavailable => ("cb_node_unavailable", "cb_node_unavailable {}", Error, [Int]),
    PanicFatalMce => ("panic_fatal_mce", "Kernel panic - not syncing: Fatal Machine check", Error, []),
    PanicNotSyncing => ("panic_not_syncing", "Kernel panic - not syncing: {}", Error, [Path]),
    CallTrace => ("call_trace", "Call Trace: {}", Error, [Addr]),
    StopNmi => ("stop_nmi", "Stop NMI detected {}", Error, [Hex]),
    HeartbeatFault => ("heartbeat_fault", "Node heartbeat fault {}", Error, [Int]),
    SlurmdStopped => ("slurmd_stopped", "slurmd stopped {}", Error, [Int]),
    SystemHalted => ("system_halted", "System: halted", Error, []),
}

impl Phrase {
    /// Ground-truth label.
    pub fn label(self) -> Label {
        self.spec().label
    }

    /// Render with random dynamic fields.
    pub fn render(self, rng: &mut Xoshiro256pp) -> String {
        self.spec().render(rng)
    }

    /// Terminal phrases that mark an **anomalous** node failure (verified
    /// with admins, per the paper). Maintenance shutdowns use
    /// [`Phrase::SystemHalted`] instead and must not match.
    pub fn is_failure_terminal(self) -> bool {
        matches!(self, Phrase::CbNodeUnavailable | Phrase::NodeDown)
    }

    /// The Table 8 unknown phrases (P1..P12) in paper order, with the
    /// paper's reported percentage contribution to node failures.
    pub fn table8() -> [(Phrase, f64); 12] {
        [
            (Phrase::LustreError, 56.0),
            (Phrase::OomKilled, 15.0),
            (Phrase::LnetCritHw, 36.0),
            (Phrase::SlurmCtrlErr, 42.0),
            (Phrase::AerBadTlp, 12.0),
            (Phrase::LlmrdShutdown, 17.0),
            (Phrase::AerMulti, 21.0),
            (Phrase::TrapInvalid, 8.0),
            (Phrase::ModprobeFatal, 27.0),
            (Phrase::NodeHealthExit, 29.0),
            (Phrase::DvsVerify, 60.0),
            (Phrase::NullDeref, 25.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let mut names = std::collections::HashSet::new();
        for p in Phrase::ALL {
            assert!(
                names.insert(p.spec().name),
                "duplicate name {}",
                p.spec().name
            );
        }
        assert!(Phrase::ALL.len() >= 40, "catalog unexpectedly small");
    }

    #[test]
    fn slots_match_dyns_for_every_phrase() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for p in Phrase::ALL {
            let spec = p.spec();
            let slot_count = spec.template.matches("{}").count();
            assert_eq!(slot_count, spec.dyns.len(), "{}", spec.name);
            // Render must not panic and must not keep any '{}'.
            let text = spec.render(&mut rng);
            assert!(!text.contains("{}"), "{}: {text}", spec.name);
        }
    }

    #[test]
    fn rendered_dynamic_fields_vary() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let a = Phrase::LustreError.render(&mut rng);
        let b = Phrase::LustreError.render(&mut rng);
        assert_ne!(a, b, "dynamic fields should differ between renders");
        // Static part is shared.
        assert!(a.starts_with("LustreError: ") && b.starts_with("LustreError: "));
    }

    #[test]
    fn label_partition_is_sensible() {
        use Label::*;
        let safe = Phrase::ALL.iter().filter(|p| p.label() == Safe).count();
        let unknown = Phrase::ALL.iter().filter(|p| p.label() == Unknown).count();
        let error = Phrase::ALL.iter().filter(|p| p.label() == Error).count();
        assert!(
            safe >= 10 && unknown >= 20 && error >= 8,
            "{safe}/{unknown}/{error}"
        );
    }

    #[test]
    fn terminal_set_excludes_maintenance() {
        assert!(Phrase::CbNodeUnavailable.is_failure_terminal());
        assert!(Phrase::NodeDown.is_failure_terminal());
        assert!(!Phrase::SystemHalted.is_failure_terminal());
        assert!(!Phrase::StopNmi.is_failure_terminal());
    }

    #[test]
    fn table8_is_complete_and_unknown() {
        let t8 = Phrase::table8();
        assert_eq!(t8.len(), 12);
        for (p, pct) in t8 {
            assert_eq!(p.label(), Label::Unknown, "{:?}", p);
            assert!((5.0..=65.0).contains(&pct));
        }
    }

    #[test]
    fn static_form_elides_slots() {
        assert_eq!(
            Phrase::MceException.spec().static_form(),
            "CPU *: Machine Check Exception: *"
        );
    }

    #[test]
    fn render_is_deterministic_per_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(7);
        let mut b = Xoshiro256pp::seed_from_u64(7);
        for p in Phrase::ALL {
            assert_eq!(p.render(&mut a), p.render(&mut b));
        }
    }
}
