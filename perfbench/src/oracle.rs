//! The verdict oracle: a sequential `OnlineDetector` over the identical
//! parsed input, compared warning by warning with what the intake fired.

use desh::core::{DeshConfig, OnlineDetector, Warning};
use desh::loggen::{LogRecord, NodeId};
use desh::util::Micros;
use std::collections::BTreeMap;

/// What two warnings must share to count as the same verdict. The lead
/// time is compared by its bits: any drift in scoring arithmetic shows.
pub type WarnKey = (NodeId, Micros, u64);

pub fn key(w: &Warning) -> WarnKey {
    (w.node, w.at, w.predicted_lead_secs.to_bits())
}

/// Warnings of the sequential reference detector in firing order, each
/// with the index of the record that fired it. The detector is causal,
/// so the reference for the first `n` records is the entries below `n`.
pub fn reference(detector: &mut OnlineDetector, records: &[LogRecord]) -> Vec<(usize, WarnKey)> {
    records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| detector.ingest(r).map(|w| (i, key(&w))))
        .collect()
}

/// The reference warnings fired within the first `n` records.
pub fn prefix(reference: &[(usize, WarnKey)], n: usize) -> Vec<WarnKey> {
    reference
        .iter()
        .take_while(|(i, _)| *i < n)
        .map(|(_, k)| *k)
        .collect()
}

/// A fresh sequential detector as `desh-cli predict` builds it.
pub fn detector(ck: desh::checkpoint::Checkpoint) -> OnlineDetector {
    let mut det = OnlineDetector::new(ck.model, ck.vocab, DeshConfig::default());
    if !ck.chains.is_empty() {
        det.attach_chains(&ck.chains);
    }
    det
}

/// Multiset comparison of two warning streams.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Diff {
    /// Size of the symmetric difference.
    pub symdiff: usize,
    /// The earliest differing warning and whether the reference holds it
    /// (`true`) or only the intake does (`false`).
    pub first: Option<(WarnKey, bool)>,
}

pub fn compare(reference: &[WarnKey], got: &[WarnKey]) -> Diff {
    let mut count: BTreeMap<(Micros, NodeId, u64), i64> = BTreeMap::new();
    for &(n, t, b) in reference {
        *count.entry((t, n, b)).or_default() += 1;
    }
    for &(n, t, b) in got {
        *count.entry((t, n, b)).or_default() -= 1;
    }
    let mut diff = Diff::default();
    for (&(t, n, b), &c) in &count {
        if c != 0 {
            diff.symdiff += c.unsigned_abs() as usize;
            diff.first.get_or_insert(((n, t, b), c > 0));
        }
    }
    diff
}

/// Symmetric difference ÷ reference warnings; zero when both are empty.
pub fn mismatch_share(symdiff: usize, reference: usize) -> f64 {
    if symdiff == 0 {
        0.0
    } else {
        symdiff as f64 / reference.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(t: u64, lead: f64) -> WarnKey {
        (NodeId::new(0, 0, 1, 2, 3), Micros(t), lead.to_bits())
    }

    #[test]
    fn warnings_match_on_bits() {
        let a = vec![k(1, 100.0), k(2, 200.0)];
        assert_eq!(compare(&a, &a.clone()).symdiff, 0);
        // One ulp of lead time is a different verdict.
        let b = vec![k(1, 100.0), k(2, f64::from_bits(200f64.to_bits() + 1))];
        let d = compare(&a, &b);
        assert_eq!(d.symdiff, 2);
        assert_eq!(d.first, Some((k(2, 200.0), true)));
        // Order of firing does not matter; multiplicity does.
        assert_eq!(compare(&a, &[a[1], a[0]]).symdiff, 0);
        assert_eq!(compare(&a, &[a[0], a[1], a[1]]).symdiff, 1);
    }

    #[test]
    fn mismatch_share_defined_when_both_sides_empty() {
        let d = compare(&[], &[]);
        assert_eq!(d, Diff::default());
        assert_eq!(mismatch_share(d.symdiff, 0), 0.0);
        assert_eq!(mismatch_share(2, 0), 2.0);
        assert_eq!(mismatch_share(3, 3_000), 0.001);
    }
}
