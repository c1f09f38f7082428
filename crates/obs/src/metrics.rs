//! Atomic metric primitives: counters, gauges, log-scale latency histograms.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
///
/// A gauge remembers whether it has ever been `set`: registry handles
/// are get-or-create, so merely resolving one (e.g. the quality
/// monitor's precision gauge on a replay with no labelled truth) must
/// not make a phantom 0.0 appear in snapshots — and from there in
/// `/metrics`, the history ring, and `GaugeBelow` SLO burn math.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
    touched: AtomicBool,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.touched.store(true, Ordering::Release);
    }

    /// Add `delta` atomically. Writers that each own a share of one total
    /// (detector shards on a shared registry) publish their changes with
    /// this, so no writer overwrites another's share.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.touched.store(true, Ordering::Release);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Whether `set` has ever been called; unset gauges are omitted
    /// from snapshots.
    pub fn is_set(&self) -> bool {
        self.touched.load(Ordering::Acquire)
    }
}

/// Number of histogram buckets: 16 exact buckets for values 0..16, then
/// 4 sub-buckets per power of two up to `u64::MAX`.
const BUCKETS: usize = 16 + 60 * 4;

/// Lock-free log-scale histogram of `u64` observations (microseconds by
/// convention; names end in `_us`).
///
/// Values 0..16 are recorded exactly; larger values land in one of four
/// sub-buckets per octave, bounding relative quantile error at 25% before
/// intra-bucket interpolation. Recording is two relaxed `fetch_add`s — no
/// locks, no allocation — so it is safe on the per-event scoring path.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

pub(crate) fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (msb - 2)) & 3) as usize;
        16 + (msb - 4) * 4 + sub
    }
}

/// Inclusive-lower / exclusive-upper value range of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < 16 {
        (i as u64, i as u64 + 1)
    } else {
        let msb = 4 + (i - 16) / 4;
        let sub = ((i - 16) % 4) as u64;
        let step = 1u64 << (msb - 2);
        let lo = (1u64 << msb) + sub * step;
        (lo, lo.saturating_add(step))
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation (microseconds by convention).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Merge another histogram's counts into this one.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter().zip(&other.buckets) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Consistent point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`LatencyHistogram`], for quantile math and sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl LatencySnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Smallest recorded value's bucket lower bound.
    pub fn min(&self) -> u64 {
        self.buckets
            .iter()
            .position(|&c| c > 0)
            .map_or(0, |i| bucket_bounds(i).0)
    }

    /// Largest recorded value: exact below 16, where buckets hold one
    /// value each; above, its bucket's upper bound (exclusive).
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| match bucket_bounds(i) {
                (lo, hi) if hi - lo == 1 => lo,
                (_, hi) => hi,
            })
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) in the recorded unit: exact
    /// below 16, with linear interpolation inside the containing bucket
    /// above.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * (total as f64 - 1.0)).floor() as u64 + 1;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && rank <= seen + c {
                let (lo, hi) = bucket_bounds(i);
                if hi - lo == 1 {
                    return lo as f64;
                }
                // Midpoint interpolation, matching desh_util::Histogram.
                let frac = ((rank - seen) as f64 - 0.5) / c as f64;
                return lo as f64 + (hi - lo) as f64 * frac;
            }
            seen += c;
        }
        self.max() as f64
    }

    /// Estimated number of observations strictly above `threshold`, with
    /// linear pro-rating inside the bucket that straddles it. This is the
    /// "bad event" count for latency SLOs (e.g. scoring slower than the
    /// paper's 650 µs), so it only needs bucket-level accuracy.
    pub fn count_above(&self, threshold: u64) -> f64 {
        let mut total = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(i);
            if lo > threshold {
                total += c as f64;
            } else if hi > threshold + 1 {
                // Bucket straddles the threshold: values live in [lo, hi),
                // the ones above are [threshold+1, hi).
                let frac = (hi - threshold - 1) as f64 / (hi - lo) as f64;
                total += c as f64 * frac.clamp(0.0, 1.0);
            }
        }
        total
    }

    /// Project onto a linear-bin [`desh_util::Histogram`] over `[lo, hi)`
    /// (same under/overflow semantics), e.g. for text rendering.
    pub fn to_linear(&self, lo: f64, hi: f64, bins: usize) -> desh_util::Histogram {
        let mut h = desh_util::Histogram::new(lo, hi, bins);
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                let (blo, bhi) = bucket_bounds(i);
                h.push_n((blo as f64 + bhi as f64) / 2.0, c);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        let shared = Gauge::new();
        assert!(!shared.is_set());
        shared.add(3.0);
        shared.add(4.0);
        shared.add(-1.0);
        assert!(shared.is_set());
        assert_eq!(shared.get(), 6.0);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert_eq!((lo, hi), (v, v + 1));
        }
    }

    #[test]
    fn small_values_report_exact_quantiles_and_max() {
        // 4,854 samples that are all 1 (one wave width per event) read
        // back as 1 at every quantile and as the max.
        let h = LatencyHistogram::new();
        for _ in 0..4854 {
            h.record(1);
        }
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 1.0, "q {q}");
        }
        assert_eq!((s.min(), s.max()), (1, 1));
        // A single sample is its own median.
        let h = LatencyHistogram::new();
        h.record(7);
        let s = h.snapshot();
        assert_eq!((s.quantile(0.5), s.max()), (7.0, 7));
        // Mixed small values keep exact order statistics.
        let h = LatencyHistogram::new();
        for v in [0u64, 3, 3, 15] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(1.0), 15.0);
        assert_eq!(s.max(), 15);
        // From 16 up, the max stays its bucket's exclusive upper bound.
        h.record(16);
        assert_eq!(h.snapshot().max(), bucket_bounds(bucket_index(16)).1);
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [
            16u64,
            17,
            100,
            650,
            1000,
            4096,
            1 << 20,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            // The topmost bucket's exclusive bound saturates at u64::MAX,
            // which makes it effectively inclusive there.
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "v={v} i={i} lo={lo} hi={hi}"
            );
        }
    }

    #[test]
    fn buckets_tile_without_gaps() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(
                bucket_bounds(i).1,
                bucket_bounds(i + 1).0,
                "gap at bucket {i}"
            );
        }
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.25, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.25, "p99 {p99}");
        assert!(s.quantile(0.0) >= 1.0);
        assert!((s.mean() - 500.5).abs() < 0.01);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn merge_sums_counts() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(10);
        b.record(10);
        b.record(1000);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 1020);
    }

    #[test]
    fn count_above_splits_at_threshold() {
        let h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 10, 15] {
            h.record(v);
        }
        let s = h.snapshot();
        // Exact buckets below 16: the split is precise.
        assert_eq!(s.count_above(0), 5.0);
        assert_eq!(s.count_above(3), 2.0);
        assert_eq!(s.count_above(15), 0.0);
        // Log-scale region: a value far above the threshold counts fully,
        // one far below not at all.
        let h = LatencyHistogram::new();
        h.record(100);
        h.record(100_000);
        let s = h.snapshot();
        assert_eq!(s.count_above(650), 1.0);
        assert_eq!(s.count_above(1_000_000), 0.0);
    }

    #[test]
    fn to_linear_preserves_mass() {
        let h = LatencyHistogram::new();
        for v in [5u64, 7, 200, 9000] {
            h.record(v);
        }
        let lin = h.snapshot().to_linear(0.0, 1000.0, 10);
        assert_eq!(lin.count(), 4);
        assert_eq!(lin.overflow(), 1);
    }
}
