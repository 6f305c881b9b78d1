//! Order statistics used by every workload: the percentile rule, the
//! median-of-segments estimator for wall-clock rates, and quartiles.

/// Candidate tail percentiles, ascending, each with the reciprocal of
/// the share of samples beyond it (p99 leaves 1 in 100 beyond).
const TAILS: [(f64, usize); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAILS`] with at least [`MIN_BEYOND`]
/// samples beyond it in a sample of `n`; `None` when even the median
/// is unsupported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .find(|(_, one_in)| n >= MIN_BEYOND * one_in)
        .map(|(p, _)| *p)
}

/// Nearest-rank percentile of an ascending sample (`p` in `(0, 100]`).
///
/// # Panics
///
/// Panics on an empty sample: a workload that measured nothing is a bug.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and p99 of a latency sample, plus its size. p99 needs
/// 1 000 samples under the ≥ 10-beyond rule; smaller samples are a
/// sizing bug, reported by the caller through `supported`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub p50: u64,
    pub p99: u64,
    pub samples: usize,
    /// Whether p99 has ≥ 10 samples beyond it.
    pub supported: bool,
    /// The highest percentile the sample supports, and its value.
    pub tail: (f64, u64),
}

/// Summarise an unsorted latency sample.
pub fn summarize(latencies: &[u64]) -> LatencySummary {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let tail_p = highest_supported_percentile(sorted.len()).unwrap_or(50.0);
    LatencySummary {
        p50: percentile(&sorted, 50.0),
        p99: percentile(&sorted, 99.0),
        samples: sorted.len(),
        supported: tail_p >= 99.0,
        tail: (tail_p, percentile(&sorted, tail_p)),
    }
}

/// Quartiles `(q1, median, q3)` by the exclusive method — the values
/// Python's `statistics.quantiles(values, n=4)` returns, so the
/// benchmark and the driver agree on what "spread" means.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len();
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len();
    assert!(m > 0, "median of an empty sample");
    if m % 2 == 1 {
        v[m / 2]
    } else {
        (v[m / 2 - 1] + v[m / 2]) / 2.0
    }
}

/// A wall-clock rate estimated from equal-op-count segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentRate {
    /// Median segment rate, ops per wall second.
    pub median: f64,
    /// Inter-quartile range of the segment rates as a share of the median.
    pub iqr_share: f64,
    /// Measured segments (the warm-up segment is not counted).
    pub segments: usize,
}

/// Ops per wall-second from segment boundary timestamps (ns since any
/// fixed origin): `marks` holds `segments + 1` boundaries of back-to-back
/// segments. See [`segment_rate_of`].
pub fn segment_rate(marks_ns: &[u64], ops_per_segment: u64) -> SegmentRate {
    let durations: Vec<u64> = marks_ns.windows(2).map(|w| w[1] - w[0]).collect();
    segment_rate_of(&durations, ops_per_segment)
}

/// Ops per wall-second from the wall durations of equal-op-count
/// segments. The **first** segment is the warm-up and is discarded.
/// Single shots on this host do not repeat within a tenth, so the
/// estimate is the median segment, with the spread beside it.
///
/// # Panics
///
/// Panics unless there is a warm-up and at least one measured segment.
pub fn segment_rate_of(durations_ns: &[u64], ops_per_segment: u64) -> SegmentRate {
    assert!(
        durations_ns.len() >= 2,
        "need a warm-up segment and at least one measured segment"
    );
    let rates: Vec<f64> = durations_ns[1..]
        .iter()
        .map(|&d| ops_per_segment as f64 * 1e9 / d.max(1) as f64)
        .collect();
    let med = median(&rates);
    let iqr_share = if rates.len() >= 2 {
        let (q1, _, q3) = quartiles(&rates);
        (q3 - q1) / med
    } else {
        0.0
    };
    SegmentRate {
        median: med,
        iqr_share,
        segments: rates.len(),
    }
}

/// Order-sensitive 64-bit fold, used for `sim_fingerprint` and for the
/// serving oracle's incremental value hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold(pub u64);

impl Fold {
    pub const INIT: Fold = Fold(0x9E37_79B9_7F4A_7C15);

    #[inline]
    pub fn push(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(7) ^ word).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    }

    /// Fold a byte string eight bytes at a time (tail zero-padded; the
    /// length is not mixed in, so folding `a` then `b` equals folding
    /// `a ‖ b` whenever `a.len()` is a multiple of eight).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.push(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.push(u64::from_le_bytes(w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 leaves 1 % beyond: exactly 1 000 samples give 10.
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&[7], 99.0), 7);
        let s = summarize(&[5, 1, 3]);
        assert_eq!((s.p50, s.p99, s.samples, s.supported), (3, 5, 3, false));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn segment_median_discards_the_warm_up() {
        // 1 000 ops per segment. Warm-up takes 10 s (a cold first
        // segment), the measured ones 1 s, 2 s, 1 s, 1 s, 4 s.
        let s = 1_000_000_000u64;
        let marks = [0, 10 * s, 11 * s, 13 * s, 14 * s, 15 * s, 19 * s];
        let r = segment_rate(&marks, 1_000);
        assert_eq!(r.segments, 5);
        assert_eq!(r.median, 1_000.0, "median segment, not the mean");
        assert!(r.iqr_share > 0.0);
        // The cold segment would have dragged a mean down to < 320/s.
        let mean = 6_000.0 / 19.0;
        assert!(mean < 320.0);
    }

    #[test]
    fn fold_is_order_sensitive_and_append_consistent() {
        let (mut a, mut b) = (Fold::INIT, Fold::INIT);
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a, b);
        let (mut whole, mut parts) = (Fold::INIT, Fold::INIT);
        whole.push_bytes(&[9u8; 32]);
        parts.push_bytes(&[9u8; 16]);
        parts.push_bytes(&[9u8; 16]);
        assert_eq!(whole, parts);
    }
}
