//! Vendored deterministic PRNG.
//!
//! The hermetic build bans the `rand` crate, so the simulator carries its
//! own small generator: SplitMix64 (Steele, Lea & Flood, OOPSLA '14) for
//! seeding and sequence generation, with an xorshift-style output mix. It
//! is *not* cryptographic — it exists to make fault schedules and test
//! case generation reproducible from a single `u64` seed.

/// A seedable SplitMix64 generator.
///
/// Identical seeds produce identical sequences on every platform, which is
/// what fault-injection replay and the deterministic property tests need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from an explicit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is at most
    /// `bound / 2^64`, negligible for simulator-sized bounds.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below bound must be non-zero");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)` (half-open range). `lo < hi` required.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        debug_assert!(range.start < range.end, "empty gen_range");
        range.start + self.next_below(range.end - range.start)
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// A uniformly random bool.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn gen_ratio(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// Fill `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// A fresh random byte vector of length `len`.
    pub fn gen_bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill_bytes(&mut v);
        v
    }

    /// Split off an independent child generator (for sub-streams that must
    /// not perturb the parent's sequence).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

/// A Zipf-distributed sampler over `{0, 1, …, n-1}` with rank `i` drawn
/// proportionally to `(i + 1)^-skew` — the canonical skewed page/key
/// popularity model for tiering and caching experiments.
///
/// The CDF is precomputed once (`O(n)` memory, `O(log n)` per sample via
/// binary search), and sampling consumes exactly one [`SplitMix64`] draw,
/// so zipfian workloads replay deterministically from a seed.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `skew` (`skew = 0` is
    /// uniform; `skew ≈ 1` is the classic heavy-skew web/page workload).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `skew` is negative/non-finite.
    pub fn new(n: usize, skew: f64) -> Self {
        assert!(n > 0, "zipf domain must be non-empty");
        assert!(
            skew >= 0.0 && skew.is_finite(),
            "zipf skew must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-skew);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks in the domain.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the domain is empty (never true: `new` rejects `n = 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one rank in `[0, n)` using a single uniform draw from `rng`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        // 53-bit uniform in [0, 1) — the standard double conversion.
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SplitMix64::new(0xF1AC);
        let mut b = SplitMix64::new(0xF1AC);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference output of SplitMix64 for seed 1234567, as published in
        // the xoshiro/splitmix reference implementation's test vectors.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let v = r.gen_range(10..20);
            assert!((10..20).contains(&v));
            assert!(r.gen_index(7) < 7);
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.gen_index(4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_bytes_is_deterministic_and_nonconstant() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        let (va, vb) = (a.gen_bytes(33), b.gen_bytes(33));
        assert_eq!(va, vb);
        assert!(va.iter().any(|&x| x != va[0]), "bytes should vary");
    }

    #[test]
    fn gen_ratio_extremes() {
        let mut r = SplitMix64::new(8);
        assert!((0..50).all(|_| !r.gen_ratio(0.0)));
        assert!((0..50).all(|_| r.gen_ratio(1.0)));
    }

    #[test]
    fn zipf_concentrates_mass_on_low_ranks() {
        let zipf = Zipf::new(512, 0.99);
        let mut rng = SplitMix64::new(0x0F1A_C21F);
        let mut top64 = 0u64;
        const DRAWS: u64 = 20_000;
        for _ in 0..DRAWS {
            let r = zipf.sample(&mut rng);
            assert!(r < 512);
            if r < 64 {
                top64 += 1;
            }
        }
        // Analytically H(64)/H(512) ≈ 0.61 at skew 0.99; allow slack.
        assert!(
            top64 > DRAWS / 2,
            "top-64 ranks got only {top64}/{DRAWS} draws"
        );
    }

    #[test]
    fn zipf_is_deterministic() {
        let zipf = Zipf::new(100, 0.99);
        let draw = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            (0..50).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_skew_zero_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = SplitMix64::new(3);
        let mut seen = [0u64; 4];
        for _ in 0..4000 {
            seen[zipf.sample(&mut rng)] += 1;
        }
        for (rank, &count) in seen.iter().enumerate() {
            assert!(
                (700..=1300).contains(&count),
                "rank {rank} drew {count}/4000 — not uniform"
            );
        }
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = SplitMix64::new(11);
        let mut child = parent.split();
        let after_split = parent.next_u64();
        // Re-derive: the child must not have consumed parent state beyond
        // the single split draw.
        let mut parent2 = SplitMix64::new(11);
        let _ = parent2.split();
        assert_eq!(parent2.next_u64(), after_split);
        let _ = child.next_u64();
    }
}
