//! Streaming quantile sketch: a log-spaced histogram for memory-flat
//! latency summaries.
//!
//! The online serving driver must summarize millions of latencies
//! without holding them: this sketch buckets values on a geometric
//! grid with growth factor [`GROWTH`] over `[1 ns, 1e9 s]`, so any
//! reported quantile is the geometric midpoint of its bucket and lies
//! within **√GROWTH − 1 ≈ 0.995% < 1% relative error** of the exact
//! order statistic. Count and sum are tracked exactly (the mean is
//! exact), as are the minimum and maximum, and quantile answers are
//! clamped into `[min, max]`.
//!
//! Only the window of buckets between the lowest and highest one
//! recorded so far is stored, so the sketch is sized by the spread of
//! its values, not their number: latencies spanning two decades hold
//! ~230 counters (~2 KiB; growth reserves less than twice the window),
//! and no sketch ever reserves more than the full grid's [`BUCKETS`]
//! counters (~16 KiB). Every answer is the one the full grid gives, bit
//! for bit.
//!
//! Quantiles follow the workspace's one percentile rule, the ceil rank
//! [`ceil_rank`] (`k = clamp(⌈p·n⌉, 1, n)`), which [`percentile_sorted`]
//! applies to exact samples, so with streaming off and on, the *same*
//! order statistic is being estimated.

/// 1-based ceil rank of percentile `p` among `n ≥ 1` samples:
/// `clamp(⌈p·n⌉, 1, n)`.
#[inline]
pub fn ceil_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Ceil-rank percentile over an ascending-sorted slice (0 when empty):
/// the exact order statistic [`LatencySketch::quantile`] estimates.
#[inline]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[ceil_rank(sorted.len(), p) - 1]
}

/// Geometric bucket growth factor. Relative quantile error is bounded
/// by `sqrt(GROWTH) - 1` (≈ 0.995%).
pub const GROWTH: f64 = 1.02;

/// Smallest representable value, seconds (1 ns). Values below clamp
/// into the first bucket.
pub(crate) const MIN_VALUE: f64 = 1.0e-9;

/// Largest representable value, seconds. Values above clamp into the
/// last bucket.
pub(crate) const MAX_VALUE: f64 = 1.0e9;

/// Number of geometric buckets covering `[MIN_VALUE, MAX_VALUE]`:
/// `ceil(ln(MAX/MIN) / ln(GROWTH))` at the constants above
/// (`ln(1e18) / ln(1.02)` ≈ 2092.99).
pub const BUCKETS: usize = 2093;

/// Grid bucket holding `v`, clamped to the covered range.
fn bucket_of(v: f64) -> usize {
    if v.is_nan() || v <= MIN_VALUE {
        return 0;
    }
    let i = ((v / MIN_VALUE).ln() / GROWTH.ln()).floor() as usize;
    i.min(BUCKETS - 1)
}

/// A log-spaced histogram over positive latencies, stored as the window
/// of grid buckets its values have reached.
///
/// Records are `O(1)` (amortized over the window's doubling growth);
/// quantiles are one pass over the window. See the module docs for the
/// error bound.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySketch {
    /// Counts of grid buckets `lo..lo + counts.len()`, empty until the
    /// first record; grid bucket `i` covers
    /// `[MIN_VALUE·GROWTH^i, MIN_VALUE·GROWTH^(i+1))`.
    counts: Vec<u64>,
    /// Grid index of `counts[0]`.
    lo: usize,
    /// Total values recorded (exact).
    count: u64,
    /// Sum of recorded values (exact mean numerator).
    sum: f64,
    /// Exact minimum recorded value.
    min: f64,
    /// Exact maximum recorded value.
    max: f64,
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySketch {
    /// An empty sketch; it allocates nothing until the first record.
    pub fn new() -> Self {
        LatencySketch {
            counts: Vec::new(),
            lo: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Widens the window to cover grid buckets `lo..=hi`. Capacity
    /// doubles, clamped to the full grid, so it never exceeds
    /// [`BUCKETS`].
    fn cover(&mut self, lo: usize, hi: usize) {
        let n = self.counts.len();
        let (new_lo, new_hi) = if n == 0 {
            (lo, hi)
        } else {
            (lo.min(self.lo), hi.max(self.lo + n - 1))
        };
        let len = new_hi - new_lo + 1;
        if len > self.counts.capacity() {
            let cap = len.max(2 * self.counts.capacity()).min(BUCKETS);
            self.counts.reserve_exact(cap - n);
        }
        self.counts.resize(len, 0);
        if n > 0 {
            // Buckets below the old window were appended: move them
            // to the front.
            self.counts.rotate_right(self.lo - new_lo);
        }
        self.lo = new_lo;
    }

    /// Records one value. Non-finite and negative values clamp to the
    /// range edges (latencies are non-negative by construction).
    pub fn record(&mut self, v: f64) {
        let v = if v.is_finite() { v } else { MAX_VALUE };
        let idx = bucket_of(v);
        // One unsigned compare tests both sides of the window.
        let mut at = idx.wrapping_sub(self.lo);
        if at >= self.counts.len() {
            self.cover(idx, idx);
            at = idx - self.lo;
        }
        self.counts[at] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value (0 when empty).
    #[cfg(test)]
    pub(crate) fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The `p`-quantile (`p ∈ [0, 1]`) under the ceil-rank rule
    /// `k = clamp(⌈p·n⌉, 1, n)`: the geometric midpoint of the bucket
    /// holding the k-th smallest value, clamped into `[min, max]`.
    /// Relative error vs. the exact order statistic is ≤
    /// `sqrt(GROWTH) - 1` (≈ 0.995%). Returns 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let k = ceil_rank(self.count as usize, p) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= k {
                let mid = MIN_VALUE * GROWTH.powf((self.lo + i) as f64 + 0.5);
                return mid.clamp(self.min, self.max);
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn bucket_count_is_the_grid_formula() {
        assert_eq!(
            ((MAX_VALUE / MIN_VALUE).ln() / GROWTH.ln()).ceil() as usize,
            BUCKETS
        );
    }

    #[test]
    fn empty_sketch_reports_zeroes() {
        let s = LatencySketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.counts.capacity(), 0, "an empty sketch allocates nothing");
    }

    #[test]
    fn single_value_is_recovered_within_bound() {
        let mut s = LatencySketch::new();
        s.record(3.7);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.7);
        assert_eq!(s.max(), 3.7);
        let q = s.quantile(0.5);
        assert!((q - 3.7).abs() / 3.7 <= GROWTH.sqrt() - 1.0);
    }

    #[test]
    fn quantiles_match_exact_within_one_percent() {
        let mut s = LatencySketch::new();
        let mut vals: Vec<f64> = (1..=10_000)
            .map(|i| 0.001 * (i as f64) * (1.0 + 0.3 * ((i * 7) % 13) as f64))
            .collect();
        for &v in &vals {
            s.record(v);
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &p in &[0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0] {
            let exact = percentile_sorted(&vals, p);
            let approx = s.quantile(p);
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= 0.01,
                "p={p}: exact {exact}, sketch {approx}, rel err {rel}"
            );
        }
    }

    #[test]
    fn mean_count_max_are_exact() {
        let mut s = LatencySketch::new();
        let vals = [0.5, 1.5, 2.5, 10.0];
        for &v in &vals {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), vals.iter().sum::<f64>() / 4.0);
        assert_eq!(s.max(), 10.0);
        assert_eq!(s.min(), 0.5);
    }

    #[test]
    fn out_of_range_values_clamp_without_panic() {
        let mut s = LatencySketch::new();
        s.record(0.0);
        s.record(-1.0);
        s.record(1.0e12);
        s.record(f64::NAN);
        assert_eq!(s.count(), 4);
        assert!(s.quantile(0.5).is_finite());
        assert!(s.quantile(1.0).is_finite());
    }

    #[test]
    fn quantile_is_clamped_into_observed_range() {
        let mut s = LatencySketch::new();
        s.record(5.0);
        s.record(5.0);
        assert!(s.quantile(0.0) >= 5.0 * (1.0 - 0.01));
        assert!(s.quantile(1.0) <= 5.0 * (1.0 + 0.01));
        assert!(s.quantile(1.0) >= s.quantile(0.0));
    }

    #[test]
    fn storage_follows_the_spread_not_the_count() {
        // A hundred thousand serving-scale latencies, 10 ms to 10 s:
        // three decades of grid, a sixth of its buckets.
        let mut s = LatencySketch::new();
        for i in 0..100_000u64 {
            s.record(0.01 * 1000f64.powf((i % 997) as f64 / 996.0));
        }
        assert_eq!(s.counts.len(), bucket_of(s.max()) - bucket_of(s.min()) + 1);
        assert!(s.counts.capacity() <= 2 * s.counts.len());
        assert!(s.counts.capacity() < BUCKETS / 4);
    }

    /// The fixed full-grid sketch the windowed one replaced, kept as
    /// its oracle.
    mod reference {
        use super::super::{GROWTH, MAX_VALUE, MIN_VALUE};

        fn bucket_count() -> usize {
            ((MAX_VALUE / MIN_VALUE).ln() / GROWTH.ln()).ceil() as usize
        }

        pub(super) struct LatencySketch {
            counts: Vec<u64>,
            count: u64,
            sum: f64,
            min: f64,
            max: f64,
        }

        impl LatencySketch {
            pub(super) fn new() -> Self {
                LatencySketch {
                    counts: vec![0; bucket_count()],
                    count: 0,
                    sum: 0.0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                }
            }

            fn bucket_of(&self, v: f64) -> usize {
                if v.is_nan() || v <= MIN_VALUE {
                    return 0;
                }
                let i = ((v / MIN_VALUE).ln() / GROWTH.ln()).floor() as usize;
                i.min(self.counts.len() - 1)
            }

            pub(super) fn record(&mut self, v: f64) {
                let v = if v.is_finite() { v } else { MAX_VALUE };
                let idx = self.bucket_of(v);
                self.counts[idx] += 1;
                self.count += 1;
                self.sum += v;
                if v < self.min {
                    self.min = v;
                }
                if v > self.max {
                    self.max = v;
                }
            }

            pub(super) fn count(&self) -> u64 {
                self.count
            }

            pub(super) fn mean(&self) -> f64 {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum / self.count as f64
                }
            }

            pub(super) fn max(&self) -> f64 {
                if self.count == 0 {
                    0.0
                } else {
                    self.max
                }
            }

            pub(super) fn min(&self) -> f64 {
                if self.count == 0 {
                    0.0
                } else {
                    self.min
                }
            }

            pub(super) fn quantile(&self, p: f64) -> f64 {
                if self.count == 0 {
                    return 0.0;
                }
                let k = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
                let mut cum = 0u64;
                for (i, &c) in self.counts.iter().enumerate() {
                    cum += c;
                    if cum >= k {
                        let mid = MIN_VALUE * GROWTH.powf(i as f64 + 0.5);
                        return mid.clamp(self.min, self.max);
                    }
                }
                self.max()
            }
        }
    }

    /// One value from anywhere the sketch can be fed: the edge cases
    /// that clamp (0, −0, negatives, NaN, ±∞, far outside the grid),
    /// exact bucket boundaries, and log-uniform spreads over the grid.
    fn arb_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(1e-12),
            Just(1e12),
            -1e3f64..0.0,
            (0..=BUCKETS).prop_map(|i| MIN_VALUE * GROWTH.powi(i as i32)),
            (-10.0f64..10.0).prop_map(|e| 10f64.powf(e)),
        ]
    }

    /// Value sets in random order: either anything [`arb_value`] yields
    /// or positive latencies over six decades, whose window grows both
    /// up and down as values arrive.
    fn arb_values() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            proptest::collection::vec(arb_value(), 0..48),
            proptest::collection::vec((-6.0f64..3.0).prop_map(|e| 10f64.powf(e)), 0..48),
        ]
    }

    /// Every answer of `s` is the oracle's, bit for bit.
    fn assert_answers_match(s: &LatencySketch, oracle: &reference::LatencySketch, p: f64) {
        assert_eq!(s.count(), oracle.count());
        assert_eq!(s.mean().to_bits(), oracle.mean().to_bits());
        assert_eq!(s.min().to_bits(), oracle.min().to_bits());
        assert_eq!(s.max().to_bits(), oracle.max().to_bits());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0, p] {
            assert_eq!(
                s.quantile(q).to_bits(),
                oracle.quantile(q).to_bits(),
                "quantile({q})"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The windowed sketch answers exactly what the full grid does,
        /// part-way and at the end, and never holds more than the grid.
        #[test]
        fn windowed_sketch_answers_like_the_full_grid(
            values in arb_values(),
            cut in 0.0f64..1.0,
            p in 0.0f64..1.0,
        ) {
            let mid = (cut * values.len() as f64) as usize;
            let mut s = LatencySketch::new();
            let mut oracle = reference::LatencySketch::new();
            for (i, &v) in values.iter().enumerate() {
                if i == mid {
                    assert_answers_match(&s, &oracle, p);
                }
                s.record(v);
                oracle.record(v);
                prop_assert!(s.counts.capacity() <= BUCKETS);
            }
            assert_answers_match(&s, &oracle, p);
        }
    }
}
