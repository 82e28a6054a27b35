//! Small numeric helpers: order statistics, the report digest, and the
//! calling thread's on-CPU clock.

/// Median, minimum, maximum and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarises `values` (the median of an even count is the mean of the
/// two middle values). `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Some(Summary {
        median,
        min: v[0],
        max: v[n - 1],
        n,
    })
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics. `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Run-to-run spread: interquartile distance as a share of the median
/// (0 for fewer than two samples or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (Some(q1), Some(q3), Some(s)) = (
        quantile(values, 0.25),
        quantile(values, 0.75),
        summarize(values),
    ) else {
        return 0.0;
    };
    if values.len() < 2 || s.median == 0.0 {
        0.0
    } else {
        (q3 - q1) / s.median.abs()
    }
}

/// FNV-1a 64 over the report bytes: two commits (or two thread counts,
/// or a sliced and an unsliced run) agree exactly iff their digests do.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Nanoseconds the calling thread has spent on a CPU, from the first
/// field of `/proc/thread-self/schedstat`; `None` where the file does
/// not exist (the `descheduled` flag is then never raised).
pub fn on_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_even_and_empty() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        // Quartiles of 1..=5 by interpolation are 2 and 4; median 3.
        let s = spread(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn digest_matches_fnv1a_reference_vectors() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(digest(b"report-1"), digest(b"report-2"));
    }
}
