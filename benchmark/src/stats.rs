//! Small statistics and hashing helpers.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median, third quartile — the arithmetic of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the benchmark's acceptance spread is defined with. A single value is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // may be negative or exceed 4 at the clamped ends: Python extrapolates
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// p50 and p999 of picosecond latencies, in microseconds. Sorts in place.
pub fn p50_p999_us(latencies_ps: &mut [u64]) -> (f64, f64) {
    latencies_ps.sort_unstable();
    let us = |ps: u64| ps as f64 / 1e6;
    (
        us(percentile(latencies_ps, 0.5)),
        us(percentile(latencies_ps, 0.999)),
    )
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the FNV-1a state `h`.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a of one byte string.
pub fn fnv_of(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, bytes);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        // two samples extrapolate, as Python does: quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[2.0, 4.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&[9], 0.999), 9);
    }
}
