//! Measurement primitives: latency histograms and throughput meters.
//!
//! Every experiment in the reproduction reports either a latency
//! distribution (Figures 11, 12, 20) or a sustained throughput (Figures 11,
//! 13, 16–19, 21); these types are the shared instrumentation the device
//! models record into.

use std::fmt;

use crate::time::SimTime;

/// A log-bucketed latency histogram with percentile queries.
///
/// Buckets are `(exponent, 16 linear sub-buckets)` over nanosecond values,
/// giving a bounded relative error (< ~6%) at any magnitude from 1 ns to
/// hours — good enough to report p50/p99 storage latencies without storing
/// every sample.
///
/// # Examples
///
/// ```rust
/// use bluedbm_sim::stats::Histogram;
/// use bluedbm_sim::time::SimTime;
///
/// let mut h = Histogram::default();
/// for us in [50, 55, 60, 500] {
///     h.record(SimTime::us(us));
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.5) >= SimTime::us(50));
/// assert!(h.percentile(1.0) >= SimTime::us(450)); // the 500 us bucket
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    // Index = bucket; value = count. Bucket for value v (in ns):
    // v < 16 -> v; otherwise 16 linear sub-buckets per power of two.
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    /// An empty histogram; its minimum starts at `u64::MAX` so the first
    /// sample sets it.
    fn default() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

const SUB: u64 = 16;

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() as u64; // floor(log2(ns)), >= 4
    let sub = (ns >> (exp - 4)) & (SUB - 1);
    ((exp - 3) * SUB + sub) as usize
}

fn bucket_lower_bound(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let exp = idx / SUB + 3;
    let sub = idx % SUB;
    (1 << exp) + (sub << (exp - 4))
}

impl Histogram {
    /// Record one latency sample.
    pub fn record(&mut self, t: SimTime) {
        let ns = t.as_ns();
        let idx = bucket_of(ns);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::ns((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Exact minimum sample (zero when empty).
    pub(crate) fn min(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::ns(self.min_ns)
        }
    }

    /// Exact maximum sample (zero when empty).
    pub(crate) fn max(&self) -> SimTime {
        SimTime::ns(self.max_ns)
    }

    /// Approximate `p`-th percentile (`p` in `[0, 1]`), as the lower bound
    /// of the bucket containing that rank. Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> SimTime {
        assert!((0.0..=1.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimTime::ns(bucket_lower_bound(idx));
            }
        }
        SimTime::ns(self.max_ns)
    }

    /// Write the sample count and the fixed percentile points the
    /// metrics registry reports, in picoseconds, as leaves of `node`.
    pub fn fill_metrics(&self, node: &mut bluedbm_trace::MetricsNode) {
        node.set("count", self.count);
        node.set("mean_ps", self.mean().as_ps());
        node.set("min_ps", self.min().as_ps());
        node.set("max_ps", self.max().as_ps());
        node.set("p50_ps", self.percentile(0.50).as_ps());
        node.set("p99_ps", self.percentile(0.99).as_ps());
        node.set("p999_ps", self.percentile(0.999).as_ps());
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(0.50),
            self.percentile(0.99),
            self.max()
        )
    }
}

/// Completion meter: operations and the bytes they moved.
///
/// # Examples
///
/// ```rust
/// use bluedbm_sim::stats::Throughput;
///
/// let mut tp = Throughput::default();
/// tp.record(1_000_000);
/// tp.record(1_000_000);
/// assert_eq!((tp.ops(), tp.total_bytes()), (2, 2_000_000));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Throughput {
    bytes: u64,
    ops: u64,
}

impl Throughput {
    /// Record one operation that moved `bytes`.
    pub fn record(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.ops += 1;
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Total operations recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_ordering() {
        // Bucket lower bounds must be monotone and bucket_of must map each
        // lower bound to its own bucket.
        let mut prev = 0;
        for idx in 0..400 {
            let lb = bucket_lower_bound(idx);
            assert!(lb >= prev, "lower bounds must be monotone");
            assert_eq!(bucket_of(lb), idx, "lb {lb} should land in bucket {idx}");
            prev = lb;
        }
    }

    #[test]
    fn histogram_relative_error_bounded() {
        let mut h = Histogram::default();
        let v = SimTime::us(57); // 57_000 ns, deep in log territory
        h.record(v);
        let p = h.percentile(0.5);
        let err = (v.as_ns() as f64 - p.as_ns() as f64).abs() / v.as_ns() as f64;
        assert!(err < 0.0625, "relative error {err} too large");
    }

    #[test]
    fn histogram_percentiles_ordered() {
        let mut h = Histogram::default();
        for i in 1..=1000u64 {
            h.record(SimTime::us(i));
        }
        let p50 = h.percentile(0.5);
        let p90 = h.percentile(0.9);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p50 >= SimTime::us(450) && p50 <= SimTime::us(550));
        assert!(p99 >= SimTime::us(900));
        assert_eq!(h.min(), SimTime::us(1));
        assert_eq!(h.max(), SimTime::us(1000));
    }

    #[test]
    fn histogram_empty_behaviour() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.percentile(0.99), SimTime::ZERO);
        assert_eq!(h.min(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn histogram_percentile_validates() {
        Histogram::default().percentile(1.5);
    }

    #[test]
    fn histogram_display_is_nonempty() {
        let mut h = Histogram::default();
        h.record(SimTime::us(50));
        let s = h.to_string();
        assert!(s.contains("n=1"));
    }

    #[test]
    fn throughput_rates() {
        let mut tp = Throughput::default();
        for _ in 0..10 {
            tp.record(8192);
        }
        assert_eq!(tp.total_bytes(), 81_920);
        assert_eq!(tp.ops(), 10);
    }
}
