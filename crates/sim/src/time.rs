//! Simulated time and bandwidth arithmetic.
//!
//! Time is kept in integer **picoseconds** so that the smallest interesting
//! quantum in the BlueDBM model — a 16-byte (128-bit) flit crossing a
//! 10 Gbps serial link, i.e. 12.8 ns — is represented exactly and accrues
//! no rounding error over millions of flits. A `u64` of picoseconds covers
//! about 213 days of simulated time, far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic operators treat it uniformly (this mirrors how hardware
/// models compute `ready_at = now + service_time`).
///
/// # Examples
///
/// ```rust
/// use bluedbm_sim::time::SimTime;
///
/// let hop = SimTime::ns(480);
/// assert_eq!(hop * 5, SimTime::us(2) + SimTime::ns(400));
/// assert_eq!(SimTime::us(1).as_ns(), 1_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant / empty duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from picoseconds.
    #[inline]
    pub const fn ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time in seconds: {s}");
        SimTime((s * 1e12).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns [`SimTime::ZERO`] instead of
    /// underflowing.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub(crate) fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("SimTime overflow"))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.6}s", ps as f64 / 1e12)
        }
    }
}

/// A data rate, stored as bytes per second.
///
/// Used by every device model to convert transfer sizes into service times:
/// the 10 Gbps serial links, the 1.6 GB/s PCIe DMA path, per-bus NAND
/// transfer rates, and so on.
///
/// # Examples
///
/// ```rust
/// use bluedbm_sim::time::{Bandwidth, SimTime};
///
/// let link = Bandwidth::gbits(10.0);
/// // A 128-bit flit takes exactly 12.8 ns at 10 Gbps.
/// assert_eq!(link.time_for(16), SimTime::ps(12_800));
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// From raw bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not finite and positive.
    #[inline]
    pub fn bytes_per_sec(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "invalid bandwidth: {bytes_per_sec}"
        );
        Bandwidth(bytes_per_sec)
    }

    /// From gigabits per second (network convention, 10^9 bits).
    #[inline]
    pub fn gbits(gbps: f64) -> Self {
        Self::bytes_per_sec(gbps * 1e9 / 8.0)
    }

    /// From gigabytes per second (10^9 bytes — the convention the paper
    /// uses for flash and PCIe throughput).
    #[inline]
    pub fn gb(gb_per_sec: f64) -> Self {
        Self::bytes_per_sec(gb_per_sec * 1e9)
    }

    /// From megabytes per second (10^6 bytes).
    #[inline]
    pub fn mb(mb_per_sec: f64) -> Self {
        Self::bytes_per_sec(mb_per_sec * 1e6)
    }

    /// The rate in bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// The rate in gigabits per second.
    #[inline]
    pub fn as_gbits(self) -> f64 {
        self.0 * 8.0 / 1e9
    }

    /// The rate in gigabytes per second.
    #[inline]
    pub fn as_gb(self) -> f64 {
        self.0 / 1e9
    }

    /// Time to move `bytes` at this rate, rounded to the nearest
    /// picosecond.
    #[inline]
    pub fn time_for(self, bytes: u64) -> SimTime {
        // Float math feeding simulated time, on purpose: f64 has 53 exact
        // mantissa bits — deterministic for every reachable byte count,
        // and conformance digests are pinned to this formula.
        SimTime::ps((bytes as f64 * 1e12 / self.0).round() as u64)
    }

    /// Scale the rate by a dimensionless factor (e.g. protocol efficiency).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[inline]
    pub fn scale(self, factor: f64) -> Bandwidth {
        Self::bytes_per_sec(self.0 * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2}GB/s", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2}MB/s", self.0 / 1e6)
        } else {
            write!(f, "{:.0}B/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::ns(1), SimTime::ps(1_000));
        assert_eq!(SimTime::us(1), SimTime::ns(1_000));
        assert_eq!(SimTime::ms(1), SimTime::us(1_000));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "exercises the float bridge itself")]
    fn float_round_trips() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t, SimTime::ms(1_500));
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::us(3);
        let b = SimTime::us(2);
        assert_eq!(a + b, SimTime::us(5));
        assert_eq!(a - b, SimTime::us(1));
        assert_eq!(b * 4, SimTime::us(8));
        assert_eq!(a / 3, SimTime::us(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::us(1) - SimTime::us(2);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(SimTime::us).sum();
        assert_eq!(total, SimTime::us(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::ZERO.to_string(), "0s");
        assert_eq!(SimTime::ps(500).to_string(), "500ps");
        assert_eq!(SimTime::ns(480).to_string(), "480.000ns");
        assert_eq!(SimTime::us(50).to_string(), "50.000us");
        assert_eq!(SimTime::ms(3).to_string(), "3.000ms");
        assert_eq!(SimTime::ms(2_000).to_string(), "2.000000s");
    }

    #[test]
    fn flit_time_is_exact() {
        // The load-bearing case for picosecond resolution: a 128-bit flit
        // at 10 Gbps must serialize in exactly 12.8 ns.
        assert_eq!(Bandwidth::gbits(10.0).time_for(16), SimTime::ps(12_800));
    }

    #[test]
    fn bandwidth_units() {
        let pcie = Bandwidth::gb(1.6);
        assert!((pcie.as_gb() - 1.6).abs() < 1e-12);
        assert!((Bandwidth::gbits(10.0).as_gbits() - 10.0).abs() < 1e-12);
        assert_eq!(
            Bandwidth::mb(600.0).time_for(600_000_000),
            SimTime::ms(1_000)
        );
    }

    #[test]
    fn bandwidth_scale() {
        let raw = Bandwidth::gbits(10.0);
        let goodput = raw.scale(0.82);
        assert!((goodput.as_gbits() - 8.2).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::gb(2.4).to_string(), "2.40GB/s");
        assert_eq!(Bandwidth::mb(600.0).to_string(), "600.00MB/s");
    }

    #[test]
    fn page_transfer_times_match_paper_envelope() {
        // An 8 KiB page over one 1.2 GB/s flash card: ~6.8 us.
        let card = Bandwidth::gb(1.2);
        let t = card.time_for(8192);
        assert!(t > SimTime::us(6) && t < SimTime::us(7));
    }
}
