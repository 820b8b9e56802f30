//! Deterministic pseudo-randomness for the simulation kernel.
//!
//! The kernel must be reproducible run-to-run, so it carries its own small
//! PRNG (xoshiro256** seeded via SplitMix64) rather than depending on an
//! external crate with thread-local state. Workload *generators* in
//! `bluedbm-workloads` may use `rand`; device models use this.

use std::fmt;

/// A seedable, deterministic PRNG (xoshiro256**).
///
/// # Examples
///
/// ```rust
/// use bluedbm_sim::rng::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl fmt::Debug for Rng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rng").finish_non_exhaustive()
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; the internal state is expanded with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent child generator (for per-component streams).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` (Lemire's method, debiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Debiased multiply-shift.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Fill `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// A Zipf(n, s) sampler over `{0, 1, .., n-1}` using inverse-CDF lookup.
///
/// Power-law popularity is the access pattern of the paper's motivating
/// workloads (social graphs, twitter feeds); the graph generator uses this
/// to produce skewed degree distributions.
///
/// # Examples
///
/// ```rust
/// use bluedbm_sim::rng::{Rng, Zipf};
///
/// let mut rng = Rng::new(7);
/// let zipf = Zipf::new(1000, 1.0);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero elements");
        assert!(s.is_finite() && s >= 0.0, "invalid Zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank (0 = most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit_f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = Rng::new(124);
        assert_ne!(va[0], c.next_u64());
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut rng = Rng::new(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn unit_f64_in_unit_interval_with_sane_mean() {
        let mut rng = Rng::new(3);
        let mut sum = 0.0;
        const N: usize = 20_000;
        for _ in 0..N {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "got {hits}");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = Rng::new(6);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // Probability all 13 bytes are zero is negligible.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn fork_streams_diverge() {
        let mut parent = Rng::new(9);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = Rng::new(10);
        let zipf = Zipf::new(100, 1.0);
        let mut counts = [0u32; 100];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
        // Rank 0 of Zipf(100, 1.0) has probability 1/H(100) ~ 0.192.
        let p0 = counts[0] as f64 / 50_000.0;
        assert!((p0 - 0.192).abs() < 0.02, "p0 = {p0}");
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        let mut rng = Rng::new(11);
        let zipf = Zipf::new(10, 0.0);
        let mut counts = [0u32; 10];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let p = c as f64 / 50_000.0;
            assert!((p - 0.1).abs() < 0.02, "p = {p}");
        }
        assert_eq!(zipf.cdf.len(), 10);
    }
}
