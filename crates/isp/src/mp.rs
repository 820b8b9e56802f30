//! Morris-Pratt streaming string search (paper Section 7.3).
//!
//! The paper's string-search accelerator runs "in-store Morris-Pratt (MP)
//! string search engines fully integrated with the file system, flash
//! controller and application software", four engines per bus, each fed a
//! stream of pages. The matcher below is the exact MP automaton: a
//! precomputed failure function drives a state machine that consumes one
//! byte at a time, so matches that *straddle page boundaries* are found
//! naturally — the property that makes it suitable for streaming from
//! flash.

use crate::Accelerator;

/// Compute the Morris-Pratt failure function: `fail[i]` is the length of
/// the longest proper prefix of `pattern[..=i]` that is also a suffix.
///
/// # Panics
///
/// Panics if the pattern is empty.
pub(crate) fn failure_function(pattern: &[u8]) -> Vec<usize> {
    assert!(!pattern.is_empty(), "empty pattern");
    let mut fail = vec![0usize; pattern.len()];
    let mut k = 0;
    for i in 1..pattern.len() {
        while k > 0 && pattern[i] != pattern[k] {
            k = fail[k - 1];
        }
        if pattern[i] == pattern[k] {
            k += 1;
        }
        fail[i] = k;
    }
    fail
}

/// A streaming Morris-Pratt matcher.
///
/// See the [crate-level documentation](crate) for an example with a match
/// crossing a feed boundary.
#[derive(Clone, Debug)]
pub struct MpMatcher {
    pattern: Vec<u8>,
    fail: Vec<usize>,
    /// Automaton state: prefix length currently matched.
    state: usize,
    /// Absolute stream position (bytes consumed).
    pos: u64,
    /// Start offsets of matches found.
    matches: Vec<u64>,
    /// Bytes scanned.
    scanned: u64,
}

impl MpMatcher {
    /// A matcher for `pattern` (the "needle"); `None` if the pattern is
    /// empty.
    pub fn new(pattern: &[u8]) -> Option<Self> {
        if pattern.is_empty() {
            return None;
        }
        Some(MpMatcher {
            fail: failure_function(pattern),
            pattern: pattern.to_vec(),
            state: 0,
            pos: 0,
            matches: Vec::new(),
            scanned: 0,
        })
    }

    /// Consume a chunk of the haystack (any size; page-at-a-time in the
    /// real system).
    pub fn feed(&mut self, chunk: &[u8]) {
        for &byte in chunk {
            while self.state > 0 && byte != self.pattern[self.state] {
                self.state = self.fail[self.state - 1];
            }
            if byte == self.pattern[self.state] {
                self.state += 1;
            }
            self.pos += 1;
            if self.state == self.pattern.len() {
                self.matches.push(self.pos - self.pattern.len() as u64);
                self.state = self.fail[self.state - 1];
            }
        }
        self.scanned += chunk.len() as u64;
    }

    /// Start offsets of all matches found so far.
    pub fn matches(&self) -> &[u64] {
        &self.matches
    }

    /// Bytes scanned so far.
    pub fn scanned(&self) -> u64 {
        self.scanned
    }

    /// One-shot convenience: all match offsets of `pattern` in
    /// `haystack`.
    pub fn find_all(haystack: &[u8], pattern: &[u8]) -> Vec<u64> {
        let mut m = MpMatcher::new(pattern).expect("non-empty pattern");
        m.feed(haystack);
        m.matches
    }
}

impl Accelerator for MpMatcher {
    fn name(&self) -> &'static str {
        "morris-pratt"
    }

    fn consume(&mut self, _seq: u64, page: &[u8]) {
        self.feed(page);
    }

    fn result_bytes(&self) -> usize {
        self.matches.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_sim::rng::Rng;

    /// Reference implementation for differential testing.
    fn naive(haystack: &[u8], pattern: &[u8]) -> Vec<u64> {
        (0..=haystack.len().saturating_sub(pattern.len()))
            .filter(|&i| haystack.len() >= pattern.len() && &haystack[i..i + pattern.len()] == pattern)
            .map(|i| i as u64)
            .collect()
    }

    #[test]
    fn failure_function_known_values() {
        assert_eq!(failure_function(b"abcabd"), vec![0, 0, 0, 1, 2, 0]);
        assert_eq!(failure_function(b"aaaa"), vec![0, 1, 2, 3]);
        assert_eq!(failure_function(b"abab"), vec![0, 0, 1, 2]);
    }

    #[test]
    fn overlapping_matches_found() {
        assert_eq!(MpMatcher::find_all(b"aaaaa", b"aaa"), vec![0, 1, 2]);
        assert_eq!(MpMatcher::find_all(b"ababab", b"abab"), vec![0, 2]);
    }

    #[test]
    fn empty_pattern_rejected() {
        assert!(MpMatcher::new(b"").is_none());
    }

    #[test]
    fn matches_cross_arbitrary_feed_boundaries() {
        let haystack = b"xxneedlexxneedle";
        for split in 0..haystack.len() {
            let mut m = MpMatcher::new(b"needle").unwrap();
            m.feed(&haystack[..split]);
            m.feed(&haystack[split..]);
            assert_eq!(m.matches(), &[2, 10], "split at {split}");
        }
    }

    #[test]
    fn differential_against_naive_search() {
        let mut rng = Rng::new(11);
        for trial in 0..200 {
            // Small alphabet to force many partial matches.
            let hay: Vec<u8> = (0..500).map(|_| b'a' + (rng.below(3) as u8)).collect();
            let plen = 1 + rng.below(6) as usize;
            let pat: Vec<u8> = (0..plen).map(|_| b'a' + (rng.below(3) as u8)).collect();
            let got = MpMatcher::find_all(&hay, &pat);
            let want = naive(&hay, &pat);
            assert_eq!(got, want, "trial {trial}: pattern {pat:?}");
        }
    }

    #[test]
    fn page_streaming_equals_oneshot() {
        let mut rng = Rng::new(12);
        let mut hay = vec![0u8; 64 * 1024];
        rng.fill_bytes(&mut hay);
        // Plant needles at known places, including across a page boundary.
        let needle = b"BLUEDBM!";
        for &at in &[100usize, 8190, 16384, 40000] {
            hay[at..at + needle.len()].copy_from_slice(needle);
        }
        let mut streaming = MpMatcher::new(needle).unwrap();
        for (i, page) in hay.chunks(8192).enumerate() {
            streaming.consume(i as u64, page);
        }
        let oneshot = MpMatcher::find_all(&hay, needle);
        assert_eq!(streaming.matches(), &oneshot[..]);
        assert!(oneshot.contains(&8190), "boundary-straddling match");
        assert_eq!(streaming.scanned(), hay.len() as u64);
    }

    #[test]
    fn result_traffic_is_a_tiny_fraction() {
        // The paper assumes results are ~0.01% of the scanned bytes.
        let mut rng = Rng::new(13);
        let mut hay = vec![0u8; 1 << 20];
        rng.fill_bytes(&mut hay);
        let mut m = MpMatcher::new(b"rare-needle-string").unwrap();
        m.feed(&hay);
        assert!((m.result_bytes() as f64) < 0.0001 * hay.len() as f64);
    }
}
