//! Hamming-distance comparison engine (paper Section 7.1).
//!
//! The LSH query accelerator streams candidate pages from flash and keeps
//! the item closest to the query: "the distance calculation is done by
//! the in-store processor on the storage device ... the system returns
//! the index of the data item most closely matching the query".

use crate::Accelerator;

/// Bitwise hamming distance between two equal-length byte strings.
///
/// # Panics
///
/// Panics if the lengths differ.
pub(crate) fn hamming_distance(a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(a.len(), b.len(), "hamming distance needs equal lengths");
    let mut dist = 0u32;
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (x, y) in (&mut ac).zip(&mut bc) {
        let xv = u64::from_le_bytes(x.try_into().expect("chunk of 8"));
        let yv = u64::from_le_bytes(y.try_into().expect("chunk of 8"));
        dist += (xv ^ yv).count_ones();
    }
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        dist += u32::from(x ^ y).count_ones();
    }
    dist
}

/// Streaming nearest-neighbor comparator: feed it candidate pages, read
/// out the closest match.
///
/// # Examples
///
/// ```rust
/// use bluedbm_isp::hamming::HammingEngine;
/// use bluedbm_isp::Accelerator;
///
/// let query = vec![0u8; 8];
/// let mut engine = HammingEngine::new(query);
/// engine.consume(0, &[0xFF; 8]);
/// engine.consume(1, &[0x01, 0, 0, 0, 0, 0, 0, 0]);
/// assert_eq!(engine.best(), Some((1, 1)));
/// ```
#[derive(Clone, Debug)]
pub struct HammingEngine {
    query: Vec<u8>,
    best: Option<(u64, u32)>,
    compared: u64,
}

impl HammingEngine {
    /// An engine comparing candidates against `query`.
    pub fn new(query: Vec<u8>) -> Self {
        HammingEngine {
            query,
            best: None,
            compared: 0,
        }
    }

    /// The closest candidate so far: `(sequence index, distance)`.
    pub fn best(&self) -> Option<(u64, u32)> {
        self.best
    }
}

impl Accelerator for HammingEngine {
    fn name(&self) -> &'static str {
        "hamming-nn"
    }

    fn consume(&mut self, seq: u64, page: &[u8]) {
        // Compare against the common prefix when sizes differ (a padded
        // final page); the paper's items are fixed 8 KiB.
        let n = self.query.len().min(page.len());
        let d = hamming_distance(&self.query[..n], &page[..n]);
        self.compared += 1;
        if self.best.map(|(_, bd)| d < bd).unwrap_or(true) {
            self.best = Some((seq, d));
        }
    }

    fn result_bytes(&self) -> usize {
        12 // index + distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_sim::rng::Rng;

    #[test]
    fn distance_properties() {
        let mut rng = Rng::new(1);
        let mut a = vec![0u8; 100];
        let mut b = vec![0u8; 100];
        rng.fill_bytes(&mut a);
        rng.fill_bytes(&mut b);
        assert_eq!(hamming_distance(&a, &a), 0);
        assert_eq!(hamming_distance(&a, &b), hamming_distance(&b, &a));
        // Triangle inequality against a third point.
        let mut c = vec![0u8; 100];
        rng.fill_bytes(&mut c);
        assert!(
            hamming_distance(&a, &c) <= hamming_distance(&a, &b) + hamming_distance(&b, &c)
        );
    }

    #[test]
    fn distance_counts_exact_flips() {
        let a = vec![0u8; 64];
        let mut b = a.clone();
        b[0] ^= 0b101;
        b[63] ^= 0x80;
        assert_eq!(hamming_distance(&a, &b), 3);
    }

    #[test]
    fn distance_handles_non_multiple_of_eight() {
        let a = vec![0xFFu8; 13];
        let b = vec![0x00u8; 13];
        assert_eq!(hamming_distance(&a, &b), 13 * 8);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn distance_validates_lengths() {
        hamming_distance(&[1], &[1, 2]);
    }

    #[test]
    fn engine_tracks_minimum_and_first_wins_ties() {
        let mut e = HammingEngine::new(vec![0u8; 4]);
        e.consume(0, &[0x0F, 0, 0, 0]); // distance 4
        e.consume(1, &[0x03, 0, 0, 0]); // distance 2
        e.consume(2, &[0x03, 0, 0, 0]); // distance 2 again: not better
        assert_eq!(e.best(), Some((1, 2)));
        assert_eq!(e.compared, 3);
    }

    #[test]
    fn engine_finds_planted_neighbor_in_noise() {
        let mut rng = Rng::new(2);
        let mut query = vec![0u8; 512];
        rng.fill_bytes(&mut query);
        let mut e = HammingEngine::new(query.clone());
        for seq in 0..200u64 {
            let mut page = vec![0u8; 512];
            rng.fill_bytes(&mut page);
            e.consume(seq, &page);
        }
        // Plant a near-duplicate (3 bit flips) at seq 200.
        let mut near = query.clone();
        near[5] ^= 1;
        near[99] ^= 2;
        near[500] ^= 4;
        e.consume(200, &near);
        assert_eq!(e.best(), Some((200, 3)));
    }
}
