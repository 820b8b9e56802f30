//! Seeded byte-level dataset generators.

use bluedbm_sim::rng::Rng;

/// Generate `count` random pages of `page_bytes` each.
///
/// # Examples
///
/// ```rust
/// use bluedbm_workloads::datagen::random_pages;
///
/// let pages = random_pages(4, 512, 7);
/// assert_eq!(pages.len(), 4);
/// assert_eq!(pages[0].len(), 512);
/// assert_eq!(pages, random_pages(4, 512, 7), "seeded: reproducible");
/// ```
pub fn random_pages(count: usize, page_bytes: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            let mut p = vec![0u8; page_bytes];
            rng.fill_bytes(&mut p);
            p
        })
        .collect()
}

/// A text corpus with needles planted at known offsets.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// The haystack bytes.
    pub text: Vec<u8>,
    /// Offsets where the needle was planted.
    pub planted: Vec<u64>,
    /// The needle.
    pub(crate) needle: Vec<u8>,
}

/// Generate a printable-ASCII corpus of `bytes` with `plants` copies of
/// `needle` planted at deterministic pseudo-random positions.
///
/// The filler alphabet excludes the needle's first byte, so the planted
/// occurrences are exactly the occurrences.
///
/// # Panics
///
/// Panics if the needle is empty, non-printable-safe, or the corpus is
/// too small for the requested plants.
pub fn corpus_with_needles(bytes: usize, needle: &[u8], plants: usize, seed: u64) -> Corpus {
    assert!(!needle.is_empty(), "needle must be non-empty");
    assert!(
        bytes >= plants * (needle.len() + 1) * 2,
        "corpus too small for {plants} plants"
    );
    let mut rng = Rng::new(seed);
    let first = needle[0];
    // Filler: printable ASCII, skipping the needle's first byte.
    let mut text: Vec<u8> = (0..bytes)
        .map(|_| {
            let mut c = b' ' + (rng.below(95) as u8);
            if c == first {
                c = if c == b'~' { b'}' } else { c + 1 };
            }
            c
        })
        .collect();
    // Plant needles in distinct, non-overlapping slots.
    let slot = bytes / plants.max(1);
    assert!(slot > needle.len(), "slots must fit the needle");
    let mut planted = Vec::with_capacity(plants);
    for i in 0..plants {
        let base = i * slot;
        let at = base + rng.below((slot - needle.len()) as u64) as usize;
        text[at..at + needle.len()].copy_from_slice(needle);
        planted.push(at as u64);
    }
    Corpus {
        text,
        planted,
        needle: needle.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_isp::mp::MpMatcher;

    #[test]
    fn corpus_plants_are_the_only_occurrences() {
        let c = corpus_with_needles(100_000, b"NEEDLE", 20, 3);
        let found = MpMatcher::find_all(&c.text, &c.needle);
        assert_eq!(found, c.planted);
        assert_eq!(found.len(), 20);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus_with_needles(10_000, b"xyz", 5, 9);
        let b = corpus_with_needles(10_000, b"xyz", 5, 9);
        assert_eq!(a.text, b.text);
        assert_eq!(a.planted, b.planted);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn corpus_validates_size() {
        let _ = corpus_with_needles(10, b"longneedle", 5, 1);
    }

    #[test]
    fn random_pages_differ() {
        let pages = random_pages(2, 256, 11);
        assert_ne!(pages[0], pages[1]);
    }
}
