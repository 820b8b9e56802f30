//! In-store MapReduce combiner (the paper's "BlueDBM-Optimized
//! MapReduce" future-work item, and the workload XSD accelerates with a
//! GPU-in-SSD).
//!
//! The canonical MapReduce example: word count. The map phase tokenizes
//! pages streaming out of flash; the in-store *combiner* folds counts
//! locally so that only the (word, count) table — not the corpus —
//! crosses to the host or the network shuffle. Words straddling page
//! boundaries are handled by carrying the partial token between pages,
//! which is correct when the caller feeds a file's pages in order (the
//! paper's Flash Server delivers them so; here the driver does).

use bluedbm_sim::fxhash::FxHashMap;

use crate::Accelerator;

/// Streaming word-count map+combine engine.
///
/// Tokens are maximal runs of ASCII alphanumerics, lowercased; words
/// longer than `WordCountEngine::MAX_WORD` are truncated (a bound on
/// device memory).
///
/// # Examples
///
/// ```rust
/// use bluedbm_isp::wordcount::WordCountEngine;
/// use bluedbm_isp::Accelerator;
///
/// let mut e = WordCountEngine::new();
/// e.consume(0, b"to be or not to ");
/// e.consume(1, b"be");              // "be" completes across the boundary
/// e.finish();
/// assert_eq!(e.count("to"), 2);
/// assert_eq!(e.count("be"), 2);
/// assert_eq!(e.count("or"), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct WordCountEngine {
    counts: FxHashMap<Vec<u8>, u64>,
    partial: Vec<u8>,
    scanned: u64,
}

impl WordCountEngine {
    /// Device-memory bound on token length.
    pub(crate) const MAX_WORD: usize = 64;

    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    fn flush_partial(&mut self) {
        if !self.partial.is_empty() {
            let word = std::mem::take(&mut self.partial);
            *self.counts.entry(word).or_insert(0) += 1;
        }
    }

    /// Close the final token (call after the last page).
    pub fn finish(&mut self) {
        self.flush_partial();
    }

    /// Occurrences of `word` (post-`finish` for exact tail counts).
    pub fn count(&self, word: &str) -> u64 {
        self.counts
            .get(word.to_ascii_lowercase().as_bytes())
            .copied()
            .unwrap_or(0)
    }

    /// The combined table, sorted by descending count then word — the
    /// shuffle-ready output.
    pub fn into_table(mut self) -> Vec<(String, u64)> {
        self.flush_partial();
        let mut v: Vec<(String, u64)> = self
            .counts
            .into_iter()
            .map(|(w, c)| (String::from_utf8_lossy(&w).into_owned(), c))
            .collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

impl Accelerator for WordCountEngine {
    fn name(&self) -> &'static str {
        "wordcount-combiner"
    }

    fn consume(&mut self, _seq: u64, page: &[u8]) {
        for &b in page {
            if b.is_ascii_alphanumeric() {
                if self.partial.len() < Self::MAX_WORD {
                    self.partial.push(b.to_ascii_lowercase());
                }
            } else {
                self.flush_partial();
            }
        }
        self.scanned += page.len() as u64;
    }

    #[expect(clippy::disallowed_methods, reason = "a sum over every key is order-independent")]
    fn result_bytes(&self) -> usize {
        self.counts.keys().map(|w| w.len() + 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_basic_text() {
        let mut e = WordCountEngine::new();
        e.consume(0, b"the quick brown fox jumps over the lazy dog the end");
        e.finish();
        assert_eq!(e.count("the"), 3);
        assert_eq!(e.count("fox"), 1);
        assert_eq!(e.count("missing"), 0);
        assert_eq!(e.counts.len(), 9);
    }

    #[test]
    fn case_insensitive_and_punctuation_delimited() {
        let mut e = WordCountEngine::new();
        e.consume(0, b"Flash, flash! FLASH? fl4sh");
        e.finish();
        assert_eq!(e.count("flash"), 3);
        assert_eq!(e.count("fl4sh"), 1);
    }

    #[test]
    fn words_straddle_page_boundaries_at_any_split() {
        let text = b"alpha beta gamma delta epsilon";
        for split in 0..text.len() {
            let mut e = WordCountEngine::new();
            e.consume(0, &text[..split]);
            e.consume(1, &text[split..]);
            e.finish();
            for w in ["alpha", "beta", "gamma", "delta", "epsilon"] {
                assert_eq!(e.count(w), 1, "split at {split}, word {w}");
            }
        }
    }

    #[test]
    fn table_sorted_by_count() {
        let mut e = WordCountEngine::new();
        e.consume(0, b"b b b a a c");
        let table = e.into_table();
        assert_eq!(
            table,
            vec![("b".to_string(), 3), ("a".to_string(), 2), ("c".to_string(), 1)]
        );
    }

    #[test]
    fn combiner_compresses_result_traffic() {
        // A corpus of few distinct words repeated many times: the
        // combined table is tiny relative to the corpus — the MapReduce
        // offload argument.
        let mut e = WordCountEngine::new();
        let sentence = b"map reduce shuffle sort spill merge ".repeat(2000);
        for chunk in sentence.chunks(4096) {
            e.consume(0, chunk);
        }
        e.finish();
        assert_eq!(e.count("shuffle"), 2000);
        assert!(e.result_bytes() * 100 < sentence.len());
        assert_eq!(e.scanned, sentence.len() as u64);
    }

    #[test]
    fn overlong_tokens_are_bounded() {
        let mut e = WordCountEngine::new();
        let long = vec![b'x'; 500];
        e.consume(0, &long);
        e.finish();
        assert_eq!(e.counts.len(), 1);
        let table = e.into_table();
        assert_eq!(table[0].0.len(), WordCountEngine::MAX_WORD);
    }
}
