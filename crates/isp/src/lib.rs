//! # bluedbm-isp
//!
//! BlueDBM's in-store processors (paper Section 7): the accelerator
//! engines that run next to flash, consuming pages at device bandwidth
//! and returning only results to the host.
//!
//! Every engine is a pure functional core over `&[u8]` pages, so the same
//! code runs in two places:
//!
//! * inside the DES node model, clocked at flash bandwidth (the ISP
//!   paths of Figures 16–21), and
//! * inside the host-software baselines, clocked at host-CPU rates — the
//!   paper's comparison arms.
//!
//! ## Engines
//!
//! * [`hamming`] + [`lsh`] — locality-sensitive-hash nearest neighbor
//!   (Section 7.1): bit-sampling LSH buckets plus an XOR/popcount
//!   hamming-distance comparator.
//! * [`graph`] — page-level graph traversal with dependent lookups
//!   (Section 7.2).
//! * [`mp`] — Morris-Pratt streaming string search (Section 7.3), the
//!   engine the paper runs four-per-bus to saturate a flash card.
//! * [`filter`] — relational selection over packed records (the paper's
//!   "SQL offload" future-work direction, used by the ablation bench).
//!
//! Two of the applications the paper's Section 8 lists as under
//! development are implemented here as additional engines:
//!
//! * [`aggregate`] — SQL group-by aggregation pushdown;
//! * [`wordcount`] — a MapReduce map+combine stage ("BlueDBM-Optimized
//!   MapReduce").
//!
//! ## Example
//!
//! ```rust
//! use bluedbm_isp::mp::MpMatcher;
//!
//! let mut engine = MpMatcher::new(b"needle").unwrap();
//! engine.feed(b"hay needle hay nee");
//! engine.feed(b"dle");                   // match crosses the page boundary
//! assert_eq!(engine.matches(), &[4, 15]);
//! ```

pub mod aggregate;
pub mod filter;
pub mod graph;
pub mod hamming;
pub mod lsh;
pub mod mp;
pub mod wordcount;

pub use aggregate::AggregateEngine;
pub use filter::FilterEngine;
pub use graph::{PackedGraph, TraversalStats};
pub use hamming::HammingEngine;
pub use lsh::{LshIndex, LshParams};
pub use mp::MpMatcher;
pub use wordcount::WordCountEngine;

/// A streaming in-store accelerator: consumes pages, accumulates results.
///
/// The scheduler in `bluedbm-core` drives engines through this object-safe
/// interface; concrete result types live on the engine structs.
pub trait Accelerator {
    /// Engine name (for the scheduler and the Table 2 inventory).
    fn name(&self) -> &'static str;

    /// Consume one page of input. `seq` is the page's position in the
    /// address stream the host supplied.
    fn consume(&mut self, seq: u64, page: &[u8]);

    /// Bytes of result produced so far. The paper's string search returns
    /// ~0.01% of the scanned bytes; this drives the result-traffic model.
    fn result_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        let engines: Vec<Box<dyn Accelerator>> = vec![
            Box::new(MpMatcher::new(b"x").unwrap()),
            Box::new(HammingEngine::new(vec![0u8; 16])),
            Box::new(FilterEngine::new(16, 0, 10..20)),
        ];
        for e in &engines {
            assert!(!e.name().is_empty());
            let _ = e.result_bytes();
        }
    }
}
