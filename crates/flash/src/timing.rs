//! NAND timing parameters.
//!
//! All defaults trace to the paper: 8 KiB reads take "50 µs or more"
//! (Section 3.1.1), a card sustains 1.2 GB/s across its 8 buses
//! (Section 6.5), and program/erase times are typical for the MLC NAND of
//! that generation.

use bluedbm_sim::time::{Bandwidth, SimTime};

/// Latency/bandwidth model of one flash card.
///
/// # Examples
///
/// ```rust
/// use bluedbm_flash::timing::FlashTiming;
/// use bluedbm_sim::time::SimTime;
///
/// let t = FlashTiming::paper();
/// assert_eq!(t.read_cell, SimTime::us(50));
/// // 8 KiB over one of 8 buses at 150 MB/s each.
/// assert!(t.transfer_time(8192) > SimTime::us(50));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlashTiming {
    /// Cell-to-register read time (tR).
    pub read_cell: SimTime,
    /// Register-program time (tPROG).
    pub(crate) program_cell: SimTime,
    /// Block erase time (tBERS).
    pub(crate) erase_block: SimTime,
    /// Per-bus transfer bandwidth between NAND register and controller.
    pub bus_bandwidth: Bandwidth,
    /// Fixed command issue/decode overhead per operation in the
    /// controller.
    pub command_overhead: SimTime,
}

impl FlashTiming {
    /// Paper-calibrated timing: tR = 50 µs; 8 buses sharing 1.2 GB/s of
    /// card bandwidth gives 150 MB/s per bus; tPROG = 300 µs and
    /// tBERS = 3 ms are era-typical MLC values.
    pub fn paper() -> Self {
        FlashTiming {
            read_cell: SimTime::us(50),
            program_cell: SimTime::us(300),
            erase_block: SimTime::ms(3),
            bus_bandwidth: Bandwidth::mb(150.0),
            command_overhead: SimTime::ns(200),
        }
    }

    /// Fast timing for unit tests (microsecond-scale events).
    #[cfg(test)]
    pub(crate) fn test_fast() -> Self {
        FlashTiming {
            read_cell: SimTime::us(5),
            program_cell: SimTime::us(20),
            erase_block: SimTime::us(100),
            bus_bandwidth: Bandwidth::gb(1.0),
            command_overhead: SimTime::ns(10),
        }
    }

    /// Time to move `bytes` across one bus.
    pub fn transfer_time(&self, bytes: usize) -> SimTime {
        self.bus_bandwidth.time_for(bytes as u64)
    }
}

impl Default for FlashTiming {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_card_aggregate_bandwidth() {
        let t = FlashTiming::paper();
        // 8 buses x 150 MB/s = 1.2 GB/s, the paper's per-card figure.
        let aggregate = t.bus_bandwidth.as_bytes_per_sec() * 8.0;
        assert!((aggregate - 1.2e9).abs() < 1.0);
    }

    /// Picosecond-rounding tolerant equality.
    fn close(a: SimTime, b: SimTime) -> bool {
        a.saturating_sub(b).max(b.saturating_sub(a)) <= SimTime::ps(2)
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let t = FlashTiming::paper();
        let one = t.transfer_time(8192);
        let two = t.transfer_time(16384);
        assert!(close(one * 2, two), "{one} * 2 vs {two}");
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(FlashTiming::default(), FlashTiming::paper());
    }
}
