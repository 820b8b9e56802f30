//! Contention primitives for serialized hardware resources.
//!
//! Many BlueDBM components are "one transfer at a time" devices: a NAND
//! bus, a serial link lane, a DMA engine. [`SerialResource`] models these
//! with a next-free-time discipline: a request arriving at `t` starts at
//! `max(t, next_free)` and occupies the resource for its service time.
//! [`MultiResource`] generalizes to `k` identical servers (e.g. the four
//! read DMA engines of the host interface).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The time interval granted to one request on a resource.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grant {
    /// When service began (>= arrival time).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

/// A single-server FIFO resource with busy-time accounting.
///
/// # Examples
///
/// ```rust
/// use bluedbm_sim::resource::SerialResource;
/// use bluedbm_sim::time::SimTime;
///
/// let mut bus = SerialResource::new();
/// let a = bus.acquire(SimTime::ZERO, SimTime::us(10));
/// let b = bus.acquire(SimTime::us(2), SimTime::us(10));
/// assert_eq!(a.end, SimTime::us(10));
/// assert_eq!(b.start, SimTime::us(10)); // waited for a
/// assert_eq!(b.end, SimTime::us(20));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SerialResource {
    next_free: SimTime,
}

impl SerialResource {
    /// A resource that is free at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `service` starting no earlier than
    /// `arrival`. Requests must be issued in non-decreasing arrival order
    /// for FIFO semantics (callers in this workspace always do, since they
    /// issue from event handlers).
    pub fn acquire(&mut self, arrival: SimTime, service: SimTime) -> Grant {
        let start = arrival.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        Grant { start, end }
    }
}

/// `k` identical servers fed from one FIFO queue.
///
/// Used for pooled engines: 4 DMA read engines, 4 Morris-Pratt search
/// engines per bus, and so on.
///
/// # Examples
///
/// ```rust
/// use bluedbm_sim::resource::MultiResource;
/// use bluedbm_sim::time::SimTime;
///
/// let mut dma = MultiResource::new(2);
/// let a = dma.acquire(SimTime::ZERO, SimTime::us(10));
/// let b = dma.acquire(SimTime::ZERO, SimTime::us(10));
/// let c = dma.acquire(SimTime::ZERO, SimTime::us(10));
/// assert_eq!(a.start, SimTime::ZERO);
/// assert_eq!(b.start, SimTime::ZERO);       // second server
/// assert_eq!(c.start, SimTime::us(10));     // waits for the first free server
/// ```
#[derive(Clone, Debug)]
pub struct MultiResource {
    /// Min-heap of per-server next-free times.
    servers: BinaryHeap<Reverse<SimTime>>,
}

impl MultiResource {
    /// Create a pool of `servers` identical servers, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "MultiResource needs at least one server");
        MultiResource {
            servers: (0..servers).map(|_| Reverse(SimTime::ZERO)).collect(),
        }
    }

    /// Reserve the earliest-free server for `service` starting no earlier
    /// than `arrival`.
    pub fn acquire(&mut self, arrival: SimTime, service: SimTime) -> Grant {
        let Reverse(free_at) = self.servers.pop().expect("pool is non-empty");
        let start = arrival.max(free_at);
        let end = start + service;
        self.servers.push(Reverse(end));
        Grant { start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_back_to_back() {
        let mut r = SerialResource::new();
        let g1 = r.acquire(SimTime::ZERO, SimTime::us(5));
        let g2 = r.acquire(SimTime::us(1), SimTime::us(5));
        let g3 = r.acquire(SimTime::us(20), SimTime::us(5));
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g2.start, SimTime::us(5));
        // Idle gap before g3: starts at its arrival.
        assert_eq!(g3.start, SimTime::us(20));
    }

    #[test]
    fn serial_saturated_throughput_matches_service_rate() {
        // 1000 requests of 10 us arriving at time zero: the last finishes
        // at exactly 10 ms — the resource is work-conserving.
        let mut r = SerialResource::new();
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            last = r.acquire(SimTime::ZERO, SimTime::us(10)).end;
        }
        assert_eq!(last, SimTime::ms(10));
    }

    #[test]
    fn multi_parallel_service() {
        let mut r = MultiResource::new(4);
        let ends: Vec<SimTime> = (0..8)
            .map(|_| r.acquire(SimTime::ZERO, SimTime::us(10)).end)
            .collect();
        // First four run in parallel, the next four queue behind them.
        assert!(ends[..4].iter().all(|&e| e == SimTime::us(10)));
        assert!(ends[4..].iter().all(|&e| e == SimTime::us(20)));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn multi_zero_servers_panics() {
        let _ = MultiResource::new(0);
    }
}
