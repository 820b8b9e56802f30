//! The sharded runtime's hand-off fabric: one [`Slot`] per ordered shard
//! pair, and the [`SpinBudget`] that decides how long a lane spins on it
//! before it parks.
//!
//! A slot is a round stamp plus two payload buffers. The producer fills
//! the buffer of round `r` (`r & 1`) and then publishes `r` in the
//! stamp; the consumer waits for the stamp to reach `r` and empties that
//! buffer in place, so whatever the payload owns (parcel vectors) is
//! recycled rather than reallocated. Two buffers are enough under the
//! window protocol: a lane publishes round `r + 2` only after it has
//! received its peer's round `r + 1`, and the peer sent that only after
//! consuming round `r` — so the buffer being refilled is always one the
//! consumer is done with, and the buffer locks are never contended (they
//! exist to keep the hand-off in safe Rust, not to order anything).
//!
//! Waiting is a spin on the stamp, counted in probes — never in clock
//! reads, so the policy cannot leak host time into anything the
//! determinism lint guards. Only when the budget runs out does the
//! consumer announce itself in `parking` and block in
//! [`std::thread::park`]; the producer pays for an `unpark` only if it
//! sees that announcement. A producer that goes away — normally or by
//! unwinding — [`close`](Slot::close)s the slot, which wakes and fails
//! any waiter instead of leaving it hung.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Thread};

/// Stamp bit set by [`Slot::close`]; the low 63 bits are the last
/// published round.
const CLOSED: u64 = 1 << 63;

/// One probe in this many is a `yield_now` instead of a CPU pause.
const YIELD_EVERY: u32 = 16;

/// The producer closed the slot before publishing the awaited round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Closed;

/// Outcome of [`Slot::spin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Spin {
    /// The round is published; this many probes found it missing first.
    Ready(u32),
    /// The probe limit ran out; [`Slot::park`] is the next step.
    Exhausted,
}

/// The words the consumer spins on, on a cache line of their own so the
/// producer filling a buffer does not invalidate the line being probed.
#[repr(align(64))]
struct Control {
    stamp: AtomicU64,
    /// The consumer is in (or about to enter) [`thread::park`].
    parking: AtomicBool,
}

/// One direction of one shard pair. Single producer, single consumer.
pub(crate) struct Slot<T> {
    ctl: Control,
    /// The consumer's thread, registered the first time it parks.
    waiter: OnceLock<Thread>,
    bufs: [Mutex<T>; 2],
}

impl<T> Slot<T> {
    /// A slot with nothing published (the first round is 1).
    pub(crate) fn new(a: T, b: T) -> Self {
        Slot {
            ctl: Control {
                stamp: AtomicU64::new(0),
                parking: AtomicBool::new(false),
            },
            waiter: OnceLock::new(),
            bufs: [Mutex::new(a), Mutex::new(b)],
        }
    }

    fn buf(&self, round: u64) -> std::sync::MutexGuard<'_, T> {
        self.bufs[(round & 1) as usize]
            .lock()
            .expect("slot buffer poisoned: the peer lane panicked inside a hand-off")
    }

    fn wake(&self) {
        // Pairs with the `parking` store / stamp load in `park`: both
        // sides store then load with SeqCst, so either the parker sees
        // the new stamp or we see its announcement (or both).
        if self.ctl.parking.load(Ordering::SeqCst) {
            if let Some(waiter) = self.waiter.get() {
                waiter.unpark();
            }
        }
    }

    /// Producer: fill the buffer of `round`, then publish it. Rounds
    /// are published in order, starting at 1.
    pub(crate) fn publish(&self, round: u64, fill: impl FnOnce(&mut T)) {
        debug_assert_eq!(self.ctl.stamp.load(Ordering::Relaxed) + 1, round);
        fill(&mut self.buf(round));
        self.ctl.stamp.store(round, Ordering::SeqCst);
        self.wake();
    }

    /// Producer: nothing more will be published. A consumer waiting for
    /// an unpublished round fails with [`Closed`]; rounds published
    /// before the close stay receivable.
    pub(crate) fn close(&self) {
        self.ctl.stamp.fetch_or(CLOSED, Ordering::SeqCst);
        self.wake();
    }

    fn poll(&self, round: u64, order: Ordering) -> Option<Result<(), Closed>> {
        let stamp = self.ctl.stamp.load(order);
        if stamp & !CLOSED >= round {
            Some(Ok(()))
        } else if stamp & CLOSED != 0 {
            Some(Err(Closed))
        } else {
            None
        }
    }

    /// Consumer: probe the stamp for `round`, at most `limit` times
    /// beyond the first look.
    pub(crate) fn spin(&self, round: u64, limit: u32) -> Result<Spin, Closed> {
        let mut probes = 0;
        loop {
            // Acquire pairs with the publishing store: the buffer's
            // contents are visible once the stamp is.
            if let Some(seen) = self.poll(round, Ordering::Acquire) {
                return seen.map(|()| Spin::Ready(probes));
            }
            if probes == limit {
                return Ok(Spin::Exhausted);
            }
            probes += 1;
            // Mostly a CPU pause; every so often a `yield_now`, which
            // costs a fraction of a microsecond when nothing else wants
            // the core and hands it over when something does — so even
            // a long spin cannot starve a peer that shares the core.
            if probes % YIELD_EVERY == 0 {
                thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Consumer: block until `round` is published or the slot closes.
    /// Always from the same thread: the first call registers it as the
    /// one the producer wakes.
    pub(crate) fn park(&self, round: u64) -> Result<(), Closed> {
        let waiter = self.waiter.get_or_init(thread::current);
        debug_assert_eq!(waiter.id(), thread::current().id(), "one consumer per slot");
        self.ctl.parking.store(true, Ordering::SeqCst);
        let seen = loop {
            if let Some(seen) = self.poll(round, Ordering::SeqCst) {
                break seen;
            }
            // A stale token from an earlier wake only costs one more
            // trip round this loop.
            thread::park();
        };
        self.ctl.parking.store(false, Ordering::Relaxed);
        seen
    }

    /// Consumer: the buffer of a `round` that [`spin`](Self::spin) or
    /// [`park`](Self::park) reported published. Leave it empty — the
    /// producer refills it two rounds later.
    pub(crate) fn take<R>(&self, round: u64, f: impl FnOnce(&mut T) -> R) -> R {
        debug_assert_eq!(self.poll(round, Ordering::Relaxed), Some(Ok(())));
        f(&mut self.buf(round))
    }
}

/// How many probes a lane spends on a receive before it parks.
///
/// Spinning beats parking when the peer is on a core and merely a
/// fraction of a window behind; it is pure loss when the peer is not
/// running (an oversubscribed host), because the spin burns the very
/// timeslice the peer needs. The two cases are told apart by outcome
/// alone, in probes:
///
/// * a receive that had to wait and was answered inside the budget
///   **doubles** it (up to [`CAP`](Self::CAP), about a window's worth of
///   peer work) — spinning is paying off;
/// * a receive that ran the budget out and parked **collapses** it to
///   [`FLOOR`](Self::FLOOR), where a lost spin costs about what the
///   `park` call itself does — so a run of parks costs a run of cheap
///   spins, and what was burned before the collapse was bought by the
///   parks the preceding doublings avoided;
/// * a receive that found the round already published says nothing
///   about waiting and leaves the budget alone.
///
/// Recovery needs no timer: at the floor, any receive answered within
/// it starts the doubling again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SpinBudget {
    probes: u32,
    floor: u32,
    cap: u32,
}

impl Default for SpinBudget {
    fn default() -> Self {
        SpinBudget {
            probes: Self::FLOOR,
            floor: Self::FLOOR,
            cap: Self::CAP,
        }
    }
}

impl SpinBudget {
    /// A few microseconds of probing — about one park and wake-up.
    pub(crate) const FLOOR: u32 = 256;
    /// Around a millisecond of probing.
    pub(crate) const CAP: u32 = 1 << 15;

    /// A budget that stays at `probes` whatever happens (tests: 0 parks
    /// every receive that has to wait, `u32::MAX` never parks).
    #[cfg(test)]
    pub(crate) fn pinned(probes: u32) -> Self {
        SpinBudget { probes, floor: probes, cap: probes }
    }

    /// The probe limit for the next receive.
    pub(crate) fn limit(&self) -> u32 {
        self.probes
    }

    /// Fold in the outcome of a receive made under [`limit`](Self::limit).
    pub(crate) fn record(&mut self, outcome: Spin) {
        self.probes = match outcome {
            Spin::Ready(0) => self.probes,
            Spin::Ready(_) => self.probes.saturating_mul(2).min(self.cap),
            Spin::Exhausted => self.floor,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// What lane `src` sends lane `dst` in `round`: `round % 8` parcels,
    /// each a value no other (src, dst, round, index) produces.
    fn parcels(src: usize, dst: usize, round: u64) -> impl Iterator<Item = u64> {
        (0..round % 8).map(move |i| (((round * 8 + i) * 8 + src as u64) * 8 + dst as u64) | 1 << 62)
    }

    /// `lanes` threads hand each other parcel vectors all-to-all for
    /// `rounds` rounds, the way the shard workers do, under a fixed probe
    /// `limit`. Returns per lane: the checksum of everything received,
    /// how many receives parked, and the largest vector capacity seen
    /// in the first half and over the whole run.
    fn hand_off(lanes: usize, rounds: u64, limit: u32) -> Vec<(u64, u64, usize, usize)> {
        let fabric: Vec<Slot<Vec<u64>>> =
            (0..lanes * lanes).map(|_| Slot::new(Vec::new(), Vec::new())).collect();
        let fabric = &fabric[..];
        thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|me| {
                    scope.spawn(move || {
                        let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); lanes];
                        let (mut sum, mut parks) = (0u64, 0u64);
                        let (mut cap_warm, mut cap_all) = (0, 0);
                        for round in 1..=rounds {
                            for dst in (0..lanes).filter(|&d| d != me) {
                                outgoing[dst].extend(parcels(me, dst, round));
                                fabric[me * lanes + dst]
                                    .publish(round, |buf| std::mem::swap(buf, &mut outgoing[dst]));
                                assert!(outgoing[dst].is_empty(), "recycled vectors come back empty");
                                cap_all = cap_all.max(outgoing[dst].capacity());
                            }
                            if round == rounds / 2 {
                                cap_warm = cap_all;
                            }
                            for src in (0..lanes).filter(|&s| s != me) {
                                let slot = &fabric[src * lanes + me];
                                if slot.spin(round, limit).expect("open") == Spin::Exhausted {
                                    parks += 1;
                                    slot.park(round).expect("open");
                                }
                                slot.take(round, |buf| {
                                    sum = buf.drain(..).fold(sum, u64::wrapping_add);
                                });
                            }
                        }
                        (sum, parks, cap_warm, cap_all)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("lane")).collect()
        })
    }

    fn check_hand_off(lanes: usize, rounds: u64, limit: u32) -> u64 {
        let got = hand_off(lanes, rounds, limit);
        let mut parks = 0;
        for (me, &(sum, lane_parks, cap_warm, cap_all)) in got.iter().enumerate() {
            let want = (1..=rounds)
                .flat_map(|r| (0..lanes).filter(move |&s| s != me).flat_map(move |s| parcels(s, me, r)))
                .fold(0u64, u64::wrapping_add);
            assert_eq!(sum, want, "lane {me} of {lanes}, limit {limit}");
            assert_eq!(cap_warm, cap_all, "lane {me}: vectors still growing after warm-up");
            assert!(cap_all <= 8, "lane {me}: batches are at most 7 parcels, capacity {cap_all}");
            parks += lane_parks;
        }
        parks
    }

    #[test]
    fn two_lanes_hand_off_every_parcel_when_every_wait_parks() {
        check_hand_off(2, 100_000, 0);
    }

    #[test]
    fn two_lanes_hand_off_every_parcel_without_ever_parking() {
        assert_eq!(check_hand_off(2, 100_000, u32::MAX), 0);
    }

    #[test]
    fn four_lanes_hand_off_every_parcel_when_every_wait_parks() {
        check_hand_off(4, 100_000, 0);
    }

    #[test]
    fn four_lanes_hand_off_every_parcel_without_ever_parking() {
        assert_eq!(check_hand_off(4, 100_000, u32::MAX), 0);
    }

    #[test]
    fn close_fails_a_spinning_waiter() {
        let slot = &Slot::new((), ());
        thread::scope(|scope| {
            let (spinning, is_spinning) = mpsc::channel();
            let waiter = scope.spawn(move || {
                spinning.send(()).expect("test alive");
                // No limit: whenever the close lands, it lands in the spin.
                slot.spin(1, u32::MAX)
            });
            is_spinning.recv().expect("waiter started");
            slot.close();
            assert_eq!(waiter.join().expect("waiter"), Err(Closed));
        });
    }

    #[test]
    fn close_wakes_and_fails_a_parked_waiter() {
        let slot = Slot::new((), ());
        thread::scope(|scope| {
            let waiter = scope.spawn(|| slot.park(1));
            // The waiter has announced itself: from here the close's
            // wake-up is what must get it out.
            while !slot.ctl.parking.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            slot.close();
            assert_eq!(waiter.join().expect("waiter"), Err(Closed));
        });
    }

    #[test]
    fn rounds_published_before_a_close_stay_receivable() {
        let slot = Slot::new(0u32, 0u32);
        slot.publish(1, |buf| *buf = 7);
        slot.close();
        assert_eq!(slot.spin(1, 0), Ok(Spin::Ready(0)));
        assert_eq!(slot.park(1), Ok(()));
        assert_eq!(slot.take(1, |buf| *buf), 7);
        assert_eq!(slot.spin(2, 5), Err(Closed));
        assert_eq!(slot.park(2), Err(Closed));
    }

    #[test]
    fn budget_doubles_on_a_wait_that_paid_and_collapses_on_a_park() {
        let mut budget = SpinBudget::default();
        assert_eq!(budget.limit(), SpinBudget::FLOOR);
        budget.record(Spin::Ready(0));
        assert_eq!(budget.limit(), SpinBudget::FLOOR, "no wait, no evidence");
        budget.record(Spin::Ready(3));
        budget.record(Spin::Ready(1));
        assert_eq!(budget.limit(), SpinBudget::FLOOR * 4);
        for _ in 0..40 {
            budget.record(Spin::Ready(9));
        }
        assert_eq!(budget.limit(), SpinBudget::CAP);
        budget.record(Spin::Exhausted);
        assert_eq!(budget.limit(), SpinBudget::FLOOR, "one park: back to the floor");
        budget.record(Spin::Ready(2));
        assert_eq!(budget.limit(), SpinBudget::FLOOR * 2, "and it recovers by itself");

        let mut pinned = SpinBudget::pinned(0);
        pinned.record(Spin::Ready(1));
        pinned.record(Spin::Exhausted);
        assert_eq!(pinned.limit(), 0);
    }
}
