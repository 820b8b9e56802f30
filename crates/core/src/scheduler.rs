//! FIFO scheduling of shared hardware accelerators (paper Section 4).
//!
//! "It is also very common that multiple instances of a user application
//! may compete for the same hardware acceleration units. For efficient
//! sharing of hardware resources, BlueDBM runs a scheduler that assigns
//! available hardware-acceleration units to competing user-applications.
//! In our implementation, a simple FIFO-based policy is used."
//!
//! `AccelUnits` is that scheduler: one per node, owned by the node's
//! agent, over `config.accel.units` identical units. The agent books a
//! unit for every read consumed with [`crate::node::Consume::Accel`] —
//! the multi-tenant KV engine's data path — when the read's page
//! arrives, and sends itself the job's completion at the booked end. A
//! free unit starts the job at once; otherwise the job parks until the
//! earliest-free unit releases. Queue-wait statistics accumulate in
//! [`SchedStats`], surfaced per node through
//! [`crate::cluster::Cluster::sched_stats`].
//!
//! FIFO on a finite unit pool is starvation-free by construction: every
//! parked job starts after at most `queue-position` predecessor
//! completions, whatever mix of tenants is saturating the units — the
//! unit tests pin that down.

use std::collections::VecDeque;

use bluedbm_sim::resource::{Grant, MultiResource};
use bluedbm_sim::time::SimTime;
use bluedbm_sim::MetricsNode;

/// Cumulative per-node scheduler statistics. Additive counters plus
/// queue-wait aggregates; `PartialEq` so test suites can compare nodes
/// field for field. (Under same-instant cross-tenant contention the
/// *individual* waits are arbitration-dependent — the cross-engine
/// conformance suite compares only the counters.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs granted a unit so far (a job counts when it is booked).
    pub granted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs that found every unit busy and had to park.
    pub parked: u64,
    /// Deepest the parked queue ever got.
    pub peak_parked: u64,
    /// Sum of queue waits (submit → grant) over granted jobs.
    pub total_wait: SimTime,
    /// Largest single queue wait.
    pub max_wait: SimTime,
}

impl SchedStats {
    /// Mean queue wait across granted jobs ([`SimTime::ZERO`] before any
    /// grant).
    pub(crate) fn mean_wait(&self) -> SimTime {
        if self.granted == 0 {
            SimTime::ZERO
        } else {
            self.total_wait / self.granted
        }
    }

    /// Write every counter into a metrics `node` (see
    /// [`bluedbm_sim::MetricsRegistry`]).
    pub(crate) fn fill_metrics(&self, node: &mut MetricsNode) {
        node.set("submitted", self.submitted);
        node.set("granted", self.granted);
        node.set("completed", self.completed);
        node.set("parked", self.parked);
        node.set("peak_parked", self.peak_parked);
        node.set("total_wait_ps", self.total_wait.as_ps());
        node.set("max_wait_ps", self.max_wait.as_ps());
        node.set("mean_wait_ps", self.mean_wait().as_ps());
    }
}

/// A node's accelerator units under the FIFO policy (see the module
/// docs). Jobs are submitted in non-decreasing time, so each takes the
/// earliest-free unit and the booked starts never decrease: booking is
/// the FIFO queue.
///
/// Tie rule: a unit that frees at `t` serves a job submitted at `t` with
/// zero wait, and the job does not count as parked. That is what a
/// scheduler exchanging messages with its client would do too: the
/// release at `t` was scheduled when the running job started, before the
/// submit at `t`, so the unit is free when the submit arrives.
pub(crate) struct AccelUnits {
    units: MultiResource,
    /// Booked starts of the jobs still waiting for a unit, oldest first.
    parked: VecDeque<SimTime>,
    stats: SchedStats,
}

impl AccelUnits {
    /// A scheduler over `units` identical accelerator units.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    pub(crate) fn new(units: usize) -> Self {
        assert!(units > 0, "a node needs at least one accelerator unit");
        AccelUnits {
            units: MultiResource::new(units),
            parked: VecDeque::new(),
            stats: SchedStats::default(),
        }
    }

    /// Statistics gathered so far.
    pub(crate) fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Book a unit for a job needing `duration` of accelerator time,
    /// submitted at `now`: the job's number (its submission index) and
    /// the unit time it was granted.
    pub(crate) fn submit(&mut self, now: SimTime, duration: SimTime) -> (u64, Grant) {
        let job = self.stats.submitted;
        self.stats.submitted += 1;
        let grant = self.units.acquire(now, duration);
        while self.parked.front().is_some_and(|&start| start <= now) {
            self.parked.pop_front();
        }
        if grant.start > now {
            self.stats.parked += 1;
            self.parked.push_back(grant.start);
            self.stats.peak_parked = self.stats.peak_parked.max(self.parked.len() as u64);
        }
        let waited = grant.start - now;
        self.stats.granted += 1;
        self.stats.total_wait += waited;
        self.stats.max_wait = self.stats.max_wait.max(waited);
        (job, grant)
    }

    /// A booked job reached its end.
    pub(crate) fn complete(&mut self) {
        self.stats.completed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Submit `(at, duration)` jobs in order and complete them all: each
    /// job's grant, in submission order.
    fn run(units: &mut AccelUnits, jobs: &[(SimTime, SimTime)]) -> Vec<Grant> {
        let grants = jobs
            .iter()
            .enumerate()
            .map(|(k, &(at, duration))| {
                let (job, grant) = units.submit(at, duration);
                assert_eq!(job, k as u64, "jobs are numbered in submission order");
                grant
            })
            .collect();
        (0..jobs.len()).for_each(|_| units.complete());
        grants
    }

    #[test]
    fn grants_in_fifo_order_on_one_unit() {
        let mut units = AccelUnits::new(1);
        let grants = run(&mut units, &[(SimTime::ZERO, SimTime::us(10)); 6]);
        // Strict FIFO: job k completes at (k+1)*10us, in submission order.
        let ends: Vec<SimTime> = grants.iter().map(|g| g.end).collect();
        let expect: Vec<SimTime> = (0..6).map(|k| SimTime::us(10 * (k + 1))).collect();
        assert_eq!(ends, expect);
        let s = units.stats();
        assert_eq!(s.submitted, 6);
        assert_eq!(s.completed, 6);
        assert_eq!(s.parked, 5, "all but the first waited");
        assert_eq!(s.peak_parked, 5);
        assert_eq!(s.mean_wait(), SimTime::us(25)); // 0+10+20+30+40+50 / 6
    }

    #[test]
    fn multiple_units_run_concurrently() {
        let mut units = AccelUnits::new(4);
        let grants = run(&mut units, &[(SimTime::ZERO, SimTime::us(10)); 4]);
        assert!(grants.iter().all(|g| g.start == SimTime::ZERO));
        assert_eq!(units.stats().mean_wait(), SimTime::ZERO);
        assert_eq!(units.stats().parked, 0);
    }

    #[test]
    fn queue_wait_accounting_under_unit_exhaustion() {
        // Four same-instant 10us jobs on two units: two run at 0, two
        // wait 10us.
        let mut units = AccelUnits::new(2);
        run(&mut units, &[(SimTime::ZERO, SimTime::us(10)); 4]);
        let s = units.stats();
        assert_eq!(s.granted, 4);
        assert_eq!(s.parked, 2);
        assert_eq!(s.total_wait, SimTime::us(20));
        assert_eq!(s.mean_wait(), SimTime::us(5));
        assert_eq!(s.max_wait, SimTime::us(10));
    }

    #[test]
    fn starvation_freedom_when_tenants_saturate_one_unit() {
        // Two "tenants" alternately flood one unit; every job of both
        // must complete, and FIFO means completion order == submission
        // order regardless of which tenant a job belongs to.
        let mut units = AccelUnits::new(1);
        let grants = run(&mut units, &[(SimTime::ZERO, SimTime::us(3)); 20]);
        assert!(
            grants.windows(2).all(|w| w[0].end < w[1].end),
            "no tenant's job overtook an earlier one"
        );
        let s = units.stats();
        assert_eq!(s.completed, 20);
        // Later arrivals wait longer; the last job waited 19 * 3us.
        assert_eq!(s.max_wait, SimTime::us(57));
    }

    #[test]
    fn staggered_arrivals_use_free_units_without_waiting() {
        let mut units = AccelUnits::new(2);
        let grants = run(
            &mut units,
            // Job 1 arrives while job 0 runs, but the second unit is free.
            &[(SimTime::ZERO, SimTime::us(30)), (SimTime::us(5), SimTime::us(4))],
        );
        assert_eq!((grants[0].end, grants[1].end), (SimTime::us(30), SimTime::us(9)));
        let s = units.stats();
        assert_eq!(s.parked, 0);
        assert_eq!(s.total_wait, SimTime::ZERO);
    }

    #[test]
    fn later_submissions_start_no_earlier() {
        let mut units = AccelUnits::new(2);
        let grants = run(
            &mut units,
            &[
                (SimTime::ZERO, SimTime::us(100)),
                (SimTime::ZERO, SimTime::us(100)),
                (SimTime::us(30), SimTime::us(10)),
            ],
        );
        assert_eq!(grants[2].start, SimTime::us(100));
        assert_eq!(units.stats().max_wait, SimTime::us(70));
    }

    #[test]
    fn a_unit_freeing_at_a_submit_serves_it_without_parking() {
        let mut units = AccelUnits::new(1);
        let (_, first) = units.submit(SimTime::ZERO, SimTime::us(10));
        let (_, second) = units.submit(SimTime::us(10), SimTime::us(10));
        assert_eq!((first.end, second.start), (SimTime::us(10), SimTime::us(10)));
        let s = units.stats();
        assert_eq!((s.parked, s.total_wait), (0, SimTime::ZERO));
    }

    #[test]
    fn peak_parked_counts_only_jobs_still_waiting() {
        // Three jobs park behind a 10us job; by 20us two have started, so
        // a fourth parks beside one waiter, not three.
        let mut units = AccelUnits::new(1);
        run(&mut units, &[(SimTime::ZERO, SimTime::us(10)); 4]);
        units.submit(SimTime::us(20), SimTime::us(10));
        assert_eq!(units.stats().peak_parked, 3);
        assert_eq!(units.stats().parked, 4);
    }

    #[test]
    #[should_panic(expected = "at least one accelerator unit")]
    fn zero_units_rejected() {
        let _ = AccelUnits::new(0);
    }
}
