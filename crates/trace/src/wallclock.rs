//! Optional wall-clock worker profiling, strictly outside the
//! deterministic record.
//!
//! The threaded shard runtime spends its life in three states — spinning
//! on a peer's round stamp, parked, or executing events — and tuning the
//! sync protocol needs to know the real-time split. That is inherently
//! a wall-clock measurement, so it lives here, quarantined: profiles
//! never feed a [`crate::TraceRecord`], a digest, or any simulated
//! state, and the one `Instant::now` below carries an `#[expect]` of
//! clippy's `disallowed_methods` with its justification. Everything is a no-op unless
//! [`crate::TraceConfig::wall_profile`] is set.

use std::time::Instant;

/// Accumulated wall time for one worker lane, nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallLaneProfile {
    /// Spent spinning on a mailbox slot whose round is not published.
    pub spin_ns: u64,
    /// Spent parked waiting for a peer shard.
    pub park_ns: u64,
    /// Spent executing events (the useful work).
    pub execute_ns: u64,
}

/// An opaque start-of-interval stamp; `None` when profiling is off, so
/// the disabled path never touches the clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct WallStamp(Option<Instant>);

/// One worker lane's profiler. Lives beside the lane's deterministic
/// stats in the shard runtime and travels into its worker thread.
#[derive(Clone, Debug, Default)]
pub struct WallLane {
    on: bool,
    profile: WallLaneProfile,
}

impl WallLane {
    /// A lane profiler; disabled unless `enabled`.
    pub fn new(enabled: bool) -> Self {
        WallLane {
            on: enabled,
            profile: WallLaneProfile::default(),
        }
    }

    /// Start an interval. Returns an inert stamp when disabled.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "opt-in worker profiling; measurements never reach simulated state or the deterministic trace"
    )]
    pub fn stamp(&self) -> WallStamp {
        if self.on {
            WallStamp(Some(Instant::now()))
        } else {
            WallStamp(None)
        }
    }

    #[inline]
    fn elapsed_ns(stamp: WallStamp) -> u64 {
        match stamp.0 {
            Some(t) => t.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Close an interval as spin time.
    #[inline]
    pub fn add_spin(&mut self, stamp: WallStamp) {
        self.profile.spin_ns += Self::elapsed_ns(stamp);
    }

    /// Close an interval as park time.
    #[inline]
    pub fn add_park(&mut self, stamp: WallStamp) {
        self.profile.park_ns += Self::elapsed_ns(stamp);
    }

    /// Close an interval as execute time.
    #[inline]
    pub fn add_execute(&mut self, stamp: WallStamp) {
        self.profile.execute_ns += Self::elapsed_ns(stamp);
    }

    /// The accumulated profile.
    pub fn profile(&self) -> WallLaneProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_lane_accumulates_nothing() {
        let mut lane = WallLane::new(false);
        let s = lane.stamp();
        std::thread::sleep(std::time::Duration::from_millis(1));
        lane.add_spin(s);
        lane.add_park(lane.stamp());
        lane.add_execute(lane.stamp());
        assert_eq!(lane.profile(), WallLaneProfile::default());
    }

    #[test]
    fn enabled_lane_measures_something() {
        let mut lane = WallLane::new(true);
        let s = lane.stamp();
        std::thread::sleep(std::time::Duration::from_millis(2));
        lane.add_execute(s);
        assert!(lane.profile().execute_ns >= 1_000_000, "{:?}", lane.profile());
        assert_eq!(lane.profile().spin_ns, 0);
    }
}
