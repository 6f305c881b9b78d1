//! Per-node simulated clocks.
//!
//! The simulator uses *virtual time*: instead of measuring wall-clock
//! duration of the (host) code, every modeled hardware operation advances
//! the acting node's clock by its modeled cost. Cross-node interactions
//! synchronize clocks through message timestamps (see
//! [`crate::interconnect`]), giving deterministic, reproducible latencies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically advancing simulated clock, in nanoseconds.
///
/// Cloning a `SimClock` yields a handle to the *same* underlying clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    ns: Arc<AtomicU64>,
}

impl SimClock {
    /// A new clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Advance the clock by `delta_ns` and return the new time.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.ns.fetch_add(delta_ns, Ordering::Relaxed) + delta_ns
    }

    /// Advance the clock to at least `ts_ns` (used when a message arrives
    /// that departed at a later simulated time than this node has reached).
    /// Returns the resulting time.
    pub fn advance_to(&self, ts_ns: u64) -> u64 {
        let mut cur = self.ns.load(Ordering::Relaxed);
        while cur < ts_ns {
            match self
                .ns
                .compare_exchange_weak(cur, ts_ns, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return ts_ns,
                Err(actual) => cur = actual,
            }
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = SimClock::new();
        c.advance(100);
        assert_eq!(c.advance_to(50), 100, "never goes backwards");
        assert_eq!(c.advance_to(200), 200);
        assert_eq!(c.now(), 200);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(7);
        assert_eq!(b.now(), 7);
    }
}
