//! Calibrated latency injection for hardware-only costs.
//!
//! On the paper's NXP i.MX 8MQ board, switching worlds and querying the
//! normal-world monotonic clock from the secure side have fixed hardware
//! costs (Fig 3): **86 µs** to enter the secure world, **20 µs** to return,
//! and **~10 µs** for a secure-side time query. Those costs exist on silicon
//! but not in a process-local simulation, so benches opt into injecting them
//! as busy-wait delays. Functional tests leave injection disabled.

use std::time::{Duration, Instant};

/// The hardware events that carry an injected latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Normal → secure world transition (SMC).
    EnterSecure,
    /// Secure → normal world return.
    LeaveSecure,
    /// Secure-world query of the REE monotonic clock.
    SecureTimeQuery,
}

/// Latency policy for a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Nanoseconds injected when entering the secure world.
    pub enter_secure_ns: u64,
    /// Nanoseconds injected when leaving the secure world.
    pub leave_secure_ns: u64,
    /// Nanoseconds injected per secure-side time query.
    pub secure_time_query_ns: u64,
}

/// Paper-measured enter latency (Fig 3b).
const PAPER_ENTER_SECURE_NS: u64 = 86_000;
/// Paper-measured leave latency (Fig 3b).
const PAPER_LEAVE_SECURE_NS: u64 = 20_000;
/// Paper-measured secure time-query latency (Fig 3a, native TA).
const PAPER_SECURE_TIME_QUERY_NS: u64 = 10_000;

impl Policy {
    /// No injection at all (functional tests).
    #[must_use]
    pub const fn disabled() -> Self {
        Policy {
            enter_secure_ns: 0,
            leave_secure_ns: 0,
            secure_time_query_ns: 0,
        }
    }

    /// The constants measured in the paper (benches).
    #[must_use]
    pub const fn paper() -> Self {
        Policy {
            enter_secure_ns: PAPER_ENTER_SECURE_NS,
            leave_secure_ns: PAPER_LEAVE_SECURE_NS,
            secure_time_query_ns: PAPER_SECURE_TIME_QUERY_NS,
        }
    }

    /// The delay configured for `event`.
    #[must_use]
    pub fn delay(&self, event: Event) -> Duration {
        let ns = match event {
            Event::EnterSecure => self.enter_secure_ns,
            Event::LeaveSecure => self.leave_secure_ns,
            Event::SecureTimeQuery => self.secure_time_query_ns,
        };
        Duration::from_nanos(ns)
    }

    /// Busy-waits for the delay configured for `event`.
    ///
    /// Busy-waiting (rather than `thread::sleep`) is used because the delays
    /// are in the tens of microseconds, well below reliable sleep
    /// granularity.
    pub fn inject(&self, event: Event) {
        let delay = self.delay(event);
        if delay.is_zero() {
            return;
        }
        let start = Instant::now();
        while start.elapsed() < delay {
            std::hint::spin_loop();
        }
    }
}

impl Default for Policy {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injects_nothing() {
        let p = Policy::disabled();
        assert_eq!(p.delay(Event::EnterSecure), Duration::ZERO);
        let start = Instant::now();
        p.inject(Event::EnterSecure);
        assert!(start.elapsed() < Duration::from_millis(1));
    }

    #[test]
    fn paper_policy_has_expected_constants() {
        let p = Policy::paper();
        assert_eq!(p.delay(Event::EnterSecure), Duration::from_micros(86));
        assert_eq!(p.delay(Event::LeaveSecure), Duration::from_micros(20));
        assert_eq!(p.delay(Event::SecureTimeQuery), Duration::from_micros(10));
    }

    #[test]
    fn injection_takes_at_least_the_delay() {
        let p = Policy::paper();
        let start = Instant::now();
        p.inject(Event::EnterSecure);
        assert!(start.elapsed() >= Duration::from_micros(86));
    }
}
