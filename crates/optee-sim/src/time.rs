//! Time services (§VI-A of the paper).
//!
//! Stock OP-TEE offers millisecond resolution; the paper extends the OP-TEE
//! driver and `TEE_Time` to pass the normal world's nanosecond monotonic
//! clock into the secure world. Reading it from the secure side costs a
//! world transition (~10 µs for a native TA, ~13 µs through WASI — Fig 3a).

use std::time::Instant;

use tz_hal::Platform;

/// Nanosecond monotonic timestamp as seen from the **normal world**
/// (`clock_gettime(CLOCK_MONOTONIC)` in the paper).
#[must_use]
fn ree_clock_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// The same clock read from the **secure world**.
///
/// The value is fetched from the normal world through the extended OP-TEE
/// driver, so each query pays the peripheral-access latency configured on
/// the platform (injected only when the platform enables latency modelling).
#[must_use]
pub fn secure_clock_ns(platform: &Platform) -> u64 {
    platform.secure_peripheral_delay();
    ree_clock_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tz_hal::PlatformConfig;

    #[test]
    fn ree_clock_is_monotonic() {
        let a = ree_clock_ns();
        let b = ree_clock_ns();
        assert!(b >= a);
    }

    #[test]
    fn secure_clock_close_to_ree_clock() {
        let platform = Platform::new(PlatformConfig::default());
        let a = ree_clock_ns();
        let b = secure_clock_ns(&platform);
        assert!(b >= a);
        assert!(b - a < 1_000_000_000, "clocks should agree within 1s");
    }

    #[test]
    fn secure_clock_pays_injected_latency() {
        let platform = Platform::new(PlatformConfig::with_paper_latencies());
        let start = Instant::now();
        let _ = secure_clock_ns(&platform);
        // Fig 3a: ~10 µs per secure-side query.
        assert!(start.elapsed() >= Duration::from_micros(10));
    }
}
