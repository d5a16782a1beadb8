//! Software model of the Arm TrustZone hardware that WaTZ depends on.
//!
//! The WaTZ paper (§III, §V) requires three hardware capabilities from the
//! platform — this crate models all three:
//!
//! 1. **TrustZone security extensions**: two worlds (normal and secure) with
//!    strictly partitioned resources and an `SMC`-style world switch
//!    ([`smc`], [`Platform::enter_secure`]). World transitions carry the
//!    latencies measured in Fig 3b of the paper (86 µs enter / 20 µs leave),
//!    injected by the calibrated [`latency`] module.
//! 2. **A root of trust**: a one-time-programmable master key (OTPMK) fused
//!    at "manufacturing" time, exposed only as the *master key verification
//!    blob* (MKVB) by the modelled CAAM, with distinct values per world
//!    ([`rot`]).
//! 3. **Secure boot**: a ROM that verifies a chain of boot images against a
//!    public key burned into eFuses, recursively establishing the chain of
//!    trust ([`boot`], [`efuse`]).
//!
//! # What is real and what is injected
//!
//! All *computation* in this crate (hashing, signature checks, MKVB
//! derivation) is really executed. The only synthetic element is the timing
//! of world transitions and secure-world peripherals, which on silicon come
//! from the bus/monitor and here are reproduced as busy-wait delays so the
//! measured numbers have the paper's structure. Latency injection is **off
//! by default** and enabled per-platform by benches ([`latency::Policy`]).
//!
//! # Example
//!
//! ```
//! use tz_hal::{Platform, PlatformConfig, World};
//!
//! let platform = Platform::new(PlatformConfig::default());
//! tz_hal::boot::install_genuine_chain(&platform).unwrap();
//! // The secure-world MKVB is only available after a verified secure boot.
//! let mkvb = platform.caam().mkvb(World::Secure).unwrap();
//! assert_eq!(mkvb.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod efuse;
pub mod latency;
pub mod rot;
mod shmem;
mod smc;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

pub use boot::{BootChain, BootError, BootImage};
pub use efuse::EFuses;
pub use latency::Policy as LatencyPolicy;
pub use rot::Caam;
pub use shmem::{SharedBuffer, SharedMemoryError};
pub use smc::TransitionStats;

/// The two TrustZone security states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum World {
    /// The rich execution environment (untrusted).
    Normal,
    /// The trusted execution environment.
    Secure,
}

impl std::fmt::Display for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            World::Normal => write!(f, "normal world"),
            World::Secure => write!(f, "secure world"),
        }
    }
}

/// Configuration for a simulated device.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Device-unique seed from which the fused OTPMK is derived.
    ///
    /// Two platforms built from the same seed model the same physical device
    /// (e.g. across reboots); different seeds model different devices.
    pub device_seed: Vec<u8>,
    /// World-transition / peripheral latency policy.
    pub latency: LatencyPolicy,
    /// Maximum shared-memory buffer size in bytes.
    ///
    /// The paper patches OP-TEE to allow 9 MB, "the largest value that would
    /// not break OP-TEE" (§V).
    pub shared_memory_cap: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            device_seed: b"watz-default-device".to_vec(),
            latency: LatencyPolicy::disabled(),
            shared_memory_cap: 9 * 1024 * 1024,
        }
    }
}

impl PlatformConfig {
    /// Config with paper-calibrated latency injection enabled (for benches).
    #[must_use]
    pub fn with_paper_latencies() -> Self {
        PlatformConfig {
            latency: LatencyPolicy::paper(),
            ..Self::default()
        }
    }
}

/// A simulated TrustZone-capable device.
///
/// Cloning yields another handle onto the *same* device.
#[derive(Debug, Clone)]
pub struct Platform {
    inner: Arc<PlatformInner>,
}

#[derive(Debug)]
struct PlatformInner {
    efuses: Mutex<EFuses>,
    caam: Caam,
    latency: LatencyPolicy,
    secure_booted: AtomicBool,
    stats: TransitionStats,
    shmem: shmem::Registry,
}

impl Platform {
    /// Builds a device from a configuration.
    #[must_use]
    pub fn new(config: PlatformConfig) -> Self {
        Platform {
            inner: Arc::new(PlatformInner {
                efuses: Mutex::new(EFuses::new()),
                caam: Caam::fuse(&config.device_seed),
                latency: config.latency,
                secure_booted: AtomicBool::new(false),
                stats: TransitionStats::new(),
                shmem: shmem::Registry::new(config.shared_memory_cap),
            }),
        }
    }

    /// Access to the eFuse bank.
    pub fn with_efuses<R>(&self, f: impl FnOnce(&mut EFuses) -> R) -> R {
        f(&mut self.inner.efuses.lock())
    }

    /// The cryptographic accelerator and assurance module (root of trust).
    #[must_use]
    pub fn caam(&self) -> CaamHandle<'_> {
        CaamHandle { platform: self }
    }

    /// Whether a verified secure boot has completed.
    #[must_use]
    fn is_secure_booted(&self) -> bool {
        self.inner.secure_booted.load(Ordering::SeqCst)
    }

    /// Performs the secure boot sequence with the given chain.
    ///
    /// The ROM verifies the first image against the public-key hash stored
    /// in the eFuses; each stage then verifies the next. On success the
    /// secure world is considered booted and the secure MKVB becomes
    /// available.
    ///
    /// # Errors
    ///
    /// Returns a [`BootError`] describing the first stage that failed
    /// verification; the platform remains un-booted in that case.
    pub fn secure_boot(&self, chain: &BootChain) -> Result<(), BootError> {
        let efuses = self.inner.efuses.lock();
        boot::verify_chain(&efuses, chain)?;
        drop(efuses);
        self.inner.secure_booted.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Executes `f` in the secure world, modelling an SMC world switch.
    ///
    /// Injects the enter latency before and the leave latency after `f`
    /// according to the platform's latency policy, and records the
    /// transition in [`Platform::transition_stats`].
    pub fn enter_secure<R>(&self, f: impl FnOnce() -> R) -> R {
        self.inner.latency.inject(latency::Event::EnterSecure);
        self.inner.stats.record_enter();
        let result = f();
        self.inner.latency.inject(latency::Event::LeaveSecure);
        self.inner.stats.record_leave();
        result
    }

    /// Injects the cost of a secure-world peripheral query (e.g. reading the
    /// normal-world monotonic clock from the secure side, ~10 µs in Fig 3a).
    pub fn secure_peripheral_delay(&self) {
        self.inner.latency.inject(latency::Event::SecureTimeQuery);
    }

    /// World-transition statistics (for Fig 3b instrumentation).
    #[must_use]
    pub fn transition_stats(&self) -> &TransitionStats {
        &self.inner.stats
    }

    /// The latency policy in force.
    #[must_use]
    pub fn latency_policy(&self) -> &LatencyPolicy {
        &self.inner.latency
    }

    /// Allocates a shared-memory buffer visible to both worlds.
    ///
    /// # Errors
    ///
    /// Returns [`SharedMemoryError::CapExceeded`] if `len` exceeds the
    /// platform cap (9 MB by default, matching the patched OP-TEE limit).
    pub fn alloc_shared(&self, len: usize) -> Result<SharedBuffer, SharedMemoryError> {
        self.inner.shmem.alloc(len)
    }
}

/// Borrowed access to the CAAM, gating the secure MKVB on secure boot.
#[derive(Debug)]
pub struct CaamHandle<'a> {
    platform: &'a Platform,
}

impl CaamHandle<'_> {
    /// Returns the master key verification blob for the requesting world.
    ///
    /// The CAAM produces *different* hashes of the OTPMK for the two worlds
    /// (§V), so a compromised normal world never learns the secure-world
    /// value. The secure-world MKVB additionally requires a completed secure
    /// boot, modelling the hardware gating of key material.
    ///
    /// # Errors
    ///
    /// Returns [`rot::RotError::SecureBootRequired`] when asking for the
    /// secure-world MKVB before a verified boot.
    pub fn mkvb(&self, world: World) -> Result<[u8; 32], rot::RotError> {
        if world == World::Secure && !self.platform.is_secure_booted() {
            return Err(rot::RotError::SecureBootRequired);
        }
        Ok(self.platform.inner.caam.mkvb(world))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secure_mkvb_gated_on_boot() {
        let p = Platform::new(PlatformConfig::default());
        assert!(p.caam().mkvb(World::Secure).is_err());
        boot::install_genuine_chain(&p).unwrap();
        assert!(p.caam().mkvb(World::Secure).is_ok());
    }

    #[test]
    fn mkvb_differs_per_world() {
        let p = Platform::new(PlatformConfig::default());
        boot::install_genuine_chain(&p).unwrap();
        let normal = p.caam().mkvb(World::Normal).unwrap();
        let secure = p.caam().mkvb(World::Secure).unwrap();
        assert_ne!(normal, secure);
    }

    #[test]
    fn mkvb_is_device_unique() {
        let mk = |seed: &[u8]| {
            let p = Platform::new(PlatformConfig {
                device_seed: seed.to_vec(),
                ..PlatformConfig::default()
            });
            boot::install_genuine_chain(&p).unwrap();
            p.caam().mkvb(World::Secure).unwrap()
        };
        assert_ne!(mk(b"device-a"), mk(b"device-b"));
        assert_eq!(mk(b"device-a"), mk(b"device-a"));
    }

    #[test]
    fn enter_secure_counts_transitions() {
        let p = Platform::new(PlatformConfig::default());
        let x = p.enter_secure(|| 21 * 2);
        assert_eq!(x, 42);
        assert_eq!(p.transition_stats().enters(), 1);
        assert_eq!(p.transition_stats().leaves(), 1);
    }

    #[test]
    fn clone_shares_device() {
        let p = Platform::new(PlatformConfig::default());
        let q = p.clone();
        boot::install_genuine_chain(&p).unwrap();
        assert!(q.is_secure_booted());
    }
}
