//! An OP-TEE-shaped trusted OS model.
//!
//! WaTZ extends OP-TEE (§V); this crate models the OP-TEE surface the paper
//! touches:
//!
//! * **Trusted applications**: OP-TEE runs only TAs signed with the OS
//!   vendor key — the very restriction WaTZ's Wasm sandbox relaxes. The
//!   WaTZ runtime is the one signed TA, and unsigned Wasm applications run
//!   inside it; this model does not verify TA signatures;
//! * **GlobalPlatform-ish services**: time ([`time`]), per-TA heap
//!   accounting with the paper's patched **27 MB** ceiling, and the
//!   *executable page allocation* syscall the authors added so AOT code can
//!   run ([`TrustedOs::alloc_executable`]);
//! * **The tee-supplicant**: sockets in the GP API are proxied through a
//!   normal-world daemon over shared memory; [`net`] models that loopback
//!   network (every transfer crosses a simulated world switch, so the
//!   Table IV end-to-end numbers include the same structural costs as the
//!   paper's).
//!
//! # Example
//!
//! ```
//! use tz_hal::{Platform, PlatformConfig};
//! use optee_sim::TrustedOs;
//!
//! let platform = Platform::new(PlatformConfig::default());
//! tz_hal::boot::install_genuine_chain(&platform).unwrap();
//! let os = TrustedOs::boot(platform).unwrap();
//! assert!(os.alloc_executable(4096).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;
pub mod time;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tz_hal::{Platform, World};
use watz_crypto::fortuna::Fortuna;

/// The paper's patched per-TA heap ceiling: "we modified \[OP-TEE\] to allow
/// up to 27 MB. Pushing further the memory limits leads to OP-TEE
/// malfunctions." (§V)
pub const TA_HEAP_CAP: usize = 27 * 1024 * 1024;

/// Errors from trusted OS services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// `TEE_ERROR_OUT_OF_MEMORY`: the requested allocation exceeds the
    /// remaining TA heap or the global cap.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// The OS was asked to do something requiring a booted secure world.
    NotBooted,
    /// Networking failure (connection refused, peer gone).
    Net(String),
}

impl std::fmt::Display for TeeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeeError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "TEE_ERROR_OUT_OF_MEMORY: requested {requested} bytes, {available} available"
            ),
            TeeError::NotBooted => write!(f, "secure world not booted"),
            TeeError::Net(msg) => write!(f, "supplicant network error: {msg}"),
        }
    }
}

impl std::error::Error for TeeError {}

/// A booted trusted OS instance. Cloning shares the same OS.
#[derive(Debug, Clone)]
pub struct TrustedOs {
    inner: Arc<OsInner>,
}

#[derive(Debug)]
struct OsInner {
    platform: Platform,
    network: Arc<net::Network>,
    /// Seed for the kernel attestation service, derived from the secure
    /// MKVB. Private: user space (TAs) can never read it.
    kernel_attestation_seed: [u8; 32],
    exec_pages_allocated: AtomicUsize,
}

impl TrustedOs {
    /// Boots the trusted OS on a secure-booted platform.
    ///
    /// Derives the kernel attestation seed from the secure-world MKVB via
    /// `huk_subkey_derive`, exactly as the paper's modified OP-TEE does.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::NotBooted`] if the platform has not completed a
    /// verified secure boot — without it the MKVB (and therefore any
    /// attestation key) is unavailable.
    pub fn boot(platform: Platform) -> Result<Self, TeeError> {
        let mkvb = platform
            .caam()
            .mkvb(World::Secure)
            .map_err(|_| TeeError::NotBooted)?;
        let kernel_attestation_seed = tz_hal::rot::huk_subkey_derive(&mkvb, "attestation");
        Ok(TrustedOs {
            inner: Arc::new(OsInner {
                platform,
                network: Arc::new(net::Network::new()),
                kernel_attestation_seed,
                exec_pages_allocated: AtomicUsize::new(0),
            }),
        })
    }

    /// The underlying platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.inner.platform
    }

    /// Allocates executable pages for AOT code.
    ///
    /// Stock OP-TEE "cannot modify the pages' protection to mark them as
    /// executable"; the WaTZ authors added a syscall for it (§V). We model
    /// the capability and account the pages.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::OutOfMemory`] past the 27 MB ceiling.
    pub fn alloc_executable(&self, len: usize) -> Result<ExecPages, TeeError> {
        let prev = self
            .inner
            .exec_pages_allocated
            .fetch_add(len, Ordering::SeqCst);
        if prev + len > TA_HEAP_CAP {
            self.inner
                .exec_pages_allocated
                .fetch_sub(len, Ordering::SeqCst);
            return Err(TeeError::OutOfMemory {
                requested: len,
                available: TA_HEAP_CAP.saturating_sub(prev),
            });
        }
        Ok(ExecPages {
            os: self.clone(),
            len,
        })
    }

    /// Total executable bytes currently allocated.
    #[must_use]
    pub fn exec_bytes_allocated(&self) -> usize {
        self.inner.exec_pages_allocated.load(Ordering::SeqCst)
    }

    /// Creates a heap accountant for one TA, capped at `heap_size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::OutOfMemory`] if `heap_size` exceeds the 27 MB
    /// OS-wide ceiling.
    pub fn create_ta_heap(&self, heap_size: usize) -> Result<TaHeap, TeeError> {
        if heap_size > TA_HEAP_CAP {
            return Err(TeeError::OutOfMemory {
                requested: heap_size,
                available: TA_HEAP_CAP,
            });
        }
        Ok(TaHeap {
            cap: heap_size,
            used: AtomicUsize::new(0),
        })
    }

    /// The supplicant-backed loopback network.
    #[must_use]
    pub fn network(&self) -> &net::Network {
        &self.inner.network
    }

    /// The network as a shareable handle, without holding the whole OS.
    ///
    /// Multi-device simulations shard fleets across several `TrustedOs`
    /// instances; device client threads only need the shard's network, and
    /// this accessor lets them carry exactly that.
    #[must_use]
    pub fn shared_network(&self) -> Arc<net::Network> {
        Arc::clone(&self.inner.network)
    }

    /// Runs `f` with the kernel attestation seed.
    ///
    /// **Kernel-internal**: only the attestation service (a kernel module in
    /// the paper's design) may call this; the WaTZ runtime and hosted Wasm
    /// applications interact with evidence, never with this seed.
    pub fn with_kernel_seed<R>(&self, f: impl FnOnce(&[u8; 32]) -> R) -> R {
        f(&self.inner.kernel_attestation_seed)
    }

    /// A deterministic per-device PRNG stream for a given purpose label.
    #[must_use]
    pub fn kernel_prng(&self, purpose: &str) -> Fortuna {
        let mut seed = self.inner.kernel_attestation_seed.to_vec();
        seed.extend_from_slice(purpose.as_bytes());
        Fortuna::from_seed(&seed)
    }
}

/// RAII handle for executable pages; releases the accounting on drop.
#[derive(Debug)]
pub struct ExecPages {
    os: TrustedOs,
    len: usize,
}

impl ExecPages {
    /// The allocation size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the allocation is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for ExecPages {
    fn drop(&mut self) {
        self.os
            .inner
            .exec_pages_allocated
            .fetch_sub(self.len, Ordering::SeqCst);
    }
}

/// Heap accounting for one trusted application.
///
/// TAs declare heap and stack sizes at compile time (§VI-A); the WaTZ
/// runtime charges the Wasm application's linear memory and bytecode copies
/// against this budget.
#[derive(Debug)]
pub struct TaHeap {
    cap: usize,
    used: AtomicUsize,
}

impl TaHeap {
    /// Charges `len` bytes against the TA heap.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::OutOfMemory`] when the budget is exhausted —
    /// the same failure that forced the paper to scale SQLite's dataset to
    /// 60 % and PolyBench to the medium dataset.
    pub fn charge(&self, len: usize) -> Result<(), TeeError> {
        let prev = self.used.fetch_add(len, Ordering::SeqCst);
        if prev + len > self.cap {
            self.used.fetch_sub(len, Ordering::SeqCst);
            return Err(TeeError::OutOfMemory {
                requested: len,
                available: self.cap.saturating_sub(prev),
            });
        }
        Ok(())
    }

    /// Releases `len` bytes back to the budget.
    pub fn release(&self, len: usize) {
        let current = self.used.load(Ordering::SeqCst);
        self.used.fetch_sub(len.min(current), Ordering::SeqCst);
    }

    /// Bytes currently in use.
    #[must_use]
    pub fn used(&self) -> usize {
        self.used.load(Ordering::SeqCst)
    }

    /// The configured cap.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tz_hal::PlatformConfig;

    fn booted_os() -> TrustedOs {
        let platform = Platform::new(PlatformConfig::default());
        tz_hal::boot::install_genuine_chain(&platform).unwrap();
        TrustedOs::boot(platform).unwrap()
    }

    #[test]
    fn boot_requires_secure_boot() {
        let platform = Platform::new(PlatformConfig::default());
        assert_eq!(TrustedOs::boot(platform).unwrap_err(), TeeError::NotBooted);
    }

    #[test]
    fn kernel_seed_is_stable_across_reboots() {
        // Same device seed => same attestation seed (deterministic keys).
        let seed_of = |device: &[u8]| {
            let platform = Platform::new(PlatformConfig {
                device_seed: device.to_vec(),
                ..PlatformConfig::default()
            });
            tz_hal::boot::install_genuine_chain(&platform).unwrap();
            TrustedOs::boot(platform).unwrap().with_kernel_seed(|s| *s)
        };
        assert_eq!(seed_of(b"device-1"), seed_of(b"device-1"));
        assert_ne!(seed_of(b"device-1"), seed_of(b"device-2"));
    }

    #[test]
    fn ta_heap_enforces_cap() {
        let os = booted_os();
        let heap = os.create_ta_heap(1024).unwrap();
        heap.charge(1000).unwrap();
        assert!(heap.charge(100).is_err());
        heap.release(500);
        heap.charge(100).unwrap();
        assert_eq!(heap.used(), 600);
    }

    #[test]
    fn ta_heap_cannot_exceed_27mb() {
        let os = booted_os();
        assert!(os.create_ta_heap(TA_HEAP_CAP).is_ok());
        assert!(os.create_ta_heap(TA_HEAP_CAP + 1).is_err());
    }

    #[test]
    fn exec_pages_accounted_and_released() {
        let os = booted_os();
        let pages = os.alloc_executable(1 << 20).unwrap();
        assert_eq!(os.exec_bytes_allocated(), 1 << 20);
        drop(pages);
        assert_eq!(os.exec_bytes_allocated(), 0);
    }

    #[test]
    fn exec_pages_capped() {
        let os = booted_os();
        let _a = os.alloc_executable(TA_HEAP_CAP).unwrap();
        assert!(os.alloc_executable(1).is_err());
    }
}
