//! Shared memory between the worlds.
//!
//! OP-TEE TAs cannot dereference normal-world memory; instead the normal
//! world allocates a *shared buffer* that both worlds can access (§V). The
//! paper raised OP-TEE's cap on these buffers to 9 MB — the size that
//! bounds the largest Wasm application loadable into WaTZ (Fig 4 stops at
//! 9 MB for exactly this reason).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Errors from shared-memory allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedMemoryError {
    /// Requested size exceeds the platform cap.
    CapExceeded {
        /// Requested size in bytes.
        requested: usize,
        /// Maximum allowed size in bytes.
        cap: usize,
    },
}

impl std::fmt::Display for SharedMemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharedMemoryError::CapExceeded { requested, cap } => write!(
                f,
                "shared buffer of {requested} bytes exceeds the {cap}-byte cap"
            ),
        }
    }
}

impl std::error::Error for SharedMemoryError {}

/// A buffer registered as accessible from both worlds.
///
/// Clones are handles to the same storage, mirroring how a physical shared
/// region is mapped into both address spaces.
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    id: u64,
    data: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// The registration id of this buffer.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Buffer length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.lock().len()
    }

    /// True if the buffer has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies `src` into the buffer starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the write would run past the end of the buffer, modelling
    /// the hardware fault a real out-of-region access would raise.
    pub fn write(&self, offset: usize, src: &[u8]) {
        let mut data = self.data.lock();
        data[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Reads `len` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the read runs past the end of the buffer.
    #[must_use]
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        self.data.lock()[offset..offset + len].to_vec()
    }

    /// Runs `f` with a view of the whole buffer.
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.data.lock())
    }
}

/// Registry of shared buffers for one platform.
#[derive(Debug)]
pub struct Registry {
    cap: usize,
    next_id: AtomicU64,
}

impl Registry {
    /// Creates a registry with the given per-buffer size cap.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Registry {
            cap,
            next_id: AtomicU64::new(1),
        }
    }

    /// Allocates and registers a zeroed buffer of `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SharedMemoryError::CapExceeded`] when `len > cap`.
    pub fn alloc(&self, len: usize) -> Result<SharedBuffer, SharedMemoryError> {
        if len > self.cap {
            return Err(SharedMemoryError::CapExceeded {
                requested: len,
                cap: self.cap,
            });
        }
        Ok(SharedBuffer {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            data: Arc::new(Mutex::new(vec![0; len])),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_within_cap() {
        let reg = Registry::new(1024);
        let buf = reg.alloc(1024).unwrap();
        assert_eq!(buf.len(), 1024);
    }

    #[test]
    fn alloc_over_cap_rejected() {
        let reg = Registry::new(9 * 1024 * 1024);
        let err = reg.alloc(9 * 1024 * 1024 + 1).unwrap_err();
        assert!(matches!(err, SharedMemoryError::CapExceeded { .. }));
    }

    #[test]
    fn both_handles_see_writes() {
        let reg = Registry::new(64);
        let normal_world = reg.alloc(16).unwrap();
        let secure_world = normal_world.clone();
        normal_world.write(0, b"wasm app");
        assert_eq!(secure_world.read(0, 8), b"wasm app");
    }

    #[test]
    fn distinct_ids() {
        let reg = Registry::new(64);
        let a = reg.alloc(8).unwrap();
        let b = reg.alloc(8).unwrap();
        assert_ne!(a.id(), b.id());
    }
}
