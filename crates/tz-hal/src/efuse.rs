//! One-time programmable eFuses.
//!
//! The first-stage ROM bootloader verifies the second stage "based on the
//! public key stored in one-time programmable fuses" (§IV). We model a small
//! fuse bank holding the SHA-256 hash of the OEM boot public key plus a few
//! hardware monotonic counters (the paper's suggested rollback mitigation,
//! §VII).

/// Errors from fuse operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseError {
    /// The field was already programmed; eFuses are one-time programmable.
    AlreadyProgrammed,
    /// The field has not been programmed yet.
    NotProgrammed,
    /// Counter index out of range.
    BadCounter,
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::AlreadyProgrammed => write!(f, "fuse already programmed"),
            FuseError::NotProgrammed => write!(f, "fuse not programmed"),
            FuseError::BadCounter => write!(f, "monotonic counter index out of range"),
        }
    }
}

impl std::error::Error for FuseError {}

/// Number of hardware monotonic counters in the modelled bank.
const MONOTONIC_COUNTERS: usize = 4;

/// The simulated eFuse bank.
#[derive(Debug)]
pub struct EFuses {
    boot_pubkey_hash: Option<[u8; 32]>,
    counters: [u64; MONOTONIC_COUNTERS],
}

impl Default for EFuses {
    fn default() -> Self {
        Self::new()
    }
}

impl EFuses {
    /// A blank (un-programmed) fuse bank.
    #[must_use]
    pub fn new() -> Self {
        EFuses {
            boot_pubkey_hash: None,
            counters: [0; MONOTONIC_COUNTERS],
        }
    }

    /// Burns the hash of the OEM boot public key.
    ///
    /// # Errors
    ///
    /// Returns [`FuseError::AlreadyProgrammed`] on a second attempt; real
    /// fuses cannot be rewritten.
    pub fn program_boot_pubkey_hash(&mut self, hash: [u8; 32]) -> Result<(), FuseError> {
        if self.boot_pubkey_hash.is_some() {
            return Err(FuseError::AlreadyProgrammed);
        }
        self.boot_pubkey_hash = Some(hash);
        Ok(())
    }

    /// Reads the programmed boot public-key hash.
    ///
    /// # Errors
    ///
    /// Returns [`FuseError::NotProgrammed`] on a blank bank.
    pub fn boot_pubkey_hash(&self) -> Result<[u8; 32], FuseError> {
        self.boot_pubkey_hash.ok_or(FuseError::NotProgrammed)
    }

    /// Reads monotonic counter `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`FuseError::BadCounter`] if `idx` is out of range.
    pub fn counter(&self, idx: usize) -> Result<u64, FuseError> {
        self.counters.get(idx).copied().ok_or(FuseError::BadCounter)
    }

    /// Increments monotonic counter `idx` and returns the new value.
    ///
    /// Counters only ever move forward — the hardware defence against
    /// storage rollback.
    ///
    /// # Errors
    ///
    /// Returns [`FuseError::BadCounter`] if `idx` is out of range.
    pub fn increment_counter(&mut self, idx: usize) -> Result<u64, FuseError> {
        let c = self.counters.get_mut(idx).ok_or(FuseError::BadCounter)?;
        *c += 1;
        Ok(*c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_is_one_time_programmable() {
        let mut fuses = EFuses::new();
        assert_eq!(fuses.boot_pubkey_hash(), Err(FuseError::NotProgrammed));
        fuses.program_boot_pubkey_hash([1; 32]).unwrap();
        assert_eq!(
            fuses.program_boot_pubkey_hash([2; 32]),
            Err(FuseError::AlreadyProgrammed)
        );
        assert_eq!(fuses.boot_pubkey_hash().unwrap(), [1; 32]);
    }

    #[test]
    fn counters_only_increase() {
        let mut fuses = EFuses::new();
        assert_eq!(fuses.counter(0).unwrap(), 0);
        assert_eq!(fuses.increment_counter(0).unwrap(), 1);
        assert_eq!(fuses.increment_counter(0).unwrap(), 2);
        assert_eq!(fuses.counter(0).unwrap(), 2);
        assert_eq!(fuses.counter(1).unwrap(), 0);
    }

    #[test]
    fn bad_counter_index() {
        let mut fuses = EFuses::new();
        assert_eq!(fuses.counter(99), Err(FuseError::BadCounter));
        assert_eq!(fuses.increment_counter(99), Err(FuseError::BadCounter));
    }
}
