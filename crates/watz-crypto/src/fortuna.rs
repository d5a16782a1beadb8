//! Fortuna PRNG (Ferguson & Schneier), generator part.
//!
//! OP-TEE's stock PRNG cannot be seeded, so the WaTZ authors added Fortuna to
//! LibTomCrypt and feed it the MKVB (the hash of the fused OTPMK) to derive
//! the device attestation key pair **deterministically at every boot** (§V).
//! We reproduce exactly that usage: a seedable, deterministic generator.
//!
//! The generator is AES-256 in counter mode; reseeding sets
//! `key = SHA-256(key || seed)`, and after every request the key is replaced
//! by two fresh counter blocks (the "generator gate") so earlier outputs
//! cannot be reconstructed from a captured state.

use crate::aes::Aes;
use crate::sha256::Sha256;

/// Fortuna generator.
#[derive(Clone)]
pub struct Fortuna {
    key: [u8; 32],
    counter: u128,
    cipher: Aes,
}

impl core::fmt::Debug for Fortuna {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fortuna {{ counter: {} }}", self.counter)
    }
}

impl Fortuna {
    /// Creates a generator seeded with `seed` (e.g. the device MKVB).
    #[must_use]
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut g = Fortuna {
            key: [0u8; 32],
            counter: 0,
            cipher: Aes::new_256(&[0u8; 32]),
        };
        g.reseed(seed);
        g
    }

    /// Mixes additional seed material into the generator state.
    fn reseed(&mut self, seed: &[u8]) {
        let mut h = Sha256::new();
        h.update(&self.key);
        h.update(seed);
        self.key = h.finalize();
        self.counter = self.counter.wrapping_add(1);
        self.cipher = Aes::new_256(&self.key);
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(16) {
            let block = self.next_block();
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
        // Generator gate: rekey so previous outputs are unrecoverable.
        let k0 = self.next_block();
        let k1 = self.next_block();
        self.key[..16].copy_from_slice(&k0);
        self.key[16..].copy_from_slice(&k1);
        self.cipher = Aes::new_256(&self.key);
    }

    /// Returns `n` pseudorandom bytes.
    #[must_use]
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill_bytes(&mut out);
        out
    }

    /// Returns a pseudorandom `u64`.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.fill_bytes(&mut buf);
        u64::from_le_bytes(buf)
    }

    fn next_block(&mut self) -> [u8; 16] {
        // Counter is encoded little-endian per the Fortuna reference design.
        let block = self.cipher.encrypt(&self.counter.to_le_bytes());
        self.counter = self.counter.wrapping_add(1);
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Fortuna::from_seed(b"mkvb");
        let mut b = Fortuna::from_seed(b"mkvb");
        assert_eq!(a.bytes(100), b.bytes(100));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Fortuna::from_seed(b"device-a");
        let mut b = Fortuna::from_seed(b"device-b");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = Fortuna::from_seed(b"seed");
        let mut b = Fortuna::from_seed(b"seed");
        b.reseed(b"entropy");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn generator_gate_rolls_key() {
        let mut g = Fortuna::from_seed(b"seed");
        let first = g.bytes(16);
        let second = g.bytes(16);
        assert_ne!(first, second);
    }

    #[test]
    fn output_looks_balanced() {
        // Crude sanity check: ~50% ones over 64 KiB.
        let mut g = Fortuna::from_seed(b"balance");
        let data = g.bytes(65536);
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        let total = 65536 * 8;
        let ratio = f64::from(ones) / f64::from(total as u32);
        assert!((0.49..0.51).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn partial_block_requests() {
        let mut g = Fortuna::from_seed(b"partial");
        assert_eq!(g.bytes(1).len(), 1);
        assert_eq!(g.bytes(17).len(), 17);
        assert_eq!(g.bytes(0).len(), 0);
    }
}
