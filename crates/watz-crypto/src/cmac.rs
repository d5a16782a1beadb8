//! AES-CMAC-128 (NIST SP 800-38B / RFC 4493).
//!
//! WaTZ appends an AES-CMAC to `msg1` and `msg2` under the session MAC key
//! `Km`, and its SGX-derived KDF (see [`crate::kdf`]) is a CMAC chain.

use crate::aes::{load_be, Aes};

/// CMAC output length in bytes.
pub(crate) const MAC_LEN: usize = 16;

/// AES-CMAC instance keyed with a 128-bit key. Blocks are big-endian
/// `u128`s, the form the block cipher takes.
#[derive(Clone)]
pub struct AesCmac {
    aes: Aes,
    k1: u128,
    k2: u128,
}

impl core::fmt::Debug for AesCmac {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The subkeys are key material: never print them.
        write!(f, "AesCmac {{ .. }}")
    }
}

impl AesCmac {
    /// Creates a CMAC instance, deriving the two subkeys K1/K2.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let aes = Aes::new_128(key);
        let k1 = dbl(aes.encrypt_u128(0));
        let k2 = dbl(k1);
        AesCmac { aes, k1, k2 }
    }

    /// Computes the CMAC of `msg`.
    #[must_use]
    pub fn mac(&self, msg: &[u8]) -> [u8; MAC_LEN] {
        // The last block is the final 1..=16 bytes (or nothing, for the
        // empty message); everything before it is whole blocks.
        let (head, tail) = msg.split_at(msg.len().saturating_sub(1) / 16 * 16);
        let mut x = 0u128;
        for block in head.chunks_exact(16) {
            x = self.aes.encrypt_u128(x ^ load_be(block));
        }
        let last = if tail.len() == 16 {
            load_be(tail) ^ self.k1
        } else {
            // Pad with a single 1 bit right after the tail.
            (load_be(tail) | (0x80 << (120 - 8 * tail.len()))) ^ self.k2
        };
        self.aes.encrypt_u128(x ^ last).to_be_bytes()
    }
}

/// One-shot convenience: `AES-CMAC(key, msg)`.
#[must_use]
pub fn aes_cmac(key: &[u8; 16], msg: &[u8]) -> [u8; MAC_LEN] {
    AesCmac::new(key).mac(msg)
}

/// Doubling in GF(2^128) with the CMAC polynomial 0x87, branch-free.
fn dbl(block: u128) -> u128 {
    (block << 1) ^ ((block >> 127) * 0x87)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    const MSG64: [u8; 64] = [
        0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17,
        0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
        0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a,
        0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b,
        0xe6, 0x6c, 0x37, 0x10,
    ];

    // RFC 4493 test vector 1: empty message.
    #[test]
    fn rfc4493_empty() {
        assert_eq!(
            hex(&aes_cmac(&KEY, b"")),
            "bb1d6929e95937287fa37d129b756746"
        );
    }

    // RFC 4493 test vector 2: 16-byte message.
    #[test]
    fn rfc4493_one_block() {
        assert_eq!(
            hex(&aes_cmac(&KEY, &MSG64[..16])),
            "070a16b46b4d4144f79bdd9dd04a287c"
        );
    }

    // RFC 4493 test vector 3: 40-byte message.
    #[test]
    fn rfc4493_partial_blocks() {
        assert_eq!(
            hex(&aes_cmac(&KEY, &MSG64[..40])),
            "dfa66747de9ae63030ca32611497c827"
        );
    }

    // RFC 4493 test vector 4: full 64-byte message.
    #[test]
    fn rfc4493_four_blocks() {
        assert_eq!(
            hex(&aes_cmac(&KEY, &MSG64)),
            "51f0bebf7e3b9d92fc49741779363cfe"
        );
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(aes_cmac(&KEY, b"msg"), aes_cmac(&[0u8; 16], b"msg"));
    }

    #[test]
    fn instance_reusable() {
        let mac = AesCmac::new(&KEY);
        assert_eq!(mac.mac(b"a"), mac.mac(b"a"));
        assert_ne!(mac.mac(b"a"), mac.mac(b"b"));
    }
}
