//! AES block cipher (FIPS 197), 128- and 256-bit keys, encryption only:
//! AES-128 backs CMAC and GCM, AES-256 backs Fortuna, and CTR, CMAC and
//! Fortuna never run the inverse cipher.
//!
//! # Construction
//!
//! The table-driven software AES of TEE crypto libraries on cores without a
//! crypto extension. The state is four big-endian `u32` columns; SubBytes,
//! ShiftRows and MixColumns of a round collapse into four loads per column
//! from the T-tables `TE` (4 x 256 x `u32` = 4 KiB, generated from
//! `SBOX` at compile time); the last round reads `SBOX` directly. The
//! key schedule is a fixed `[u32; 60]`, so expanding a key allocates
//! nothing: Fortuna re-keys after every request.
//!
//! # Data independence
//!
//! No branch and no loop count depends on key or data. The table *indices*
//! are secret state bytes, exactly as the `SBOX[..]` loads of a byte-wise AES
//! are, so an attacker who can observe data-cache lines learns something
//! about them: the usual caveat of portable table AES, and the price of
//! staying in safe, dependency-free Rust.

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// `TE[0][x]` is the MixColumns image of `S[x]` in row 0, the column
/// `(2*S[x], S[x], S[x], 3*S[x])`, as a big-endian word; `TE[k]` is the same
/// column rotated down `k` rows.
static TE: [[u32; 256]; 4] = {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x] as u32;
        let s2 = (s << 1) ^ ((s >> 7) * 0x11b);
        let col = (s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s);
        let mut k = 0;
        while k < 4 {
            te[k][x] = col.rotate_right(8 * k as u32);
            k += 1;
        }
        x += 1;
    }
    te
};

const RCON: [u32; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// An expanded AES key, ready for encryption.
#[derive(Clone)]
pub struct Aes {
    /// Four words per round key; AES-256 fills all 15, AES-128 the first 11.
    round_keys: [u32; 60],
    rounds: usize,
}

impl core::fmt::Debug for Aes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        write!(f, "Aes {{ rounds: {} }}", self.rounds)
    }
}

impl Aes {
    /// Expands a 128-bit key (AES-128, 10 rounds).
    #[must_use]
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, 10)
    }

    /// Expands a 256-bit key (AES-256, 14 rounds).
    #[must_use]
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, 14)
    }

    fn expand(key: &[u8], rounds: usize) -> Self {
        let nk = key.len() / 4;
        let mut w = [0u32; 60];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (RCON[i / nk - 1] << 24);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        Aes {
            round_keys: w,
            rounds,
        }
    }

    /// Encrypts one block held as a big-endian `u128` (the form GCM's
    /// counter and GHASH arithmetic use).
    #[must_use]
    pub(crate) fn encrypt_u128(&self, block: u128) -> u128 {
        let rk = &self.round_keys[..4 * (self.rounds + 1)];
        let word = |c: usize| (block >> (96 - 32 * c)) as u32 ^ rk[c];
        let mut s = [word(0), word(1), word(2), word(3)];
        for k in rk[4..4 * self.rounds].chunks_exact(4) {
            let col = |c: usize| {
                TE[0][(s[c] >> 24) as u8 as usize]
                    ^ TE[1][(s[(c + 1) % 4] >> 16) as u8 as usize]
                    ^ TE[2][(s[(c + 2) % 4] >> 8) as u8 as usize]
                    ^ TE[3][s[(c + 3) % 4] as u8 as usize]
                    ^ k[c]
            };
            s = [col(0), col(1), col(2), col(3)];
        }
        // Last round: no MixColumns, so the plain S-box.
        let k = &rk[4 * self.rounds..];
        let last = |c: usize| {
            let bytes = [
                SBOX[(s[c] >> 24) as u8 as usize],
                SBOX[(s[(c + 1) % 4] >> 16) as u8 as usize],
                SBOX[(s[(c + 2) % 4] >> 8) as u8 as usize],
                SBOX[s[(c + 3) % 4] as u8 as usize],
            ];
            u128::from(u32::from_be_bytes(bytes) ^ k[c]) << (96 - 32 * c)
        };
        last(0) | last(1) | last(2) | last(3)
    }

    /// Returns the encryption of `block` without mutating the input.
    #[must_use]
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        self.encrypt_u128(u128::from_be_bytes(*block)).to_be_bytes()
    }
}

/// Reads up to 16 bytes as a big-endian block, zero-padded on the right.
pub(crate) fn load_be(chunk: &[u8]) -> u128 {
    let mut block = [0u8; 16];
    block[..chunk.len()].copy_from_slice(chunk);
    u128::from_be_bytes(block)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> [u8; 16] {
        core::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    const FIPS197_PT: &str = "00112233445566778899aabbccddeeff";

    // FIPS 197 Appendix C.1.
    #[test]
    fn fips197_aes128() {
        let aes = Aes::new_128(&core::array::from_fn(|i| i as u8));
        let ct = unhex("69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(aes.encrypt(&unhex(FIPS197_PT)), ct);
    }

    // FIPS 197 Appendix C.3.
    #[test]
    fn fips197_aes256() {
        let aes = Aes::new_256(&core::array::from_fn(|i| i as u8));
        let ct = unhex("8ea2b7ca516745bfeafc49904b496089");
        assert_eq!(aes.encrypt(&unhex(FIPS197_PT)), ct);
    }

    fn sp800_38a_ecb(pt: &str, ct: &str) {
        let aes = Aes::new_128(&unhex("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(aes.encrypt(&unhex(pt)), unhex(ct));
    }

    // SP 800-38A F.1.1 (ECB-AES128.Encrypt), block 1.
    #[test]
    fn sp800_38a_ecb_block1() {
        sp800_38a_ecb(
            "6bc1bee22e409f96e93d7e117393172a",
            "3ad77bb40d7a3660a89ecaf32466ef97",
        );
    }

    // SP 800-38A F.1.1, blocks 2-4.
    #[test]
    fn sp800_38a_ecb_blocks_2_to_4() {
        sp800_38a_ecb(
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "f5d3d58503b9699de785895a96fdbaaf",
        );
        sp800_38a_ecb(
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "43b1cd7f598ece23881b00e3ed030688",
        );
        sp800_38a_ecb(
            "f69f2445df4f9b17ad2b417be66c3710",
            "7b0c785e27e8ad3f8223207104725dd4",
        );
    }
}
