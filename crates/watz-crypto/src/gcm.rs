//! AES-128-GCM (NIST SP 800-38D): WaTZ encrypts the `msg3` secret blob under
//! the session key `Ke` (§IV), and Fig 7 sweeps the blob from 0.5 MB to 3 MB
//! through exactly this code.
//!
//! # Construction
//!
//! CTR runs on the T-table [`Aes`]; a counter block is a `u128` with the IV
//! in its top 96 bits and the `inc_32` counter as a wrapping `u32` below.
//! GHASH multiplies by `H` through a per-key 8-bit Shoup table: `table[b]` is
//! the byte `b`, read as coefficients of `x^0..x^7`, times `H` (256 x `u128`
//! = 4 KiB, built by 7 shifts and 247 XORs in under a microsecond). A block
//! is 16 independent table loads accumulated at their byte offsets into 256
//! bits; the overflow of at most 120 bits folds back once through
//! `x^128 = 1 + x + x^2 + x^7`, so there is no reduction table and no serial
//! reduce-per-byte chain.
//!
//! Encryption runs CTR then GHASH over the same cache-resident 4 KiB chunk.
//! Decryption hashes the whole ciphertext, compares the tag in constant time
//! and only then runs CTR: no plaintext exists before the tag verifies, and a
//! failed call leaves the buffer as it was. [`AesGcm128::encrypt`] and
//! [`AesGcm128::decrypt`] are `to_vec` plus the in-place call.
//!
//! # Data independence
//!
//! No branch and no loop count depends on key, plaintext or hash state. The
//! only secret-indexed memory accesses are table loads (this table and the
//! T-tables), of the kind a byte-wise AES already performs on its S-box; see
//! the caveat in [`crate::aes`].

use crate::aes::{load_be, Aes};
use crate::{ct_eq, CryptoError, Result};

/// GCM authentication tag length in bytes.
pub(crate) const TAG_LEN: usize = 16;

/// Recommended IV length in bytes (96 bits).
pub(crate) const IV_LEN: usize = 12;

/// Bytes encrypted and then hashed per pass of `encrypt_in_place`: small
/// enough to still be in the L1 data cache for the second touch.
const CHUNK: usize = 4096;

/// AES-128-GCM AEAD cipher.
///
/// ```
/// use watz_crypto::gcm::AesGcm128;
/// let cipher = AesGcm128::new(&[0x42; 16]);
/// let iv = [7u8; 12];
/// let (ct, tag) = cipher.encrypt(&iv, b"secret blob", b"evidence header");
/// let pt = cipher.decrypt(&iv, &ct, b"evidence header", &tag).unwrap();
/// assert_eq!(pt, b"secret blob");
/// ```
#[derive(Clone)]
pub struct AesGcm128 {
    aes: Aes,
    table: [u128; 256],
}

impl core::fmt::Debug for AesGcm128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // `table` is a function of the key: never print it.
        write!(f, "AesGcm128 {{ .. }}")
    }
}

impl AesGcm128 {
    /// Creates a cipher from a 128-bit key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let aes = Aes::new_128(key);
        let table = shoup_table(aes.encrypt_u128(0));
        AesGcm128 { aes, table }
    }

    /// Encrypts `plaintext` with additional authenticated data `aad`.
    ///
    /// Returns the ciphertext and the 16-byte authentication tag.
    #[must_use]
    pub fn encrypt(
        &self,
        iv: &[u8; IV_LEN],
        plaintext: &[u8],
        aad: &[u8],
    ) -> (Vec<u8>, [u8; TAG_LEN]) {
        let mut ct = plaintext.to_vec();
        let tag = self.encrypt_in_place(iv, &mut ct, aad);
        (ct, tag)
    }

    /// Encrypts `data` in place and returns the authentication tag over
    /// `aad` and the resulting ciphertext.
    #[must_use]
    pub fn encrypt_in_place(
        &self,
        iv: &[u8; IV_LEN],
        data: &mut [u8],
        aad: &[u8],
    ) -> [u8; TAG_LEN] {
        let j0 = j0(iv);
        let mut y = self.ghash(0, aad);
        let mut counter = 2;
        for chunk in data.chunks_mut(CHUNK) {
            counter = self.ctr(j0, counter, chunk);
            y = self.ghash(y, chunk);
        }
        self.tag(j0, y, aad.len(), data.len())
    }

    /// Decrypts `ciphertext`, verifying the tag against the AAD first.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] if the tag does not
    /// verify; no plaintext is released in that case.
    pub fn decrypt(
        &self,
        iv: &[u8; IV_LEN],
        ciphertext: &[u8],
        aad: &[u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<Vec<u8>> {
        let mut pt = ciphertext.to_vec();
        self.decrypt_in_place(iv, &mut pt, aad, tag)?;
        Ok(pt)
    }

    /// Verifies `tag` over `aad` and the ciphertext in `data`, then decrypts
    /// `data` in place.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] if the tag does not
    /// verify; `data` is left exactly as it was in that case.
    pub fn decrypt_in_place(
        &self,
        iv: &[u8; IV_LEN],
        data: &mut [u8],
        aad: &[u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<()> {
        let j0 = j0(iv);
        let y = self.ghash(self.ghash(0, aad), data);
        if !ct_eq(&self.tag(j0, y, aad.len(), data.len()), tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        self.ctr(j0, 2, data);
        Ok(())
    }

    /// XORs the keystream of counter blocks `counter`, `counter + 1`, ...
    /// (`inc_32`: the low word wraps, the IV part never changes) into `data`
    /// and returns the next counter.
    fn ctr(&self, j0: u128, mut counter: u32, data: &mut [u8]) -> u32 {
        let iv = j0 & !0xffff_ffff;
        for chunk in data.chunks_mut(16) {
            let keystream = self.aes.encrypt_u128(iv | u128::from(counter));
            counter = counter.wrapping_add(1);
            store(chunk, load_be(chunk) ^ keystream);
        }
        counter
    }

    /// Absorbs `data`, zero-padded to whole blocks, into the GHASH state.
    fn ghash(&self, mut y: u128, data: &[u8]) -> u128 {
        for chunk in data.chunks(16) {
            y = self.mul_h(y ^ load_be(chunk));
        }
        y
    }

    fn tag(&self, j0: u128, y: u128, aad_len: usize, ct_len: usize) -> [u8; TAG_LEN] {
        let lengths = ((aad_len as u128 * 8) << 64) | (ct_len as u128 * 8);
        (self.mul_h(y ^ lengths) ^ self.aes.encrypt_u128(j0)).to_be_bytes()
    }

    /// `x * H` in GF(2^128), GCM bit order (bit 127 of the `u128` is `x^0`,
    /// so multiplying by `x` is a right shift).
    fn mul_h(&self, x: u128) -> u128 {
        let bytes = x.to_be_bytes();
        // Byte i contributes table[byte] * x^(8i). Bytes i and i + 8 differ
        // by a whole 64-bit word, so eight Horner steps of x^8 cover all 16;
        // `hi` holds x^0..x^127, `lo` the overflow x^128..x^247.
        let (mut hi, mut lo) = (0u128, 0u128);
        for i in (0..8).rev() {
            let (m0, m1) = (
                self.table[bytes[i] as usize],
                self.table[bytes[i + 8] as usize],
            );
            lo = (lo >> 8) ^ (hi << 120) ^ (m1 << 64);
            hi = (hi >> 8) ^ m0 ^ (m1 >> 64);
        }
        // x^128 = 1 + x + x^2 + x^7; the low 8 bits of `lo` are zero, so
        // nothing shifts out and one fold is a full reduction.
        hi ^ lo ^ (lo >> 1) ^ (lo >> 2) ^ (lo >> 7)
    }
}

/// The GCM polynomial's low terms `1 + x + x^2 + x^7`, in GCM bit order.
const R: u128 = 0xe1 << 120;

/// `table[b]` = the byte `b`, as the coefficients of `x^0..x^7`, times `h`.
fn shoup_table(h: u128) -> [u128; 256] {
    let mut table = [0u128; 256];
    // Single-bit bytes: 0x80 is x^0, so `h` itself; each next bit is one
    // more multiplication by x (a right shift, reduced without a branch).
    let mut v = h;
    let mut bit = 0x80;
    while bit > 0 {
        table[bit] = v;
        v = (v >> 1) ^ ((v & 1).wrapping_neg() & R);
        bit >>= 1;
    }
    // Every other byte is the XOR of its bits, by linearity.
    let mut top = 2;
    while top < 256 {
        for low in 1..top {
            table[top | low] = table[top] ^ table[low];
        }
        top <<= 1;
    }
    table
}

/// 96-bit IV: `J0 = IV || 0^31 || 1`.
fn j0(iv: &[u8; IV_LEN]) -> u128 {
    let mut block = [0u8; 16];
    block[..IV_LEN].copy_from_slice(iv);
    block[15] = 1;
    u128::from_be_bytes(block)
}

/// Writes the leading `chunk.len()` bytes of the big-endian block `value`.
fn store(chunk: &mut [u8], value: u128) {
    chunk.copy_from_slice(&value.to_be_bytes()[..chunk.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The bitwise GF(2^128) multiply that the table replaced: the oracle.
    fn gf_mul(x: u128, y: u128) -> u128 {
        let mut z = 0u128;
        let mut v = y;
        for i in 0..128 {
            if (x >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        z
    }

    /// The byte-block `inc_32` that the `u32` counter replaced.
    fn inc32(mut block: [u8; 16]) -> [u8; 16] {
        let ctr = u32::from_be_bytes([block[12], block[13], block[14], block[15]]).wrapping_add(1);
        block[12..].copy_from_slice(&ctr.to_be_bytes());
        block
    }

    /// SP 800-38D composed from single-block `Aes::encrypt`, `inc32` and
    /// `gf_mul`, sharing no loop with the production code.
    fn reference(key: &[u8; 16], iv: &[u8; 12], pt: &[u8], aad: &[u8]) -> (Vec<u8>, [u8; 16]) {
        let aes = Aes::new_128(key);
        let h = u128::from_be_bytes(aes.encrypt(&[0u8; 16]));
        let j0 = j0(iv).to_be_bytes();
        let mut counter = inc32(j0);
        let mut ct = pt.to_vec();
        for chunk in ct.chunks_mut(16) {
            for (b, k) in chunk.iter_mut().zip(aes.encrypt(&counter)) {
                *b ^= k;
            }
            counter = inc32(counter);
        }
        let mut y = 0u128;
        for chunk in aad.chunks(16).chain(ct.chunks(16)) {
            y = gf_mul(y ^ load_be(chunk), h);
        }
        let lengths = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
        y = gf_mul(y ^ lengths, h) ^ u128::from_be_bytes(aes.encrypt(&j0));
        (ct, y.to_be_bytes())
    }

    /// Both directions against `reference`, for each length crossed with AAD
    /// lengths 0/1/16/20.
    fn check_against_reference(lengths: impl Iterator<Item = usize>) {
        let (key, iv) = (*b"0123456789abcdef", [9u8; 12]);
        let cipher = AesGcm128::new(&key);
        let src: Vec<u8> = (0..65_537u32).map(|i| (i * 31 % 251) as u8).collect();
        for len in lengths {
            for aad_len in [0, 1, 16, 20] {
                let (pt, aad) = (&src[..len], &src[100..100 + aad_len]);
                let (ct, tag) = reference(&key, &iv, pt, aad);
                assert_eq!(cipher.decrypt(&iv, &ct, aad, &tag).as_deref(), Ok(pt));
                assert_eq!(cipher.encrypt(&iv, pt, aad), (ct, tag), "{len}/{aad_len}");
            }
        }
    }

    #[test]
    fn roundtrip_with_aad() {
        check_against_reference(0..=80);
    }

    #[test]
    fn large_payload_roundtrip() {
        // Each side of the first two chunk boundaries, then many chunks.
        let boundaries = [CHUNK, 2 * CHUNK].into_iter().flat_map(|b| b - 1..=b + 1);
        check_against_reference(boundaries.chain([65_537]));
    }

    fn xorshift128(state: &mut u64) -> u128 {
        let mut word = || {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            u128::from(*state)
        };
        (word() << 64) | word()
    }

    #[test]
    fn table_multiply_matches_bitwise_oracle() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut edges = vec![0, u128::MAX];
        edges.extend((0..128).map(|bit| 1u128 << bit));
        for round in 0..40 {
            // H = 0, H = 1 (x^0 is bit 127), H = all-ones, then seeded draws.
            let fixed = [0, 1 << 127, u128::MAX].get(round).copied();
            let h = fixed.unwrap_or_else(|| xorshift128(&mut rng));
            let aes = Aes::new_128(&[0u8; 16]);
            let table = shoup_table(h);
            let cipher = AesGcm128 { aes, table };
            let draws: Vec<u128> = (0..30).map(|_| xorshift128(&mut rng)).collect();
            for &x in edges.iter().chain(&[h]).chain(&draws) {
                assert_eq!(cipher.mul_h(x), gf_mul(x, h), "x={x:032x} h={h:032x}");
            }
        }
    }

    #[test]
    fn ctr_wraps_like_inc32() {
        let key = [0x11u8; 16];
        let (cipher, aes) = (AesGcm128::new(&key), Aes::new_128(&key));
        let mut block = [0xabu8; 16];
        block[12..].copy_from_slice(&0xffff_fffeu32.to_be_bytes());
        let mut data = [0u8; 70];
        let next = cipher.ctr(u128::from_be_bytes(block), 0xffff_fffe, &mut data);
        assert_eq!(next, 3, "five blocks: fffffffe, ffffffff, 0, 1, 2");
        for chunk in data.chunks(16) {
            assert_eq!(chunk, &aes.encrypt(&block)[..chunk.len()]);
            block = inc32(block);
        }
        assert_eq!(block[..12], [0xab; 12], "no carry into the IV");
    }

    // NIST GCM spec, test case 1: zero key, zero IV, empty everything.
    #[test]
    fn nist_case1_empty() {
        let cipher = AesGcm128::new(&[0u8; 16]);
        let tag = cipher.encrypt_in_place(&[0u8; 12], &mut [], b"");
        assert_eq!(hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
        cipher
            .decrypt_in_place(&[0u8; 12], &mut [], b"", &tag)
            .unwrap();
    }

    // NIST GCM spec, test case 2: zero key/IV, 16 zero bytes of plaintext.
    #[test]
    fn nist_case2_single_block() {
        let cipher = AesGcm128::new(&[0u8; 16]);
        let mut buf = [0u8; 16];
        let tag = cipher.encrypt_in_place(&[0u8; 12], &mut buf, b"");
        assert_eq!(hex(&buf), "0388dace60b6a392f328c2b971b2fe78");
        assert_eq!(hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
        cipher
            .decrypt_in_place(&[0u8; 12], &mut buf, b"", &tag)
            .unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    /// Encrypts 100 bytes under AAD `"aad-one"`, lets `tamper` edit the
    /// message, and expects `decrypt` to fail and `decrypt_in_place` to
    /// leave its buffer byte-for-byte as it was.
    fn assert_rejected(tamper: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>, &mut [u8; 16])) {
        let (cipher, iv) = (AesGcm128::new(&[1u8; 16]), [2u8; 12]);
        let mut aad = b"aad-one".to_vec();
        let (mut ct, mut tag) = cipher.encrypt(&iv, &[0x5a; 100], &aad);
        tamper(&mut ct, &mut aad, &mut tag);
        let failed = CryptoError::AuthenticationFailed;
        assert_eq!(cipher.decrypt(&iv, &ct, &aad, &tag), Err(failed));
        let mut buf = ct.clone();
        let in_place = cipher.decrypt_in_place(&iv, &mut buf, &aad, &tag);
        assert_eq!((in_place, buf), (Err(failed), ct));
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        assert_rejected(|ct, _, _| ct[99] ^= 1);
    }

    #[test]
    fn tampered_tag_rejected() {
        assert_rejected(|_, _, tag| tag[15] ^= 0x80);
    }

    #[test]
    fn wrong_aad_rejected() {
        assert_rejected(|_, aad, _| aad[6] = b'2');
    }

    #[test]
    fn debug_hides_key_material() {
        let shown = format!("{:?}", AesGcm128::new(&[0xa5; 16]));
        assert_eq!(shown, "AesGcm128 { .. }");
    }
}
