//! SHA-256 (FIPS 180-4).
//!
//! Used by WaTZ for the Wasm bytecode measurement embedded in attestation
//! evidence, for the session anchor `HASH(Ga || Gv)`, and inside HMAC /
//! Fortuna.

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Size of a SHA-256 input block in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use watz_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Whole blocks are read where they lie.
        let (blocks, rest) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the hash and returns the digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length.
        self.update(&[0x80]);
        // `update` adjusted total_len; undo that for the pad bytes.
        self.total_len = self.total_len.wrapping_sub(1);
        while self.buf_len != 56 {
            self.update(&[0]);
            self.total_len = self.total_len.wrapping_sub(1);
        }
        self.update(&bit_len.to_be_bytes());

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The compression function over every 64-byte block of `blocks` (whose
/// length is a multiple of [`BLOCK_LEN`]).
///
/// The message schedule is a 16-word window extended in place — `W[t]`
/// overwrites `W[t-16]`, its last reader — and a round writes only two of
/// the eight working variables, so eight rounds with the names rotated one
/// place each stand for the textbook's shuffle without moving anything.
/// `ch` and `maj` are in their three-operation forms.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let before = [a, b, c, d, e, f, g, h];

        // `W[i]` of the first sixteen rounds: the block itself.
        macro_rules! loaded {
            ($i:expr) => {
                w[$i]
            };
        }
        // `W[t]` of a later round, `t = i (mod 16)`, written over `W[t-16]`.
        macro_rules! extended {
            ($i:expr) => {{
                let (w15, w2) = (w[($i + 1) & 15], w[($i + 14) & 15]);
                w[$i] = w[$i]
                    .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                    .wrapping_add(w[($i + 9) & 15])
                    .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
                w[$i]
            }};
        }
        // One round with the working variables in the named roles.
        macro_rules! round {
            ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $k:expr, $w:expr) => {
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add($g ^ ($e & ($f ^ $g)))
                    .wrapping_add($k)
                    .wrapping_add($w);
                $d = $d.wrapping_add(t1);
                $h = t1
                    .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) | ($c & ($a | $b)));
            };
        }
        // Rounds `t + i .. t + i + 8`, after which every name is back in
        // its own role.
        macro_rules! eight_rounds {
            ($w:ident, $t:expr, $i:expr) => {
                round!(a b c d e f g h, K[$t + $i], $w!($i));
                round!(h a b c d e f g, K[$t + $i + 1], $w!($i + 1));
                round!(g h a b c d e f, K[$t + $i + 2], $w!($i + 2));
                round!(f g h a b c d e, K[$t + $i + 3], $w!($i + 3));
                round!(e f g h a b c d, K[$t + $i + 4], $w!($i + 4));
                round!(d e f g h a b c, K[$t + $i + 5], $w!($i + 5));
                round!(c d e f g h a b, K[$t + $i + 6], $w!($i + 6));
                round!(b c d e f g h a, K[$t + $i + 7], $w!($i + 7));
            };
        }
        eight_rounds!(loaded, 0, 0);
        eight_rounds!(loaded, 0, 8);
        eight_rounds!(extended, 16, 0);
        eight_rounds!(extended, 16, 8);
        eight_rounds!(extended, 32, 0);
        eight_rounds!(extended, 32, 8);
        eight_rounds!(extended, 48, 0);
        eight_rounds!(extended, 48, 8);

        a = a.wrapping_add(before[0]);
        b = b.wrapping_add(before[1]);
        c = c.wrapping_add(before[2]);
        d = d.wrapping_add(before[3]);
        e = e.wrapping_add(before[4]);
        f = f.wrapping_add(before[5]);
        g = g.wrapping_add(before[6]);
        h = h.wrapping_add(before[7]);
    }
    *state = [a, b, c, d, e, f, g, h];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// FIPS 180-4 section 6.2.2 as written — a 64-word schedule, then 64
    /// rounds that shuffle all eight working variables: the routine
    /// [`compress`] replaced, kept as its oracle.
    fn compress_textbook(state: &mut [u32; 8], block: &[u8]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// A whole digest on the oracle, padding laid out by hand, so nothing
    /// of [`Sha256::update`] or [`Sha256::finalize`] is shared either.
    fn textbook_digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % BLOCK_LEN != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(BLOCK_LEN) {
            compress_textbook(&mut state, block);
        }
        let mut out = [0u8; DIGEST_LEN];
        for (o, word) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn constants_are_the_roots_of_the_first_primes() {
        // `compress` and its oracle read the same tables, so the tables get
        // a check of their own, from their definition (FIPS 180-4 section
        // 4.2.2 and 5.3.3): the first 32 fractional bits of the cube roots
        // of the first 64 primes, and of the square roots of the first 8.
        let primes: Vec<u32> = (2u32..)
            .filter(|n| (2..*n).all(|d| n % d != 0))
            .take(64)
            .collect();
        let frac32 = |x: f64| (x.fract() * 4_294_967_296.0) as u32;
        for (k, p) in K.iter().zip(&primes) {
            assert_eq!(*k, frac32(f64::from(*p).cbrt()), "K for prime {p}");
        }
        for (h, p) in H0.iter().zip(&primes) {
            assert_eq!(*h, frac32(f64::from(*p).sqrt()), "H0 for prime {p}");
        }
    }

    #[test]
    fn compress_matches_the_textbook_on_random_states_and_block_runs() {
        // The routine itself, not a digest: chaining values other than H0,
        // and runs of 0 to 5 blocks in one call against one call per block.
        let mut rng = XorShift(0x5a17_ab1e_0dd5_eed5);
        for case in 0..200 {
            let blocks = rng.bytes((case % 6) * BLOCK_LEN);
            let mut fast: [u32; 8] = std::array::from_fn(|_| rng.next() as u32);
            let mut slow = fast;
            compress(&mut fast, &blocks);
            for block in blocks.chunks_exact(BLOCK_LEN) {
                compress_textbook(&mut slow, block);
            }
            assert_eq!(fast, slow, "case {case}: {} blocks", case % 6);
        }
    }

    #[test]
    fn every_length_to_300_matches_the_textbook() {
        // Crosses every padding case several times over: a length byte
        // that fits the last block, one that spills, exact multiples.
        let data = XorShift(0x0dd_ba11).bytes(300);
        for len in 0..=data.len() {
            assert_eq!(
                Sha256::digest(&data[..len]),
                textbook_digest(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn random_update_splits_match_the_textbook() {
        // Pieces of 0 to 199 bytes: the buffered head, the in-place run of
        // whole blocks and the buffered tail of `update` in every mix.
        let mut rng = XorShift(0xfeed_5eed_cafe_0001);
        for case in 0..300 {
            let len = (rng.next() % 1500) as usize;
            let data = rng.bytes(len);
            let mut h = Sha256::new();
            let mut rest = &data[..];
            let mut pieces = Vec::new();
            while !rest.is_empty() {
                let take = (rng.next() % 200).min(rest.len() as u64) as usize;
                h.update(&rest[..take]);
                pieces.push(take);
                rest = &rest[take..];
            }
            assert_eq!(
                h.finalize(),
                textbook_digest(&data),
                "case {case}: {len} bytes as {pieces:?}"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_all_splits() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let expect = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }
}
