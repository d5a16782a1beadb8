//! Known-answer tests for the cryptographic primitives, against published
//! vectors: FIPS 197 (AES), the NIST GCM reference vectors, RFC 4493
//! (AES-CMAC), FIPS 180-4 / NIST examples (SHA-256) and RFC 4231
//! (HMAC-SHA256), RFC 5903 (P-256 ECDH) and RFC 6979 (deterministic
//! ECDSA). The SP 800-108 CMAC-mode KDF (the paper's SGX-style
//! derivation) is checked structurally against the KAT-verified CMAC.

use watz_crypto::aes::Aes;
use watz_crypto::cmac::{aes_cmac, AesCmac};
use watz_crypto::ecdh::EphemeralKeyPair;
use watz_crypto::ecdsa::{Signature, SigningKey, VerifyingKey};
use watz_crypto::fortuna::Fortuna;
use watz_crypto::gcm::AesGcm128;
use watz_crypto::hmac::hmac_sha256;
use watz_crypto::kdf::{derive_kdk, derive_key, derive_session_keys};
use watz_crypto::p256::{curve, AffinePoint, U256};
use watz_crypto::sha256::Sha256;

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn unhex16(s: &str) -> [u8; 16] {
    unhex(s).try_into().unwrap()
}

fn unhex32(s: &str) -> [u8; 32] {
    unhex(s).try_into().unwrap()
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 examples + NIST short-message vectors)
// ---------------------------------------------------------------------------

#[test]
fn sha256_empty_message() {
    assert_eq!(
        Sha256::digest(b""),
        unhex32("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    );
}

#[test]
fn sha256_abc() {
    assert_eq!(
        Sha256::digest(b"abc"),
        unhex32("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    );
}

#[test]
fn sha256_two_block_message() {
    assert_eq!(
        Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        unhex32("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
    );
}

#[test]
fn sha256_million_a() {
    let data = vec![b'a'; 1_000_000];
    assert_eq!(
        Sha256::digest(&data),
        unhex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
    );
}

#[test]
fn sha256_streaming_matches_one_shot() {
    let data = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    let mut h = Sha256::new();
    for chunk in data.chunks(7) {
        h.update(chunk);
    }
    assert_eq!(h.finalize(), Sha256::digest(data));
}

// ---------------------------------------------------------------------------
// AES block cipher (FIPS 197 appendix C)
// ---------------------------------------------------------------------------

#[test]
fn aes128_fips197_example() {
    let key = unhex16("000102030405060708090a0b0c0d0e0f");
    let pt = unhex16("00112233445566778899aabbccddeeff");
    assert_eq!(
        Aes::new_128(&key).encrypt(&pt),
        unhex16("69c4e0d86a7b0430d8cdb78070b4c55a")
    );
}

#[test]
fn aes256_fips197_example() {
    let key = unhex32("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
    let pt = unhex16("00112233445566778899aabbccddeeff");
    let aes = Aes::new_256(&key);
    assert_eq!(
        aes.encrypt(&pt),
        unhex16("8ea2b7ca516745bfeafc49904b496089")
    );
}

// ---------------------------------------------------------------------------
// AES-128-GCM (NIST GCM reference test cases 1-4)
// ---------------------------------------------------------------------------

/// One vector through all four entry points: the allocating pair and the
/// in-place pair must agree with the published ciphertext and tag.
fn check_gcm(key: &str, iv: &str, pt: &str, aad: &str, ct: &str, tag: &str) {
    let (pt, aad, ct, tag) = (unhex(pt), unhex(aad), unhex(ct), unhex16(tag));
    let iv: [u8; 12] = unhex(iv).try_into().unwrap();
    let cipher = AesGcm128::new(&unhex16(key));
    assert_eq!(cipher.encrypt(&iv, &pt, &aad), (ct.clone(), tag));
    assert_eq!(cipher.decrypt(&iv, &ct, &aad, &tag).unwrap(), pt);
    let mut buf = pt.clone();
    assert_eq!(cipher.encrypt_in_place(&iv, &mut buf, &aad), tag);
    assert_eq!(buf, ct);
    cipher.decrypt_in_place(&iv, &mut buf, &aad, &tag).unwrap();
    assert_eq!(buf, pt);
}

const ZERO_KEY: &str = "00000000000000000000000000000000";
const ZERO_IV: &str = "000000000000000000000000";
const CASE3_KEY: &str = "feffe9928665731c6d6a8f9467308308";
const CASE3_IV: &str = "cafebabefacedbaddecaf888";
const CASE3_PT: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                        1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
const CASE3_CT: &str = "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                        21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985";

#[test]
fn gcm_nist_case1_empty() {
    let tag = "58e2fccefa7e3061367f1d57a4e7455a";
    check_gcm(ZERO_KEY, ZERO_IV, "", "", "", tag);
}

#[test]
fn gcm_nist_case2_one_block() {
    let (ct, tag) = (
        "0388dace60b6a392f328c2b971b2fe78",
        "ab6e47d42cec13bdf53a67b21257bddf",
    );
    check_gcm(ZERO_KEY, ZERO_IV, ZERO_KEY, "", ct, tag);
}

#[test]
fn gcm_nist_case3_four_blocks() {
    let tag = "4d5c2af327cd64a62cf35abd2ba6fab4";
    check_gcm(CASE3_KEY, CASE3_IV, CASE3_PT, "", CASE3_CT, tag);
}

#[test]
fn gcm_nist_case4_with_aad() {
    // Case 3 with the last 4 bytes dropped and 20 bytes of AAD.
    let (pt, ct) = (&CASE3_PT[..120], &CASE3_CT[..120]);
    let aad = "feedfacedeadbeeffeedfacedeadbeefabaddad2";
    let tag = "5bc94fbc3221a5db94fae95ae7121a47";
    check_gcm(CASE3_KEY, CASE3_IV, pt, aad, ct, tag);
}

// ---------------------------------------------------------------------------
// AES-CMAC (RFC 4493 section 4)
// ---------------------------------------------------------------------------

const CMAC_KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";
const CMAC_MSG: &str = "6bc1bee22e409f96e93d7e117393172a\
                        ae2d8a571e03ac9c9eb76fac45af8e51\
                        30c81c46a35ce411e5fbc1191a0a52ef\
                        f69f2445df4f9b17ad2b417be66c3710";

#[test]
fn cmac_rfc4493_vectors() {
    let mac = AesCmac::new(&unhex16(CMAC_KEY));
    let msg = unhex(CMAC_MSG);
    assert_eq!(
        mac.mac(&msg[..0]),
        unhex16("bb1d6929e95937287fa37d129b756746")
    );
    assert_eq!(
        mac.mac(&msg[..16]),
        unhex16("070a16b46b4d4144f79bdd9dd04a287c")
    );
    assert_eq!(
        mac.mac(&msg[..40]),
        unhex16("dfa66747de9ae63030ca32611497c827")
    );
    assert_eq!(
        mac.mac(&msg[..64]),
        unhex16("51f0bebf7e3b9d92fc49741779363cfe")
    );
}

#[test]
fn cmac_free_function_agrees() {
    let key = unhex16(CMAC_KEY);
    let msg = unhex(CMAC_MSG);
    assert_eq!(aes_cmac(&key, &msg), AesCmac::new(&key).mac(&msg));
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 (RFC 4231 test cases 1 and 2)
// ---------------------------------------------------------------------------

#[test]
fn hmac_sha256_rfc4231_case1() {
    assert_eq!(
        hmac_sha256(&[0x0b; 20], b"Hi There"),
        unhex32("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
    );
}

#[test]
fn hmac_sha256_rfc4231_case2() {
    assert_eq!(
        hmac_sha256(b"Jefe", b"what do ya want for nothing?"),
        unhex32("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
    );
}

// ---------------------------------------------------------------------------
// SP 800-108 CMAC-mode KDF (Intel SGX-style chain, checked against the
// RFC-4493-verified CMAC primitive)
// ---------------------------------------------------------------------------

#[test]
fn kdf_kdk_is_cmac_of_little_endian_secret() {
    let secret = unhex32("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
    let mut le = secret;
    le.reverse();
    assert_eq!(derive_kdk(&secret), aes_cmac(&[0u8; 16], &le));
}

#[test]
fn kdf_label_encoding_matches_sp800_108() {
    let kdk = unhex16(CMAC_KEY);
    // 0x01 counter || label || 0x00 separator || 0x0080 output bits (LE).
    let mut msg = vec![0x01];
    msg.extend_from_slice(b"SMK");
    msg.extend_from_slice(&[0x00, 0x80, 0x00]);
    assert_eq!(derive_key(&kdk, "SMK"), aes_cmac(&kdk, &msg));
}

#[test]
fn kdf_session_keys_match_manual_chain() {
    let secret = [0x42u8; 32];
    let keys = derive_session_keys(&secret);
    let kdk = derive_kdk(&secret);
    assert_eq!(keys.km, derive_key(&kdk, "SMK"));
    assert_eq!(keys.ke, derive_key(&kdk, "SK"));
    assert_ne!(keys.km, keys.ke);
}

// ---------------------------------------------------------------------------
// Cross-commit pins: outputs recorded on the commit before AES became
// table-driven. Every key, nonce and wire byte of a session derives from
// these two, so the rewrite provably changed none of them.
// ---------------------------------------------------------------------------

#[test]
fn fortuna_kat_seed_is_pinned() {
    assert_eq!(
        Fortuna::from_seed(b"kat").bytes(64),
        unhex(
            "2f8ab99db769bec809a6f9ee31fb4ae20a03c3e764741eab49e0e31a6680b153\
             13f49999b23277ea6008a02b73f23895b9ef453507498ffc2a62d1303741892f"
        )
    );
}

#[test]
fn kdf_session_keys_are_pinned() {
    let secret = unhex32("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
    let keys = derive_session_keys(&secret);
    assert_eq!(keys.km, unhex16("89eeccc2b0a8bcc83384889431ea318f"));
    assert_eq!(keys.ke, unhex16("728c9c3e4c48b1890f3d6a8bce1a865e"));
}

// ---------------------------------------------------------------------------
// P-256 ECDH (RFC 5903 section 8.1) and ECDSA (RFC 6979 appendix A.2.5)
// ---------------------------------------------------------------------------

fn point(x: &str, y: &str) -> AffinePoint {
    AffinePoint::Point {
        x: U256::from_hex(x),
        y: U256::from_hex(y),
    }
}

#[test]
fn ecdh_rfc5903_256_bit_random_ecp_group() {
    let i = U256::from_hex("c88f01f510d9ac3f70a292daa2316de544e9aab8afe84049c62a9c57862d1433");
    let r = U256::from_hex("c6ef9c5d78ae012a011164acb397ce2088685d8f06bf9be0b283ab46476bee53");
    let gi = point(
        "dad0b65394221cf9b051e1feca5787d098dfe637fc90b9ef945d0c3772581180",
        "5271a0461cdb8252d61f1c456fa3e59ab1f45b33accf5f58389e0577b8990bb3",
    );
    let gr = point(
        "d12dfb5289c8d4f81208b70270398c342296970a0bccb74c736fc7554494bf63",
        "56fbf3ca366cc23e8157854c13c58d6aac23f046ada30f8353e74f33039872ab",
    );
    let shared = point(
        "d6840f6b42f6edafd13116e0e12565202fef8e9ece7dce03812464d04b9442de",
        "522bde0af0d8585b8def9c183b5ae38f50235206a8674ecb5d98edb20eb153a2",
    );
    assert_eq!(AffinePoint::mul_base(&i), gi);
    assert_eq!(AffinePoint::mul_base(&r), gr);
    // Each side decodes the other's wire encoding, as `diffie_hellman` does.
    let from_wire = |p: &AffinePoint| AffinePoint::from_bytes(&p.to_bytes()).unwrap();
    assert_eq!(from_wire(&gr).mul_scalar(&i), shared);
    assert_eq!(from_wire(&gi).mul_scalar(&r), shared);
}

#[test]
fn ecdh_rejects_off_curve_and_out_of_range_peer_keys() {
    let local = EphemeralKeyPair::generate(&mut Fortuna::from_seed(b"kat ecdh"));
    let invalid = Err(watz_crypto::CryptoError::InvalidPoint);

    let mut off_curve = AffinePoint::generator().to_bytes();
    off_curve[40] ^= 0x10;
    assert_eq!(local.diffie_hellman(&off_curve), invalid);

    // (0, sqrt(b)) is on the curve; x = p names the same residue and must be
    // refused by the range check, not reduced into it.
    let fp = curve::fp();
    let (p_plus_1, _) = curve::p().adc(&U256::ONE);
    let exp = U256([
        p_plus_1.0[0] >> 2 | p_plus_1.0[1] << 62,
        p_plus_1.0[1] >> 2 | p_plus_1.0[2] << 62,
        p_plus_1.0[2] >> 2 | p_plus_1.0[3] << 62,
        p_plus_1.0[3] >> 2,
    ]);
    let y = fp.from_mont(&fp.pow(&fp.to_mont(&curve::b()), &exp));
    let mut peer = [0u8; 64];
    peer[32..].copy_from_slice(&y.to_be_bytes());
    assert!(
        local.diffie_hellman(&peer).is_ok(),
        "x = 0 is a valid point"
    );
    peer[..32].copy_from_slice(&curve::p().to_be_bytes());
    assert_eq!(local.diffie_hellman(&peer), invalid);

    let mut peer = AffinePoint::generator().to_bytes();
    peer[32..].copy_from_slice(&[0xff; 32]);
    assert_eq!(local.diffie_hellman(&peer), invalid);
}

/// Signs `message` with the RFC 6979 A.2.5 key, checks `(r, s)` and that
/// `r` is the x-coordinate of `k·G`, then that verification accepts the
/// signature and rejects it with any one of 160 single-bit changes — by the
/// window and, with the same answer every time, by the key's comb.
fn check_rfc6979(message: &[u8], k: &str, r: &str, s: &str) {
    let key = SigningKey::from_scalar(U256::from_hex(
        "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721",
    ))
    .unwrap();
    let public = key.verifying_key().to_bytes();
    assert_eq!(
        public.to_vec(),
        unhex(
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6\
             7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299"
        )
    );
    let digest = Sha256::digest(message);
    let sig = key.sign_deterministic(&digest);
    assert_eq!(sig.r, U256::from_hex(r));
    assert_eq!(sig.s, U256::from_hex(s));
    let AffinePoint::Point { x, .. } = AffinePoint::mul_base(&U256::from_hex(k)) else {
        panic!("k·G is finite")
    };
    assert_eq!(x, sig.r, "here x(k·G) < n, so r is x itself");

    let verify = |public: &[u8; 64], digest: &[u8; 32], sig: &[u8; 64]| match (
        VerifyingKey::from_bytes(public),
        Signature::from_bytes(sig),
    ) {
        (Ok(key), Ok(sig)) => {
            let windowed = key.verify(digest, &sig);
            let comb = key.verify_with(&key.comb_table(), digest, &sig);
            assert_eq!(comb, windowed, "comb and window disagree");
            windowed
        }
        _ => false,
    };
    let sig = sig.to_bytes();
    assert!(verify(&public, &digest, &sig));
    for byte in 0..64 {
        let bit = 1 << (byte % 8);
        let (mut bad_sig, mut bad_public) = (sig, public);
        bad_sig[byte] ^= bit;
        bad_public[byte] ^= bit;
        assert!(!verify(&public, &digest, &bad_sig), "r||s byte {byte}");
        assert!(!verify(&bad_public, &digest, &sig), "public byte {byte}");
    }
    for byte in 0..32 {
        let mut bad_digest = digest;
        bad_digest[byte] ^= 1 << (byte % 8);
        assert!(!verify(&public, &bad_digest, &sig), "digest byte {byte}");
    }
}

#[test]
fn ecdsa_rfc6979_p256_sha256_sample() {
    check_rfc6979(
        b"sample",
        "a6e3c57dd01abe90086538398355dd4c3b17aa873382b0f24d6129493d8aad60",
        "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716",
        "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8",
    );
}

#[test]
fn ecdsa_rfc6979_p256_sha256_test() {
    check_rfc6979(
        b"test",
        "d16b6ae827f17175e040871a1c7ec3500192c4c92677336ec2537acaee0008e0",
        "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367",
        "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083",
    );
}

// ---------------------------------------------------------------------------
// Cross-commit pin for P-256: 200 seeded keygen / ECDHE / ECDH / sign /
// verify transcripts, hashed. The constant was recorded on the commit
// before the field reduction was specialised to p and the comb added.
// ---------------------------------------------------------------------------

#[test]
fn p256_transcripts_are_pinned() {
    let mut rng = Fortuna::from_seed(b"p256 transcript");
    let mut h = Sha256::new();
    for i in 0u32..200 {
        let signer = SigningKey::generate(&mut rng);
        let (a, b) = (
            EphemeralKeyPair::generate(&mut rng),
            EphemeralKeyPair::generate(&mut rng),
        );
        let shared = a.diffie_hellman(&b.public_bytes()).unwrap();
        assert_eq!(shared, b.diffie_hellman(&a.public_bytes()).unwrap());
        let digest = Sha256::digest(&i.to_le_bytes());
        let sig = signer.sign_deterministic(&digest);
        let key = signer.verifying_key();
        let mut other = digest;
        other[i as usize % 32] ^= 1 << (i % 8);
        assert!(key.verify(&digest, &sig));
        assert!(!key.verify(&other, &sig));
        let public = key.to_bytes();
        for part in [
            &public[..],
            &a.public_bytes(),
            &b.public_bytes(),
            &shared,
            &sig.to_bytes(),
        ] {
            h.update(part);
        }
    }
    assert_eq!(
        h.finalize(),
        unhex32("a266c589b076fe8a835d51fcb08fbd905e42c98fc2fee19ee9a19bcb398ea8d2")
    );
}
