//! Known-answer tests for the cryptographic primitives, against published
//! vectors: FIPS 197 (AES), the NIST GCM reference vectors, RFC 4493
//! (AES-CMAC), FIPS 180-4 / NIST examples (SHA-256) and RFC 4231
//! (HMAC-SHA256). The SP 800-108 CMAC-mode KDF (the paper's SGX-style
//! derivation) is checked structurally against the KAT-verified CMAC.

use watz_crypto::aes::Aes;
use watz_crypto::cmac::{aes_cmac, AesCmac};
use watz_crypto::fortuna::Fortuna;
use watz_crypto::gcm::AesGcm128;
use watz_crypto::hmac::hmac_sha256;
use watz_crypto::kdf::{derive_kdk, derive_key, derive_session_keys};
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
