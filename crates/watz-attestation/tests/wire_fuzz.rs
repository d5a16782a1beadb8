//! Deterministic fuzz sweep over the four wire decoders.
//!
//! A seeded xorshift64 generator drives three mutation families against
//! each of `Msg0`–`Msg3`:
//!
//! * **truncation** — every prefix length of a valid encoding;
//! * **bit flips** — single-bit flips at random positions of a valid
//!   encoding;
//! * **oversizing / garbage** — random-length random frames, including
//!   far larger than any legitimate message.
//!
//! The invariants are the ones a hostile network is allowed to test:
//! decoders never panic, always return a typed [`RaError`], and never
//! allocate past the input (`msg3.ciphertext().len()` is bounded by the
//! frame length). The seed is fixed so a failure replays byte-for-byte.

use watz_attestation::evidence::{Evidence, EVIDENCE_LEN};
use watz_attestation::wire::{Msg0, Msg1, Msg2, Msg3};
use watz_attestation::RaError;

/// Fixed fuzz seed: the sweep is identical on every run.
const FUZZ_SEED: u64 = 0xF022_5EED_0001;

struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for b in buf {
            *b = (self.next() >> 32) as u8;
        }
    }
}

fn valid_frames(rng: &mut XorShift64) -> Vec<(&'static str, Vec<u8>)> {
    let mut ga = [0u8; 64];
    rng.fill(&mut ga);
    let msg0 = Msg0 { ga, attempt: 2 };

    let mut gv = [0u8; 64];
    let mut verifier_id = [0u8; 64];
    let mut signature = [0u8; 64];
    let mut mac = [0u8; 16];
    rng.fill(&mut gv);
    rng.fill(&mut verifier_id);
    rng.fill(&mut signature);
    rng.fill(&mut mac);
    let msg1 = Msg1 {
        gv,
        verifier_id,
        signature,
        mac,
    };

    let mut anchor = [0u8; 32];
    let mut claim = [0u8; 32];
    let mut attestation_pubkey = [0u8; 64];
    let mut ev_sig = [0u8; 64];
    rng.fill(&mut anchor);
    rng.fill(&mut claim);
    rng.fill(&mut attestation_pubkey);
    rng.fill(&mut ev_sig);
    let msg2 = Msg2 {
        ga,
        evidence: Evidence {
            anchor,
            version: 3,
            claim,
            attestation_pubkey,
            signature: ev_sig,
        },
        mac,
    };

    let mut iv = [0u8; 12];
    let mut tag = [0u8; 16];
    let mut ciphertext = vec![0u8; 48];
    rng.fill(&mut iv);
    rng.fill(&mut tag);
    rng.fill(&mut ciphertext);
    let msg3 = Msg3::new(iv, tag, &ciphertext);

    vec![
        ("msg0", msg0.to_bytes()),
        ("msg1", msg1.to_bytes()),
        ("msg2", msg2.to_bytes()),
        ("msg3", msg3.to_bytes()),
    ]
}

/// Runs every decoder over the frame and checks the shared invariants.
/// Returns how many decoders accepted it.
fn decode_all(name: &str, frame: &[u8]) -> usize {
    let mut accepted = 0;
    match Msg0::from_bytes(frame) {
        Ok(_) => accepted += 1,
        Err(e) => assert_typed(name, &e),
    }
    match Msg1::from_bytes(frame) {
        Ok(_) => accepted += 1,
        Err(e) => assert_typed(name, &e),
    }
    match Msg2::from_bytes(frame) {
        Ok(_) => accepted += 1,
        Err(e) => assert_typed(name, &e),
    }
    match Msg3::from_bytes(frame) {
        Ok(m) => {
            accepted += 1;
            assert!(
                m.ciphertext().len() <= frame.len(),
                "{name}: msg3 ciphertext ({} bytes) over-allocated past the \
                 {}-byte input",
                m.ciphertext().len(),
                frame.len()
            );
        }
        Err(e) => assert_typed(name, &e),
    }
    accepted
}

fn assert_typed(name: &str, err: &RaError) {
    assert!(
        matches!(err, RaError::Malformed(_)),
        "{name}: decoders must fail with a typed Malformed error, got {err:?}"
    );
}

#[test]
fn truncated_frames_never_panic_and_are_rejected() {
    let mut rng = XorShift64::new(FUZZ_SEED);
    for (name, frame) in valid_frames(&mut rng) {
        // Every strict prefix, including the empty frame.
        for len in 0..frame.len() {
            let truncated = &frame[..len];
            let accepted = decode_all(name, truncated);
            // One legitimate prefix-acceptance exists: any msg3 prefix
            // that still covers tag + IV + GCM tag parses with a shorter
            // ciphertext (the AEAD tag check catches the loss). A msg0
            // that lost its attempt byte does not decode.
            if name == "msg3" && len >= 29 {
                assert_eq!(accepted, 1, "{name}: {len}-byte msg3 prefix parses");
            } else {
                assert_eq!(
                    accepted, 0,
                    "{name}: a {len}-byte truncation must not decode"
                );
            }
        }
    }
}

#[test]
fn bit_flipped_frames_never_panic() {
    let mut rng = XorShift64::new(FUZZ_SEED ^ 0xB17_F11B);
    for (name, frame) in valid_frames(&mut rng) {
        for _ in 0..256 {
            let mut mutated = frame.clone();
            let pos = rng.below(mutated.len());
            mutated[pos] ^= 1 << rng.below(8);
            let accepted = decode_all(name, &mutated);
            if pos == 0 {
                // A flipped tag byte can never match any decoder's tag.
                assert_eq!(accepted, 0, "{name}: flipped tag byte must reject");
            } else {
                // A body flip keeps the length and tag valid, so exactly
                // the original decoder still accepts it — the *content*
                // damage is the MAC/signature layer's job to catch.
                assert_eq!(accepted, 1, "{name}: body flip at {pos}");
            }
        }
    }
}

#[test]
fn random_garbage_and_oversized_frames_never_panic() {
    let mut rng = XorShift64::new(FUZZ_SEED ^ 0x0561_2E00);
    let interesting = [0usize, 1, 28, 29, 65, 66, 209, 277];
    for len in interesting {
        let mut frame = vec![0u8; len];
        rng.fill(&mut frame);
        decode_all("garbage", &frame);
    }
    for _ in 0..512 {
        // Lengths up to 16 KiB — far past any legitimate frame.
        let len = rng.below(16 * 1024);
        let mut frame = vec![0u8; len];
        rng.fill(&mut frame);
        decode_all("garbage", &frame);
    }
    // Oversized frames that *start* like valid messages: correct tag,
    // trailing garbage. Fixed-size decoders must reject; msg3 treats the
    // tail as ciphertext but never reads past it.
    let mut base = valid_frames(&mut rng);
    for (name, frame) in &mut base {
        frame.extend_from_slice(&[0xAB; 1024]);
        let accepted = decode_all(name, frame);
        if *name == "msg3" {
            assert_eq!(accepted, 1, "msg3 absorbs the tail as ciphertext");
        } else {
            assert_eq!(accepted, 0, "{name}: oversized frame must reject");
        }
    }
}

#[test]
fn evidence_decoder_rejects_every_other_length() {
    let mut rng = XorShift64::new(FUZZ_SEED ^ 0xE71D);
    for len in 0..(2 * EVIDENCE_LEN) {
        let mut buf = vec![0u8; len];
        rng.fill(&mut buf);
        let parsed = Evidence::from_bytes(&buf);
        if len == EVIDENCE_LEN {
            assert!(parsed.is_ok(), "exact-length evidence parses structurally");
        } else {
            assert!(
                matches!(parsed, Err(RaError::Malformed(_))),
                "{len}-byte evidence must be rejected with a typed error"
            );
        }
    }
}
