//! The secret blob as a sequence of sealed `msg3` records, against an
//! attacker who owns the wire between an honest verifier and an honest
//! attester: reorder, drop, replay, duplicate, flip the final flag, splice
//! across sessions, extend. Every manipulation must end the session with an
//! error and no blob, never with a wrong, partial or extended one.

use std::time::Duration;

use optee_sim::net::{Connection, Network};
use optee_sim::TrustedOs;
use tz_hal::{Platform, PlatformConfig};
use watz_attestation::attester::{AttemptError, Attester};
use watz_attestation::service::AttestationService;
use watz_attestation::verifier::{Verifier, VerifierConfig};
use watz_attestation::wire::{Msg2, Msg3, MSG3_HEADER_LEN, MSG3_RECORD_LEN};
use watz_attestation::RaError;
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::sha256::Sha256;

const LEN: usize = MSG3_RECORD_LEN;
const TIMEOUT: Duration = Duration::from_millis(50);

fn device(seed: &[u8]) -> (TrustedOs, AttestationService) {
    let platform = Platform::new(PlatformConfig {
        device_seed: seed.to_vec(),
        ..PlatformConfig::default()
    });
    tz_hal::boot::install_genuine_chain(&platform).unwrap();
    let os = TrustedOs::boot(platform).unwrap();
    let svc = AttestationService::install(&os);
    (os, svc)
}

/// `len` bytes that differ from record to record and within one.
fn blob(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i ^ (i >> 8) ^ (i >> 16)) as u8).collect()
}

/// One session run up to `msg2`: the attester waits for the blob, the
/// verifier has yet to appraise.
fn handshake(svc: &AttestationService, secret: &[u8], seed: &str) -> (Attester, Verifier, Msg2) {
    let measurement = Sha256::digest(b"record-tested app");
    let identity = SigningKey::generate(&mut Fortuna::from_seed(b"verifier identity"));
    let config = VerifierConfig::new(identity)
        .endorse_device(svc.public_key())
        .trust_measurement(measurement)
        .with_secret(secret.to_vec());
    let pinned = config.identity_public_key();
    let mut verifier = Verifier::new(config);
    let mut arng = Fortuna::from_seed(format!("attester {seed}").as_bytes());
    let mut vrng = Fortuna::from_seed(format!("verifier {seed}").as_bytes());
    let (mut attester, msg0) = Attester::start(&mut arng);
    let (msg1, _) = verifier.handle_msg0(&msg0, &mut vrng).unwrap();
    let (msg2, _) = attester.attest(&msg1, &pinned, svc, &measurement).unwrap();
    (attester, verifier, msg2)
}

/// [`handshake`], appraised: the verifier is ready to release.
fn session(svc: &AttestationService, secret: &[u8], seed: &str) -> (Attester, Verifier) {
    let (attester, mut verifier, msg2) = handshake(svc, secret, seed);
    verifier.appraise(&msg2).unwrap();
    (attester, verifier)
}

/// The frames an honest verifier puts on the wire for its secret.
fn release(verifier: &mut Verifier) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let complete = verifier.release(|record| {
        frames.push(record.into_bytes());
        true
    });
    assert_eq!(complete, Ok(true));
    frames
}

/// Delivers `frames` over a loopback connection, then hangs up.
fn deliver(attester: &mut Attester, frames: Vec<Vec<u8>>) -> Result<Vec<u8>, AttemptError> {
    let (client, server) = pair();
    for frame in frames {
        server.send_owned(frame).unwrap();
    }
    drop(server);
    attester.receive_blob(&client, TIMEOUT)
}

fn pair() -> (Connection, Connection) {
    let net = Network::new();
    let listener = net.listen(1).unwrap();
    let client = net.connect(1).unwrap();
    (client, listener.accept().unwrap())
}

/// Five records: four full ones and a tail.
const FIVE: usize = 4 * LEN + 100;

/// Applies `tamper` to the honest frames of a five-record blob and expects
/// the receive to fail with `want` and the session to be over for good.
fn refused(case: &str, tamper: impl FnOnce(&mut Vec<Vec<u8>>), want: &AttemptError) {
    let (_os, svc) = device(b"record-device");
    let (mut attester, mut verifier) = session(&svc, &blob(FIVE), "a");
    let mut frames = release(&mut verifier);
    assert_eq!(frames.len(), 5);
    tamper(&mut frames);
    assert_eq!(deliver(&mut attester, frames).as_ref(), Err(want), "{case}");
    assert!(attester.is_done(), "{case}: the session must be over");
    assert_eq!(
        deliver(&mut attester, release(&mut verifier)),
        Err(AttemptError::Fatal(RaError::BadState("receive_blob"))),
        "{case}: nothing resumes a failed session, not even the honest frames"
    );
}

const BAD_RECORD: AttemptError = AttemptError::Garbled(RaError::DecryptFailed);

#[test]
fn honest_records_deliver_the_blob() {
    let (_os, svc) = device(b"record-device");
    let secret = blob(FIVE);
    let (mut attester, mut verifier) = session(&svc, &secret, "a");
    let frames = release(&mut verifier);
    assert_eq!(deliver(&mut attester, frames), Ok(secret));
    assert!(attester.is_done() && verifier.is_attested());
}

#[test]
fn reordered_dropped_and_replayed_records_are_refused() {
    refused("swap 2 and 3", |f| f.swap(1, 2), &BAD_RECORD);
    refused("swap first and last", |f| f.swap(0, 4), &BAD_RECORD);
    refused("drop a middle record", |f| drop(f.remove(2)), &BAD_RECORD);
    refused(
        "replay record 1 after record 2",
        |f| f.insert(2, f[0].clone()),
        &BAD_RECORD,
    );
    refused(
        "duplicate record 2 after record 3",
        |f| f.insert(3, f[1].clone()),
        &BAD_RECORD,
    );
}

#[test]
fn truncated_sequences_are_refused() {
    refused(
        "drop the final record",
        |f| drop(f.pop()),
        &AttemptError::PeerClosed,
    );
    refused(
        "a non-final record as the only one",
        |f| f.truncate(1),
        &AttemptError::PeerClosed,
    );
    refused("nothing at all", Vec::clear, &AttemptError::PeerClosed);
    // A peer that stays connected and silent is a timeout, and as final.
    let (_os, svc) = device(b"record-device");
    let (mut attester, mut verifier) = session(&svc, &blob(FIVE), "a");
    let (client, server) = pair();
    server
        .send_owned(release(&mut verifier).swap_remove(0))
        .unwrap();
    assert_eq!(
        attester.receive_blob(&client, TIMEOUT),
        Err(AttemptError::Timeout)
    );
    assert!(attester.is_done());
}

#[test]
fn a_flipped_flag_or_any_other_bit_is_refused() {
    // Byte 1 of the frame is byte 0 of the IV: the flag.
    refused("final flag set on record 3", |f| f[2][1] ^= 1, &BAD_RECORD);
    refused(
        "final flag cleared on record 5",
        |f| f[4][1] ^= 1,
        &BAD_RECORD,
    );
    refused("a third flag value", |f| f[0][1] = 2, &BAD_RECORD);
    refused("counter bit flipped", |f| f[1][12] ^= 1, &BAD_RECORD);
    refused("IV padding byte set", |f| f[1][2] = 1, &BAD_RECORD);
    refused("ciphertext bit flipped", |f| f[3][1000] ^= 1, &BAD_RECORD);
    refused("tag bit flipped", |f| f[3][20] ^= 1, &BAD_RECORD);
    refused("record cut short", |f| f[1].truncate(LEN), &BAD_RECORD);
    refused(
        "frame tag byte changed",
        |f| f[2][0] = 0xa2,
        &AttemptError::Garbled(RaError::Malformed("msg3")),
    );
}

#[test]
fn a_record_of_another_session_is_refused() {
    // Same device, same verifier, same secret, same place in the sequence:
    // only the session key differs.
    let (_os, svc) = device(b"record-device");
    let (_, mut other) = session(&svc, &blob(FIVE), "b");
    let foreign = release(&mut other);
    for k in 0..5 {
        let spliced = foreign[k].clone();
        refused("splice", move |f| f[k] = spliced, &BAD_RECORD);
    }
}

#[test]
fn nothing_extends_a_finished_blob() {
    let (_os, svc) = device(b"record-device");
    let secret = blob(FIVE);
    let (mut attester, mut verifier) = session(&svc, &secret, "a");
    let mut frames = release(&mut verifier);
    // A sixth record, honestly sealed under the same key with the next
    // counter, and a replay of the final one.
    let extra = verifier.build_msg3(b"and one more thing").unwrap();
    frames.push(extra.to_bytes());
    frames.push(frames[4].clone());
    assert_eq!(deliver(&mut attester, frames), Ok(secret));
    assert_eq!(
        attester.handle_msg3(&extra),
        Err(RaError::BadState("handle_msg3"))
    );
}

#[test]
fn a_failed_receive_cannot_be_resumed_into_a_suffix() {
    // Garbage between records 2 and 3 ends the first call. If a second call
    // picked the sequence up again it would return records 3..5 as "the
    // blob".
    let (_os, svc) = device(b"record-device");
    let (mut attester, mut verifier) = session(&svc, &blob(FIVE), "a");
    let mut frames = release(&mut verifier);
    frames.insert(2, b"not a record".to_vec());
    let (client, server) = pair();
    for frame in frames {
        server.send_owned(frame).unwrap();
    }
    assert_eq!(
        attester.receive_blob(&client, TIMEOUT),
        Err(AttemptError::Garbled(RaError::Malformed("msg3")))
    );
    assert_eq!(
        attester.receive_blob(&client, TIMEOUT),
        Err(AttemptError::Fatal(RaError::BadState("receive_blob")))
    );
}

#[test]
fn consecutive_duplicates_are_discarded_not_fatal() {
    let (_os, svc) = device(b"record-device");
    let secret = blob(FIVE);
    let (mut attester, mut verifier) = session(&svc, &secret, "a");
    let frames: Vec<_> = release(&mut verifier)
        .into_iter()
        .flat_map(|f| [f.clone(), f])
        .collect();
    assert_eq!(frames.len(), 10);
    assert_eq!(deliver(&mut attester, frames), Ok(secret));
}

#[test]
fn record_count_and_frame_size_at_the_boundaries() {
    let (_os, svc) = device(b"record-device");
    for len in [0, 1, LEN - 1, LEN, LEN + 1, 2 << 20, 3 << 20] {
        let secret = blob(len);
        let (mut attester, mut verifier) = session(&svc, &secret, "a");
        let frames = release(&mut verifier);
        assert_eq!(frames.len(), len.div_ceil(LEN).max(1), "{len} bytes");
        let sizes: Vec<usize> = frames.iter().map(Vec::len).collect();
        assert!(sizes.iter().all(|&n| n <= LEN + MSG3_HEADER_LEN));
        assert_eq!(
            sizes.iter().sum::<usize>(),
            len + frames.len() * MSG3_HEADER_LEN
        );
        // Record by record through the lock-step entry point.
        let mut got = Vec::new();
        for (k, frame) in frames.iter().enumerate() {
            let record = Msg3::from_bytes(frame).unwrap();
            got.extend(attester.handle_msg3(&record).unwrap().0);
            assert_eq!(attester.is_done(), k + 1 == frames.len());
        }
        assert_eq!(got, secret, "{len} bytes");
    }
}

#[test]
fn a_blob_released_whole_is_one_final_record_at_every_size() {
    // `handle_msg2` -> one `Msg3` -> `handle_msg3`: the in-process callers'
    // path (the fleet worker, the benchmark's lock-step probe).
    let (_os, svc) = device(b"record-device");
    for len in [0, 1, LEN - 1, LEN, LEN + 1, 2 << 20, 3 << 20] {
        let secret = blob(len);
        let (mut lockstep, mut verifier, msg2) = handshake(&svc, &secret, "a");
        let (msg3, _) = verifier.handle_msg2(&msg2).unwrap();
        assert_eq!(msg3.ciphertext().len(), len);
        assert_eq!(lockstep.handle_msg3(&msg3).unwrap().0, secret);
        assert!(lockstep.is_done());
    }
}

#[test]
fn a_small_secret_keeps_the_frame_layout_but_for_the_flag_byte() {
    // tag | iv (flag, 3 zero bytes, 64-bit counter = 1) | GCM tag | 1 KiB.
    // Before records the IV's first byte was zero as well.
    let (_os, svc) = device(b"record-device");
    let (_, mut verifier) = session(&svc, &blob(1024), "a");
    let frames = release(&mut verifier);
    assert_eq!(frames.len(), 1);
    let frame = &frames[0];
    assert_eq!(frame.len(), 1 + 12 + 16 + 1024);
    assert_eq!(frame[..13], [0xa3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
}

#[test]
fn a_sink_that_refuses_stops_the_release() {
    let (_os, svc) = device(b"record-device");
    let (_, mut verifier) = session(&svc, &blob(FIVE), "a");
    let mut taken = 0;
    let complete = verifier.release(|_| {
        taken += 1;
        taken < 3
    });
    assert_eq!((complete, taken), (Ok(false), 3));
    // And nothing is released before appraisal.
    let identity = SigningKey::generate(&mut Fortuna::from_seed(b"verifier identity"));
    let mut fresh = Verifier::new(VerifierConfig::new(identity));
    assert_eq!(
        fresh.release(|_| true),
        Err(RaError::BadState("build_msg3"))
    );
}
