//! Negative-path attestation against the networked [`VerifierServer`]:
//! tampered evidence, evidence from a device with the wrong seed, a stale
//! (replayed) session and bytes that do not parse must all be turned away
//! at the server, none may count as a served session, and each gets the
//! marker and the bucket its failure calls for: tamper-evident failures
//! `INTEGRITY_FAILED`, an unendorsed device `APPRAISAL_FAILED`; a failed
//! appraisal is `rejected`, a frame that does not parse `malformed`.

use std::time::{Duration, Instant};

use watz_attestation::attester::{AttestClient, Attester};
use watz_attestation::wire::{Msg1, Msg2, APPRAISAL_FAILED, INTEGRITY_FAILED};
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::sha256::Sha256;
use watz_runtime::{RaVerifierConfig, VerifierServer, WatzRuntime};

fn measurement() -> [u8; 32] {
    Sha256::digest(b"trusted app under test")
}

fn server_for(rt: &WatzRuntime, port: u16) -> (VerifierServer, [u8; 64]) {
    let mut rng = Fortuna::from_seed(b"server identity");
    let identity = SigningKey::generate(&mut rng);
    let config = RaVerifierConfig::new(identity)
        .endorse_device(rt.device_public_key())
        .trust_measurement(measurement())
        .with_secret(b"the secret".to_vec());
    let pinned = config.identity_public_key();
    let server = VerifierServer::spawn(rt.os(), config, port).unwrap();
    (server, pinned)
}

#[test]
fn tampered_evidence_rejected_by_server() {
    let rt = WatzRuntime::new_device(b"honest-device").unwrap();
    let (server, pinned) = server_for(&rt, 7401);

    let conn = rt.os().network().connect(7401).unwrap();
    let mut arng = Fortuna::from_seed(b"attacker");
    let (mut attester, msg0) = Attester::start(&mut arng);
    conn.send(&msg0.to_bytes()).unwrap();
    let msg1 = Msg1::from_bytes(&conn.recv().unwrap()).unwrap();
    let (mut msg2, _) = attester
        .attest(&msg1, &pinned, rt.attestation_service(), &measurement())
        .unwrap();

    // Flip one bit of the claim inside the (signed, MAC'd) evidence.
    msg2.evidence.claim[0] ^= 1;
    conn.send(&msg2.to_bytes()).unwrap();
    assert_eq!(conn.recv().unwrap(), INTEGRITY_FAILED);
    let stats = server.shutdown();
    assert_eq!(stats.served, 0, "tampered session must not count");
    assert_eq!(stats.rejected, 1, "it must be counted as rejected");
    assert_eq!(stats.malformed, 0);
}

#[test]
fn forged_evidence_signature_rejected_by_server() {
    // Tamper *before* the MAC is computed: the MAC then verifies, so the
    // server's appraisal must fall through to the evidence signature check.
    let rt = WatzRuntime::new_device(b"honest-device-2").unwrap();
    let (server, pinned) = server_for(&rt, 7402);

    let conn = rt.os().network().connect(7402).unwrap();
    let mut arng = Fortuna::from_seed(b"attacker");
    let (mut attester, msg0) = Attester::start(&mut arng);
    conn.send(&msg0.to_bytes()).unwrap();
    let msg1 = Msg1::from_bytes(&conn.recv().unwrap()).unwrap();
    attester.handle_msg1(&msg1, &pinned).unwrap();
    let (mut evidence, _) = attester
        .collect_quote(rt.attestation_service(), &measurement())
        .unwrap();
    evidence.claim[0] ^= 1; // invalidates the device signature
    let (msg2, _) = attester.build_msg2(evidence).unwrap();

    conn.send(&msg2.to_bytes()).unwrap();
    assert_eq!(conn.recv().unwrap(), INTEGRITY_FAILED);
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.rejected, stats.malformed), (0, 1, 0));
}

#[test]
fn wrong_device_seed_rejected_by_server() {
    // The server endorses the honest device; evidence minted by a device
    // with a different seed carries an unendorsed attestation key.
    let honest = WatzRuntime::new_device(b"endorsed-device").unwrap();
    let rogue = WatzRuntime::new_device(b"rogue-device").unwrap();
    let (server, pinned) = server_for(&honest, 7403);

    let conn = honest.os().network().connect(7403).unwrap();
    let mut arng = Fortuna::from_seed(b"rogue");
    let (mut attester, msg0) = Attester::start(&mut arng);
    conn.send(&msg0.to_bytes()).unwrap();
    let msg1 = Msg1::from_bytes(&conn.recv().unwrap()).unwrap();
    let (msg2, _) = attester
        .attest(&msg1, &pinned, rogue.attestation_service(), &measurement())
        .unwrap();

    // Honest evidence from a device nobody endorsed: not tamper-evident.
    conn.send(&msg2.to_bytes()).unwrap();
    assert_eq!(conn.recv().unwrap(), APPRAISAL_FAILED);
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.rejected, stats.malformed), (0, 1, 0));
}

#[test]
fn stale_session_replay_rejected_by_server() {
    // Complete one honest session, then replay its msg0/msg2 bytes in a new
    // session. The verifier's fresh ephemeral key (the session nonce) makes
    // the captured msg2 stale: its MAC and anchor bind the old session.
    let rt = WatzRuntime::new_device(b"replay-device").unwrap();
    let (server, pinned) = server_for(&rt, 7404);

    // Honest session, capturing the raw messages.
    let conn = rt.os().network().connect(7404).unwrap();
    let mut arng = Fortuna::from_seed(b"honest");
    let (mut attester, msg0) = Attester::start(&mut arng);
    let raw0 = msg0.to_bytes();
    conn.send(&raw0).unwrap();
    let msg1 = Msg1::from_bytes(&conn.recv().unwrap()).unwrap();
    let (msg2, _) = attester
        .attest(&msg1, &pinned, rt.attestation_service(), &measurement())
        .unwrap();
    let raw2 = msg2.to_bytes();
    conn.send(&raw2).unwrap();
    let reply = conn.recv().unwrap();
    assert!(
        reply != INTEGRITY_FAILED && reply != APPRAISAL_FAILED,
        "honest session must succeed"
    );

    // Replay both captured messages in a fresh session.
    let replay = rt.os().network().connect(7404).unwrap();
    replay.send(&raw0).unwrap();
    let msg1_b = Msg1::from_bytes(&replay.recv().unwrap()).unwrap();
    assert_ne!(msg1_b.gv, msg1.gv, "server must use a fresh session key");
    replay.send(&raw2).unwrap();
    assert_eq!(replay.recv().unwrap(), INTEGRITY_FAILED);

    let stats = server.shutdown();
    assert_eq!(stats.served, 1, "only the honest session counts as served");
    assert_eq!(stats.rejected, 1, "the replay counts as rejected");
    assert_eq!(stats.malformed, 0);
}

#[test]
fn garbage_bytes_rejected_by_server() {
    let rt = WatzRuntime::new_device(b"garbage-device").unwrap();
    let (server, _pinned) = server_for(&rt, 7405);

    let conn = rt.os().network().connect(7405).unwrap();
    conn.send(b"not a protocol message").unwrap();
    assert_eq!(conn.recv().unwrap(), INTEGRITY_FAILED);

    // A malformed msg2 after a valid msg0 is also malformed.
    let conn2 = rt.os().network().connect(7405).unwrap();
    let mut arng = Fortuna::from_seed(b"g");
    let (_attester, msg0) = Attester::start(&mut arng);
    conn2.send(&msg0.to_bytes()).unwrap();
    Msg1::from_bytes(&conn2.recv().unwrap()).unwrap();
    let bogus2 = {
        let mut b = Msg2 {
            ga: [0; 64],
            evidence: rt
                .attestation_service()
                .issue_evidence([0; 32], measurement()),
            mac: [0; 16],
        }
        .to_bytes();
        b.truncate(b.len() - 3); // malformed length
        b
    };
    conn2.send(&bogus2).unwrap();
    assert_eq!(conn2.recv().unwrap(), INTEGRITY_FAILED);
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.rejected, stats.malformed), (0, 0, 2));
}

#[test]
fn a_stalled_attester_does_not_delay_the_next_session() {
    // The first attester sends msg0 and then nothing. The next one is
    // served within its 1 s reply timeout, long before the stalled
    // session's deadline, let alone a 10 s receive timeout.
    let rt = WatzRuntime::new_device(b"stall-device").unwrap();
    let (server, pinned) = server_for(&rt, 7406);

    let stalled = rt.os().network().connect(7406).unwrap();
    let (_attester, msg0) = Attester::start(&mut Fortuna::from_seed(b"staller"));
    stalled.send(&msg0.to_bytes()).unwrap();

    let client = AttestClient {
        net: rt.os().network(),
        port: 7406,
        service: rt.attestation_service(),
        measurement: measurement(),
        pinned_verifier_key: pinned,
    };
    let t = Instant::now();
    let got = client.attempt(0, Duration::from_secs(1), &mut Fortuna::from_seed(b"next"));
    assert_eq!(got, Ok(b"the secret".to_vec()), "after {:?}", t.elapsed());

    drop(stalled);
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.disconnected), (1, 1));
    assert_eq!(stats.accepted, stats.completed());
}
