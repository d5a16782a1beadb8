//! The `msg3` record sequence end to end: `VerifierServer`, the one-worker
//! fleet verifier (or a verifier that tampers with its own frames) → `ra_receive_data` in a hosted guest,
//! and → `AttestClient`. What the guest's buffer holds is the whole secret
//! or exactly what it held before the call.

use std::thread::JoinHandle;
use std::time::Duration;

use optee_sim::net::FaultPlan;
use watz_attestation::attester::{AttestClient, Attester};
use watz_attestation::verifier::Verifier;
use watz_attestation::wire::{Msg0, Msg1, Msg2, MSG3_RECORD_LEN};
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::sha256::Sha256;
use watz_runtime::{AppConfig, RaVerifierConfig, VerifierServer, WatzApp, WatzRuntime};
use watz_wasi::err_codes::{BUFFER_TOO_SMALL, FAIL, NET, PROTOCOL};
use watz_wasm::exec::Value;

const LEN: usize = MSG3_RECORD_LEN;

/// The WASI-RA calls one export each, so a test can look at guest memory
/// between them.
const GUEST: &str = r#"
    extern int ra_handshake(int port, int key_ptr);
    extern int ra_anchor(int ctx, int out_ptr);
    extern int ra_collect_quote(int ctx);
    extern int ra_send_quote(int ctx, int q);
    extern int ra_receive_data(int ctx, int buf, int len);
    int key_addr = 0; int buf = 0; int ctx = 0;
    int init(int max) {
        key_addr = (int)alloc(64);
        buf = (int)alloc(max);
        return key_addr;
    }
    int buf_addr() { return buf; }
    int handshake_at(int port, int key_ptr) { return ra_handshake(port, key_ptr); }
    int connect(int port) {
        ctx = ra_handshake(port, key_addr);
        if (ctx < 0) { return ctx; }
        int q = ra_collect_quote(ctx);
        if (q < 0) { return q; }
        return ra_send_quote(ctx, q);
    }
    int anchor_at(int out_ptr) { return ra_anchor(ctx, out_ptr); }
    int receive_at(int ptr, int len) { return ra_receive_data(ctx, ptr, len); }
    int receive(int len) { return ra_receive_data(ctx, buf, len); }
"#;

/// What the guest's buffer holds before a receive.
const SENTINEL: u8 = 0xC3;

fn blob(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i ^ (i >> 8) ^ (i >> 16)) as u8).collect()
}

struct Guest {
    rt: WatzRuntime,
    app: WatzApp,
    config: RaVerifierConfig,
    buf: u32,
    cap: usize,
}

impl Guest {
    /// A device with the guest launched, a `cap`-byte sentinel-filled
    /// buffer, and the configuration of a verifier that trusts both and
    /// holds `secret`.
    fn launch(device: &str, cap: usize, secret: &[u8]) -> Self {
        let rt = WatzRuntime::new_device(device.as_bytes()).unwrap();
        let wasm = minic::compile(GUEST).unwrap();
        let identity = SigningKey::generate(&mut Fortuna::from_seed(b"blob owner"));
        let config = RaVerifierConfig::new(identity)
            .endorse_device(rt.device_public_key())
            .trust_measurement(Sha256::digest(&wasm))
            .with_secret(secret.to_vec());
        let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
        let key_addr = app.invoke("init", &[Value::I32(cap as i32)]).unwrap()[0].as_u32();
        app.write_memory(key_addr, &config.identity_public_key())
            .unwrap();
        let buf = app.invoke("buf_addr", &[]).unwrap()[0].as_u32();
        app.write_memory(buf, &vec![SENTINEL; cap]).unwrap();
        Guest {
            rt,
            app,
            config,
            buf,
            cap,
        }
    }

    fn call(&mut self, export: &str, args: &[i32]) -> i32 {
        let args: Vec<Value> = args.iter().map(|&a| Value::I32(a)).collect();
        match self.app.invoke(export, &args).unwrap()[..] {
            [Value::I32(v)] => v,
            ref other => panic!("{export} returned {other:?}"),
        }
    }

    fn buffer(&self) -> Vec<u8> {
        self.app.read_memory(self.buf, self.cap as u32).unwrap()
    }

    fn buffer_untouched(&self) -> bool {
        self.buffer().iter().all(|&b| b == SENTINEL)
    }

    fn client(&self, port: u16) -> AttestClient<'_> {
        AttestClient {
            net: self.rt.os().network(),
            port,
            service: self.rt.attestation_service(),
            measurement: self.app.measurement(),
            pinned_verifier_key: self.config.identity_public_key(),
        }
    }
}

#[test]
fn every_blob_size_round_trips_to_the_guest_and_to_the_client() {
    let sizes = [0, 1, LEN - 1, LEN, LEN + 1, 2 << 20, 3 << 20];
    for (i, len) in sizes.into_iter().enumerate() {
        let secret = blob(len);
        let mut guest = Guest::launch("boundary-device", len.max(1), &secret);
        let port = 9600 + i as u16;
        let server = VerifierServer::spawn(guest.rt.os(), guest.config.clone(), port).unwrap();

        assert_eq!(guest.call("connect", &[i32::from(port)]), 0);
        assert_eq!(guest.call("receive", &[len as i32]), len as i32);
        assert!(
            guest.buffer()[..len] == secret[..],
            "{len} bytes to the guest"
        );

        let got = guest.client(port).attempt(
            0,
            Duration::from_secs(10),
            &mut Fortuna::from_seed(b"client"),
        );
        assert!(got == Ok(secret), "{len} bytes to the client");
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.rejected), (2, 0));
    }
}

#[test]
fn a_short_buffer_is_retried_from_the_secure_buffer() {
    let secret = blob(3 * LEN + 5);
    let mut guest = Guest::launch("retry-device", secret.len(), &secret);
    let server = VerifierServer::spawn(guest.rt.os(), guest.config.clone(), 9610).unwrap();
    let enters = guest.rt.platform().transition_stats().enters();
    assert_eq!(guest.call("connect", &[9610]), 0);
    assert_eq!(
        guest.call("receive", &[secret.len() as i32 - 1]),
        BUFFER_TOO_SMALL
    );
    assert!(guest.buffer_untouched());
    // Secure-world entries so far: the guest's `connect` and its three
    // transfers, the verifier's two steps, the guest's `receive` and one
    // around the whole four-record sequence.
    assert_eq!(guest.rt.platform().transition_stats().enters(), enters + 8);
    // The verifier is gone and the wire is empty: a second receive could
    // only fail. The retry is served from what the first one kept.
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.rejected), (1, 0));
    assert_eq!(
        guest.call("receive", &[secret.len() as i32]),
        secret.len() as i32
    );
    assert_eq!(guest.buffer(), secret);
    assert_eq!(guest.rt.platform().transition_stats().enters(), enters + 9);
}

#[test]
fn negative_guest_integers_are_refused_not_reinterpreted() {
    let secret = blob(1000);
    let mut guest = Guest::launch("negative-device", 4096, &secret);
    let _server = VerifierServer::spawn(guest.rt.os(), guest.config.clone(), 9611).unwrap();
    // ra_handshake: port and key pointer.
    assert_eq!(guest.call("handshake_at", &[-1, 0]), FAIL);
    assert_eq!(guest.call("handshake_at", &[9611, -64]), FAIL);
    assert_eq!(guest.call("connect", &[9611]), 0);
    // ra_anchor: output pointer.
    assert_eq!(guest.call("anchor_at", &[-32]), FAIL);
    // ra_receive_data: `-1 as usize` used to pass the length check, so the
    // secret was written wherever it still fitted — here over the sentinel.
    let buf = guest.buf as i32;
    assert_eq!(guest.call("receive_at", &[buf, -1]), FAIL);
    assert_eq!(guest.call("receive_at", &[buf, i32::MIN]), FAIL);
    assert_eq!(guest.call("receive_at", &[-1, 4096]), FAIL);
    assert!(guest.buffer_untouched());
    // Refused before anything was received: the session is still good.
    assert_eq!(guest.call("receive", &[4096]), 1000);
    assert_eq!(guest.buffer()[..1000], secret[..]);
}

// ---------------------------------------------------------------------------
// A verifier that appraises honestly and then tampers with its own frames
// ---------------------------------------------------------------------------

/// Serves one session on `port`: the honest protocol up to the release,
/// then `tamper` applied to the honest record frames before they are sent
/// and the connection closed.
fn tampering_verifier(
    guest: &Guest,
    port: u16,
    tamper: impl FnOnce(&mut Vec<Vec<u8>>) + Send + 'static,
) -> JoinHandle<()> {
    let listener = guest.rt.os().network().listen(port).unwrap();
    let config = guest.config.clone();
    std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let mut verifier = Verifier::new(config);
        let msg0 = Msg0::from_bytes(&conn.recv().unwrap()).unwrap();
        let (msg1, _) = verifier
            .handle_msg0(&msg0, &mut Fortuna::from_seed(&port.to_be_bytes()))
            .unwrap();
        conn.send(&msg1.to_bytes()).unwrap();
        let msg2 = Msg2::from_bytes(&conn.recv().unwrap()).unwrap();
        verifier.appraise(&msg2).unwrap();
        let mut frames = Vec::new();
        verifier
            .release(|record| {
                frames.push(record.into_bytes());
                true
            })
            .unwrap();
        tamper(&mut frames);
        for frame in frames {
            conn.send_owned(frame).unwrap();
        }
    })
}

/// Runs one guest session against a tampering verifier and expects
/// `ra_receive_data` to return `want`, twice, with the buffer untouched.
fn guest_refuses(
    case: &str,
    port: u16,
    want: i32,
    tamper: impl FnOnce(&mut Vec<Vec<u8>>) + Send + 'static,
) {
    let secret = blob(4 * LEN + 100);
    let mut guest = Guest::launch("tampered-device", secret.len(), &secret);
    let verifier = tampering_verifier(&guest, port, tamper);
    assert_eq!(guest.call("connect", &[i32::from(port)]), 0, "{case}");
    let cap = guest.cap as i32;
    assert_eq!(guest.call("receive", &[cap]), want, "{case}");
    assert!(
        guest.buffer_untouched(),
        "{case}: no byte may reach the guest"
    );
    verifier.join().unwrap();
    // The session is dead: asking again neither blocks nor delivers.
    assert_eq!(guest.call("receive", &[cap]), PROTOCOL, "{case}, again");
    assert!(guest.buffer_untouched(), "{case}, again");
}

#[test]
fn the_honest_frames_of_the_tampering_verifier_are_accepted() {
    // The harness itself: with the records in order the guest gets the blob.
    let secret = blob(4 * LEN + 100);
    let mut guest = Guest::launch("tampered-device", secret.len(), &secret);
    // Each frame twice in a row, as a duplicating transport delivers them:
    // the repeat is discarded, not taken for a replay.
    let verifier = tampering_verifier(&guest, 9620, |f| {
        assert_eq!(f.len(), 5);
        *f = f.iter().flat_map(|r| [r.clone(), r.clone()]).collect();
    });
    assert_eq!(guest.call("connect", &[9620]), 0);
    assert_eq!(
        guest.call("receive", &[guest.cap as i32]),
        secret.len() as i32
    );
    assert_eq!(guest.buffer(), secret);
    verifier.join().unwrap();
}

#[test]
fn tampered_record_sequences_never_reach_guest_memory() {
    guest_refuses("swap two records", 9621, PROTOCOL, |f| f.swap(1, 2));
    guest_refuses("drop a middle record", 9622, PROTOCOL, |f| {
        f.remove(2);
    });
    guest_refuses("replay record 1 after record 2", 9623, PROTOCOL, |f| {
        f.insert(2, f[0].clone());
    });
    guest_refuses("duplicate record 2 after record 3", 9624, PROTOCOL, |f| {
        f.insert(3, f[1].clone());
    });
    guest_refuses("final flag on a middle record", 9625, PROTOCOL, |f| {
        f[2][1] ^= 1;
    });
    guest_refuses("final flag off the last record", 9626, PROTOCOL, |f| {
        f[4][1] ^= 1;
    });
    guest_refuses(
        "one ciphertext bit in the last record",
        9627,
        PROTOCOL,
        |f| {
            f[4][40] ^= 1;
        },
    );
    guest_refuses("garbage between records", 9628, PROTOCOL, |f| {
        f.insert(3, b"not a record".to_vec());
    });
    // Truncation: the verifier hangs up with the sequence unfinished.
    guest_refuses("drop the final record", 9629, NET, |f| {
        f.pop();
    });
    guest_refuses("a non-final record as the only one", 9630, NET, |f| {
        f.truncate(1);
    });
}

#[test]
fn a_record_spliced_from_another_session_never_reaches_guest_memory() {
    // Session A's frames, captured; then record 3 of session A in place of
    // record 3 of session B. Same verifier, same secret, same position.
    let secret = blob(4 * LEN + 100);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut guest_a = Guest::launch("tampered-device", secret.len(), &secret);
    let verifier = tampering_verifier(&guest_a, 9631, move |f| tx.send(f.clone()).unwrap());
    assert_eq!(guest_a.call("connect", &[9631]), 0);
    assert_eq!(
        guest_a.call("receive", &[guest_a.cap as i32]),
        secret.len() as i32
    );
    verifier.join().unwrap();
    let session_a = rx.recv().unwrap();
    guest_refuses("splice across sessions", 9632, PROTOCOL, move |f| {
        f[2] = session_a[2].clone();
    });
}

#[test]
fn records_after_the_final_one_are_never_read() {
    let secret = blob(4 * LEN + 100);
    let mut guest = Guest::launch("tampered-device", secret.len() + LEN, &secret);
    let verifier = tampering_verifier(&guest, 9633, |f| {
        f.push(f[0].clone());
        f.push(f[4].clone());
    });
    assert_eq!(guest.call("connect", &[9633]), 0);
    assert_eq!(
        guest.call("receive", &[guest.cap as i32]),
        secret.len() as i32
    );
    let buffer = guest.buffer();
    assert_eq!(buffer[..secret.len()], secret[..]);
    assert!(buffer[secret.len()..].iter().all(|&b| b == SENTINEL));
    verifier.join().unwrap();
}

// ---------------------------------------------------------------------------
// The fault plane at 100 % on a 512 KiB blob
// ---------------------------------------------------------------------------

#[test]
fn saturated_fault_plans_never_deliver_a_wrong_or_partial_blob() {
    let secret = blob(512 << 10);
    let plans = [
        ("drop", FaultPlan::new(0xB10B).drop_rate(1.0)),
        ("corrupt", FaultPlan::new(0xB10C).corrupt_rate(1.0, 4)),
        ("duplicate", FaultPlan::new(0xB10D).duplicate_rate(1.0)),
        ("disconnect", FaultPlan::new(0xB10E).disconnect_rate(1.0)),
    ];
    for (i, (name, plan)) in plans.into_iter().enumerate() {
        let mut guest = Guest::launch("chaos-device", secret.len(), &secret);
        let port = 9640 + i as u16;
        let server = VerifierServer::spawn(guest.rt.os(), guest.config.clone(), port).unwrap();
        guest.rt.os().network().install_fault_plan(plan);

        // The guest: whatever happened, its buffer is the secret or the
        // sentinel, and a success is the whole secret.
        let connected = guest.call("connect", &[i32::from(port)]);
        let got = if connected == 0 {
            guest.call("receive", &[guest.cap as i32])
        } else {
            connected
        };
        if got >= 0 {
            assert_eq!(got as usize, secret.len(), "{name}: a short accept");
            assert!(guest.buffer() == secret, "{name}: a wrong accept");
        } else {
            assert!(
                guest.buffer_untouched(),
                "{name}: partial blob in the guest"
            );
        }

        // The retry client, one attempt, short reply timeout.
        let outcome = guest.client(port).attempt(
            0,
            Duration::from_millis(200),
            &mut Fortuna::from_seed(b"chaos client"),
        );
        if let Ok(got) = outcome {
            assert!(got == secret, "{name}: a wrong accept at the client");
        }
        guest.rt.os().network().clear_fault_plan();
        let stats = server.shutdown();
        assert!(stats.served + stats.rejected <= 2, "{name}: two sessions");
        assert!(
            !guest.rt.os().network().take_fault_log().is_empty(),
            "{name}: the plan must have fired"
        );
    }
}

#[test]
fn a_client_that_hangs_up_mid_release_ends_the_session() {
    // A failed send stops the sealing, the session whose records had
    // nowhere to go counts as disconnected, not served, and the honest
    // session after it is served. The quitter stops listening before its
    // msg2 leaves, so the release's first send fails, whatever the timing.
    let secret = blob(3 << 20);
    let guest = Guest::launch("hangup-device", 1, &secret);
    let server = VerifierServer::spawn(guest.rt.os(), guest.config.clone(), 9650).unwrap();
    let client = guest.client(9650);
    let mut conn = client.net.connect(9650).unwrap();
    let (mut attester, msg0) = Attester::start(&mut Fortuna::from_seed(b"quitter"));
    conn.send(&msg0.to_bytes()).unwrap();
    let msg1 = Msg1::from_bytes(&conn.recv().unwrap()).unwrap();
    let (msg2, _) = attester
        .attest(
            &msg1,
            &client.pinned_verifier_key,
            client.service,
            &client.measurement,
        )
        .unwrap();
    conn.shutdown_recv();
    conn.send(&msg2.to_bytes()).unwrap();
    drop(conn);
    let got = client.attempt(
        0,
        Duration::from_secs(10),
        &mut Fortuna::from_seed(b"stayer"),
    );
    assert_eq!(got, Ok(secret));
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.disconnected), (1, 1));
    assert_eq!(stats.accepted, stats.completed());
}
