//! Fig 7: execution time of msg3 (AES-GCM secret blob) vs data size.
//! Paper: 3 ms at 0.5 MB up to 17 ms at 3 MB, encrypt ~ decrypt, linear.
//!
//! `encrypt` / `decrypt` are the two halves the paper plots, each on its own
//! machine. The last two columns are the whole msg3 step of one session:
//! `serial` seals the blob whole and then opens it (one thread, as the
//! lock-step callers do), `records` releases it as 64 KiB records over the
//! loopback transport to a receiving attester, the verifier sealing record
//! k + 1 while record k is opened — on two cores, the larger half plus one
//! record.

use std::time::{Duration, Instant};

use optee_sim::net::Listener;
use optee_sim::TrustedOs;
use tz_hal::{Platform, PlatformConfig};
use watz_attestation::attester::Attester;
use watz_attestation::service::AttestationService;
use watz_attestation::verifier::{Verifier, VerifierConfig};
use watz_bench::{fmt, header, host_info, median_time, reps};
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::gcm::AesGcm128;

const PORT: u16 = 9700;

/// One session up to the point where the verifier has appraised and the
/// attester waits for the blob.
fn session(svc: &AttestationService, config: &VerifierConfig) -> (Verifier, Attester) {
    let measurement = [7u8; 32];
    let mut verifier = Verifier::new(config.clone());
    let (mut attester, msg0) = Attester::start(&mut Fortuna::from_seed(b"fig7 attester"));
    let (msg1, _) = verifier
        .handle_msg0(&msg0, &mut Fortuna::from_seed(b"fig7 verifier"))
        .unwrap();
    let (msg2, _) = attester
        .attest(&msg1, &config.identity_public_key(), svc, &measurement)
        .unwrap();
    verifier.appraise(&msg2).unwrap();
    (verifier, attester)
}

/// The msg3 step of one session as records: the verifier releases on its
/// own thread, the attester receives on this one.
fn records_session(
    os: &TrustedOs,
    listener: &Listener,
    svc: &AttestationService,
    config: &VerifierConfig,
) -> Duration {
    let (mut verifier, mut attester) = session(svc, config);
    let client = os.network().connect(PORT).unwrap();
    let server = listener.accept().unwrap();
    let t = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            verifier
                .release(|record| server.send_owned(record.into_bytes()).is_ok())
                .unwrap()
        });
        attester
            .receive_blob(&client, Duration::from_secs(10))
            .unwrap();
    });
    t.elapsed()
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    header(
        "Fig 7: msg3 encrypt/decrypt vs secret blob size",
        "linear, 3-17 ms on A53",
    );
    println!("    {}", host_info());
    let n = reps(9);
    let cipher = AesGcm128::new(&[7u8; 16]);
    let platform = Platform::new(PlatformConfig::default());
    tz_hal::boot::install_genuine_chain(&platform).unwrap();
    let os = TrustedOs::boot(platform).unwrap();
    let svc = AttestationService::install(&os);
    let identity = SigningKey::generate(&mut Fortuna::from_seed(b"fig7 identity"));
    let listener = os.network().listen(PORT).unwrap();

    // A shared host takes a few seconds to give a machine that starts
    // using its second CPU a second core; `records` is meant to be read with
    // one (without, it reads like `serial`).
    let config_for = |secret: Vec<u8>| {
        VerifierConfig::new(identity.clone())
            .endorse_device(svc.public_key())
            .trust_measurement([7u8; 32])
            .with_secret(secret)
    };
    let warm = config_for(vec![0x5au8; 1 << 20]);
    let warm_up = Instant::now();
    while warm_up.elapsed() < Duration::from_secs(4) {
        records_session(&os, &listener, &svc, &warm);
    }

    println!(
        "  {:>8} {:>12} {:>12} {:>12} {:>12}",
        "size", "encrypt", "decrypt", "serial", "records"
    );
    for size_kb in [512usize, 1024, 1536, 2048, 2560, 3072] {
        let data = vec![0x5au8; size_kb * 1024];
        let iv = [1u8; 12];
        let enc = median_time(n, || {
            let _ = cipher.encrypt(&iv, &data, b"");
        });
        let (ct, tag) = cipher.encrypt(&iv, &data, b"");
        let dec = median_time(n, || {
            let _ = cipher.decrypt(&iv, &ct, b"", &tag).unwrap();
        });

        let config = config_for(data.clone());
        let serial = median(
            (0..n.max(1))
                .map(|_| {
                    let (mut verifier, mut attester) = session(&svc, &config);
                    let t = Instant::now();
                    let msg3 = verifier.build_msg3(&data).unwrap();
                    let (blob, _) = attester.handle_msg3(&msg3).unwrap();
                    let took = t.elapsed();
                    assert_eq!(blob.len(), data.len());
                    took
                })
                .collect(),
        );
        let records = median(
            (0..n.max(1))
                .map(|_| records_session(&os, &listener, &svc, &config))
                .collect(),
        );
        println!(
            "  {:>6.1}MB {:>12} {:>12} {:>12} {:>12}",
            size_kb as f64 / 1024.0,
            fmt(enc),
            fmt(dec),
            fmt(serial),
            fmt(records)
        );
    }
}
