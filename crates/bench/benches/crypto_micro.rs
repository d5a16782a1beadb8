//! Criterion micro-benchmarks of the cryptographic primitives backing the
//! attestation protocol (supporting data for Table III).

use criterion::{criterion_group, criterion_main, Criterion};
use watz_crypto::aes::Aes;
use watz_crypto::cmac::AesCmac;
use watz_crypto::ecdh::EphemeralKeyPair;
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::gcm::AesGcm128;
use watz_crypto::p256::{curve, AffinePoint, U256};
use watz_crypto::sha256::Sha256;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    g.sample_size(10);

    g.bench_function("sha256_1mb", |b| {
        let data = vec![0u8; 1 << 20];
        b.iter(|| Sha256::digest(std::hint::black_box(&data)));
    });

    g.bench_function("cmac_209b_msg1", |b| {
        let mac = AesCmac::new(&[1u8; 16]);
        let msg = vec![0u8; 209];
        b.iter(|| mac.mac(std::hint::black_box(&msg)));
    });

    g.bench_function("gcm_encrypt_1mb", |b| {
        let cipher = AesGcm128::new(&[2u8; 16]);
        let data = vec![0u8; 1 << 20];
        b.iter(|| cipher.encrypt(&[0u8; 12], std::hint::black_box(&data), b""));
    });

    g.bench_function("gcm_decrypt_1mb", |b| {
        let cipher = AesGcm128::new(&[2u8; 16]);
        let (ct, tag) = cipher.encrypt(&[0u8; 12], &vec![0u8; 1 << 20], b"");
        b.iter(|| cipher.decrypt(&[0u8; 12], std::hint::black_box(&ct), b"", &tag));
    });

    // The two kernels under the GCM number, and its per-session fixed cost.
    // One AES block is one CTR keystream block; GHASH alone is a GCM call
    // whose megabyte is all AAD (no CTR work beyond the tag's one block).
    g.bench_function("aes128_block", |b| {
        let aes = Aes::new_128(&[2u8; 16]);
        b.iter(|| aes.encrypt(std::hint::black_box(&[0u8; 16])));
    });

    g.bench_function("ghash_1mb", |b| {
        let cipher = AesGcm128::new(&[2u8; 16]);
        let data = vec![0u8; 1 << 20];
        b.iter(|| cipher.encrypt(&[0u8; 12], b"", std::hint::black_box(&data)));
    });

    g.bench_function("gcm_key_setup", |b| {
        b.iter(|| AesGcm128::new(std::hint::black_box(&[2u8; 16])));
    });

    g.bench_function("ecdsa_sign", |b| {
        let mut rng = Fortuna::from_seed(b"bench");
        let key = SigningKey::generate(&mut rng);
        let digest = Sha256::digest(b"message");
        b.iter(|| key.sign_deterministic(std::hint::black_box(&digest)));
    });

    g.bench_function("ecdsa_verify", |b| {
        let mut rng = Fortuna::from_seed(b"bench");
        let key = SigningKey::generate(&mut rng);
        let digest = Sha256::digest(b"message");
        let sig = key.sign_deterministic(&digest);
        b.iter(|| {
            key.verifying_key()
                .verify(std::hint::black_box(&digest), &sig)
        });
    });

    g.bench_function("ecdsa_verify_comb", |b| {
        let mut rng = Fortuna::from_seed(b"bench");
        let key = SigningKey::generate(&mut rng);
        let digest = Sha256::digest(b"message");
        let sig = key.sign_deterministic(&digest);
        let comb = key.verifying_key().comb_table();
        b.iter(|| {
            key.verifying_key()
                .verify_with(&comb, std::hint::black_box(&digest), &sig)
        });
    });

    g.bench_function("ecdhe_keygen", |b| {
        let mut rng = Fortuna::from_seed(b"bench");
        b.iter(|| EphemeralKeyPair::generate(std::hint::black_box(&mut rng)));
    });

    g.bench_function("ecdh_shared", |b| {
        let mut rng = Fortuna::from_seed(b"bench");
        let local = EphemeralKeyPair::generate(&mut rng);
        let peer = EphemeralKeyPair::generate(&mut rng).public_bytes();
        b.iter(|| local.diffie_hellman(std::hint::black_box(&peer)));
    });

    // What the operations above are made of. Under p, multiply and square
    // reduce with p's limbs as constants and an inversion is p - 2's
    // addition chain (255 squarings, 12 multiplies); under n, a generic
    // CIOS multiply and a 4-bit-window Fermat ladder of ~320 of them. k*G is
    // <= 64 mixed additions from the generator table, k*P is 256 doublings
    // and <= 64 general additions over a 15-entry table built per call,
    // and a comb verify replaces the latter with 64 doublings and <= 64
    // mixed additions over a 15-entry table built once per key. Both
    // scalar multiplications include the inversion back to affine.
    let k = U256::from_hex("bce6faada7179e84f3b9cac2fc632551ffffffff00000000ffffffffffffffff");
    let (fp, fn_) = (curve::fp(), curve::fn_());
    g.bench_function("p256_field_mul", |b| {
        let (x, y) = (fp.to_mont(&curve::gx()), fp.to_mont(&curve::gy()));
        b.iter(|| fp.mul(std::hint::black_box(&x), std::hint::black_box(&y)));
    });
    g.bench_function("p256_field_sqr", |b| {
        let x = fp.to_mont(&curve::gx());
        b.iter(|| fp.sqr(std::hint::black_box(&x)));
    });
    g.bench_function("p256_field_inv", |b| {
        let x = fp.to_mont(&curve::gx());
        b.iter(|| fp.inv(std::hint::black_box(&x)));
    });
    g.bench_function("p256_scalar_inv", |b| {
        let x = fn_.to_mont(&curve::gx());
        b.iter(|| fn_.inv(std::hint::black_box(&x)));
    });
    g.bench_function("p256_mul_g_fixed_base", |b| {
        b.iter(|| AffinePoint::mul_base(std::hint::black_box(&k)));
    });
    g.bench_function("p256_mul_point_windowed", |b| {
        let point = AffinePoint::mul_base(&U256::from_hex("c0ffee"));
        b.iter(|| point.mul_scalar(std::hint::black_box(&k)));
    });
    g.bench_function("p256_comb_build", |b| {
        let key = *SigningKey::generate(&mut Fortuna::from_seed(b"bench")).verifying_key();
        b.iter(|| std::hint::black_box(&key).comb_table());
    });

    g.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
