//! `blob_provision` (Fig 7, Tab IV): a hosted guest attests through
//! WASI-RA (`ra_handshake`, `ra_collect_quote`, `ra_send_quote`,
//! `ra_receive_data`) and receives a secret blob into its memory. It uses
//! `watz-crypto` the other way round from `fleet_handshake`: AES-GCM
//! encrypt + decrypt and hashing are ~90 % of a 2 MiB session while P-256
//! is a fixed ~4 ms, and it adds the copies (frame, decrypt buffer, guest
//! memory) that `watz-wasi` and `optee-sim` own. The guest is launched
//! once; a round is three sessions, one per blob size, each against a
//! `VerifierServer` holding that blob.

use std::time::{Duration, Instant};

use watz_runtime::{AppConfig, RaVerifierConfig, VerifierServer, WatzApp, WatzRuntime};
use watz_wasm::exec::Value;

use super::{boot_device, Workload};
use crate::gen::Rng;
use crate::layers::{self, RuntimePhases};
use crate::metrics::Layers;
use crate::stats::fast;
use crate::trace::Tracer;
use crate::{Outcome, Sizes};

const NAME: &str = "blob_provision";
const FIRST_PORT: u16 = 9501;

/// The Tab IV guest, with the receive buffer allocated once (the MiniC
/// allocator never frees) and both handles disposed after each session.
const GUEST: &str = r#"
    extern int ra_handshake(int port, int key_ptr);
    extern int ra_collect_quote(int ctx);
    extern int ra_send_quote(int ctx, int q);
    extern int ra_receive_data(int ctx, int buf, int len);
    extern int ra_dispose_quote(int q);
    extern int ra_dispose(int ctx);
    int key_addr = 0; int buf = 0; int cap = 0;
    int ctx = 0; int quote = 0;
    int init(int max) {
        key_addr = (int)alloc(64);
        buf = (int)alloc(max);
        cap = max;
        return key_addr;
    }
    int buf_addr() { return buf; }
    int do_handshake(int port) { ctx = ra_handshake(port, key_addr); return ctx; }
    int do_collect() { quote = ra_collect_quote(ctx); return quote; }
    int do_send() { return ra_send_quote(ctx, quote); }
    int do_receive() { return ra_receive_data(ctx, buf, cap); }
    int do_close() { ra_dispose_quote(quote); return ra_dispose(ctx); }
"#;

struct Blob {
    len: usize,
    digest: [u8; 32],
    port: u16,
    _server: VerifierServer,
    session_ms: Vec<f64>,
    receive_ms: Vec<f64>,
}

/// See the module documentation.
pub struct BlobProvision {
    rt: WatzRuntime,
    app: WatzApp,
    wasm: Vec<u8>,
    buf_addr: u32,
    blobs: Vec<Blob>,
    /// Verifier configuration of the largest blob, for the lock-step probe.
    config: RaVerifierConfig,
    measurement: [u8; 32],
    handshake_ms: Vec<f64>,
    collect_us: Vec<f64>,
    send_us: Vec<f64>,
    /// Fast tails of the four host calls, for the traced report.
    wasi: [f64; 4],
    phases: RuntimePhases,
}

fn int(app: &mut WatzApp, name: &str, args: &[Value]) -> Result<i32, String> {
    match app.invoke(name, args) {
        Ok(v) => match v.as_slice() {
            [Value::I32(x)] => Ok(*x),
            other => Err(format!("{name} returned {other:?}")),
        },
        Err(e) => Err(format!("{name}: {e}")),
    }
}

impl BlobProvision {
    /// Compiles and launches the guest, generates the blobs and spawns one
    /// verifier per blob.
    ///
    /// # Errors
    ///
    /// Compile, boot, load or spawn failures as text.
    pub fn setup(seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let rt = boot_device(seed, NAME)?;
        let wasm = minic::compile(GUEST).map_err(|e| e.to_string())?;
        let measurement = layers::sha256(&wasm);
        let base = RaVerifierConfig::new(layers::identity_key("benchmark blob owner"))
            .endorse_device(rt.device_public_key())
            .trust_measurement(measurement);
        let pinned = base.identity_public_key();
        let mut blobs = Vec::new();
        let mut config = base.clone();
        for (i, &len) in sizes.blobs.iter().enumerate() {
            let data = Rng::new(seed, &format!("blob-{i}")).bytes(len);
            let port = FIRST_PORT + i as u16;
            config = base.clone().with_secret(data.clone());
            blobs.push(Blob {
                len,
                digest: layers::sha256(&data),
                port,
                _server: VerifierServer::spawn(rt.os(), config.clone(), port)
                    .map_err(|e| e.to_string())?,
                session_ms: Vec::new(),
                receive_ms: Vec::new(),
            });
        }
        let mut phases = RuntimePhases::default();
        let t = Instant::now();
        let mut app = rt
            .load(&wasm, &AppConfig::default())
            .map_err(|e| e.to_string())?;
        phases.add(t.elapsed(), &app.startup_breakdown());
        phases.end_round();
        let max = sizes.blobs.iter().copied().max().unwrap_or(0) as i32;
        let key_addr = int(&mut app, "init", &[Value::I32(max)])? as u32;
        app.write_memory(key_addr, &pinned)
            .map_err(|e| e.to_string())?;
        let buf_addr = int(&mut app, "buf_addr", &[])? as u32;
        Ok(BlobProvision {
            rt,
            app,
            wasm,
            buf_addr,
            blobs,
            config,
            measurement,
            handshake_ms: Vec::new(),
            collect_us: Vec::new(),
            send_us: Vec::new(),
            wasi: [0.0; 4],
            phases,
        })
    }

    /// SHA-256 of each blob, in size order (for the determinism tests).
    #[must_use]
    pub fn blob_digests(&self) -> Vec<[u8; 32]> {
        self.blobs.iter().map(|b| b.digest).collect()
    }
}

impl Workload for BlobProvision {
    fn run(&mut self, budget: Duration, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let started = Instant::now();
        let enters0 = layers::enters(self.rt.platform());
        loop {
            let round = out.rounds as u64;
            for b in &mut self.blobs {
                let app = &mut self.app;
                let session = tr.begin("session", "benchmark", round, None);
                let mut timed = |name: &'static str, export: &str, args: &[Value]| {
                    let s = tr.begin(name, "watz-wasi", round, session);
                    let t = Instant::now();
                    let r = int(app, export, args);
                    let took = t.elapsed();
                    tr.end(s);
                    (r, took)
                };
                let port = [Value::I32(i32::from(b.port))];
                let (ctx, t_hs) = timed("ra_handshake", "do_handshake", &port);
                let (quote, t_cq) = timed("ra_collect_quote", "do_collect", &[]);
                let (sent, t_sq) = timed("ra_send_quote", "do_send", &[]);
                let (got, t_rd) = timed("ra_receive_data", "do_receive", &[]);
                let took = t_hs + t_cq + t_sq + t_rd;
                tr.end(session);
                self.handshake_ms.push(t_hs.as_secs_f64() * 1e3);
                self.collect_us.push(t_cq.as_secs_f64() * 1e6);
                self.send_us.push(t_sq.as_secs_f64() * 1e6);
                b.receive_ms.push(t_rd.as_secs_f64() * 1e3);
                b.session_ms.push(took.as_secs_f64() * 1e3);

                // Known answer: the bytes now in guest memory hash to the
                // provisioned blob's digest.
                let problem = match (ctx, quote, sent, got) {
                    (Ok(c), Ok(q), Ok(0), Ok(n)) if c >= 0 && q >= 0 && n == b.len as i32 => {
                        match self.app.read_memory(self.buf_addr, b.len as u32) {
                            Ok(bytes) if layers::sha256(&bytes) == b.digest => None,
                            Ok(_) => Some("guest memory does not hash to the blob".to_string()),
                            Err(e) => Some(e.to_string()),
                        }
                    }
                    other => Some(format!("handshake/collect/send/receive returned {other:?}")),
                };
                let closed = int(&mut self.app, "do_close", &[]);
                let problem = problem.or(match closed {
                    Ok(0) => None,
                    other => Some(format!("do_close returned {other:?}")),
                });
                out.check(NAME, || format!("round {round} blob {} B", b.len), problem);
            }
            out.rounds += 1;
            if started.elapsed() >= budget {
                break;
            }
        }
        out.enters = layers::enters(self.rt.platform()) - enters0;
        const ROWS: [&str; 3] = ["session_small", "session_medium", "session_large"];
        let (mut round_ms, mut round_bytes) = (0.0, 0usize);
        for (i, (b, row)) in self.blobs.iter().zip(ROWS).enumerate() {
            let ms = fast(&b.session_ms);
            out.detail.push((row, "ms", ms));
            if i == 0 {
                // The smallest blob's session is nearly all handshake: the
                // fixed cost of provisioning.
                out.op_ms = ms;
                out.op_samples = b.session_ms.clone();
            }
            round_ms += ms;
            round_bytes += b.len;
        }
        out.ops_per_s = self.blobs.len() as f64 / (round_ms / 1e3);
        out.detail.push((
            "op.blob_mb_per_s",
            "MB/s",
            round_bytes as f64 / 1e6 / (round_ms / 1e3),
        ));
        self.wasi = [
            fast(&self.handshake_ms),
            fast(&self.collect_us),
            fast(&self.send_us),
            self.blobs.last().map_or(0.0, |b| fast(&b.receive_ms)),
        ];
        out
    }

    fn layers(&mut self, outcome: &Outcome, out: &mut Layers) -> Result<(), String> {
        out.set("watz-wasi.ra_handshake_ms", self.wasi[0]);
        out.set("watz-wasi.ra_collect_quote_us", self.wasi[1]);
        out.set("watz-wasi.ra_send_quote_us", self.wasi[2]);
        out.set("watz-wasi.ra_receive_ms", self.wasi[3]);
        layers::record_crypto(out);
        layers::record_attestation(
            out,
            self.rt.attestation_service(),
            &self.config,
            &self.measurement,
            10,
        )?;
        layers::record_compile(out, &[layers::compile_cost(&self.wasm, 5)?]);
        self.phases.record(out);
        layers::record_net(out)?;
        layers::record_runtime_host(out, &self.rt, outcome)?;
        Ok(())
    }
}
