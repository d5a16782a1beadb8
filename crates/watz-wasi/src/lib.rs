//! WASI for WaTZ: the POSIX-like system interface hosted Wasm applications
//! use, mapped onto the trusted OS — plus **WASI-RA**, the paper's extension
//! for remote attestation (§V).
//!
//! The paper implements adapters for the WASI functions its benchmarks need
//! and leaves the rest as stubs; we do the same. Implemented:
//!
//! | import | behaviour |
//! |---|---|
//! | `wasi_snapshot_preview1.clock_time_get` | REE monotonic clock, fetched through the secure world (pays the Fig 3a latency) |
//! | `wasi_snapshot_preview1.fd_write` | stdout/stderr capture (iovec-aware) |
//! | `wasi_snapshot_preview1.random_get` | Fortuna-backed |
//! | `wasi_snapshot_preview1.proc_exit` | terminates the guest |
//! | `wasi_snapshot_preview1.args_*`, `environ_*` | empty sets |
//! | assorted `fd_*`/`path_*` | `ENOSYS` stubs, like the paper's 45 dummies |
//!
//! MiniC guests import the same services under short `env.*` names
//! (`clock_ns`, `print_*`), plus the WASI-RA family:
//!
//! * `ra_handshake(port, verifier_key_ptr) -> ctx` — msg0/msg1 exchange
//!   (`wasi_ra_net_handshake`);
//! * `ra_anchor(ctx, out32_ptr)` — the session anchor;
//! * `ra_collect_quote(ctx) -> quote` — evidence issuance
//!   (`wasi_ra_collect_quote`);
//! * `ra_dispose_quote(quote)` (`wasi_ra_dispose_quote`);
//! * `ra_send_quote(ctx, quote)` — sends msg2 (`wasi_ra_net_send_quote`);
//! * `ra_receive_data(ctx, buf_ptr, buf_len) -> len` — receives the msg3
//!   record sequence, opening each record as it arrives, and copies the
//!   secret blob out once its final record has verified; a buffer that is
//!   too small is told so and may retry (`wasi_ra_net_receive_data`);
//! * `ra_dispose(ctx)` (`wasi_ra_net_dispose`).
//!
//! Return codes: non-negative on success, [`err_codes`] constants (< 0) on
//! failure, so guests can branch on outcomes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use optee_sim::net::{Connection, RECV_TIMEOUT};
use optee_sim::{time, TrustedOs};
use watz_attestation::attester::{AttemptError, Attester};
use watz_attestation::evidence::Evidence;
use watz_attestation::service::AttestationService;
use watz_attestation::wire::Msg1;
use watz_crypto::fortuna::Fortuna;
use watz_wasm::exec::{HostEnv, Memory, Trap, Value};

/// Negative return codes surfaced to guests.
pub mod err_codes {
    /// Generic failure.
    pub const FAIL: i32 = -1;
    /// Network failure (connect/send/recv).
    pub const NET: i32 = -2;
    /// Attestation protocol failure (MAC/signature/appraisal).
    pub const PROTOCOL: i32 = -3;
    /// Invalid handle passed by the guest.
    pub const BAD_HANDLE: i32 = -4;
    /// Guest buffer too small.
    pub const BUFFER_TOO_SMALL: i32 = -5;
}

/// WASI errno values (subset).
mod errno {
    pub const SUCCESS: i32 = 0;
    pub const BADF: i32 = 8;
    pub const NOSYS: i32 = 52;
}

struct RaSession {
    attester: Attester,
    conn: Connection,
    anchor: [u8; 32],
    received: Option<Vec<u8>>,
}

/// The host environment for Wasm applications hosted in WaTZ.
///
/// One `WasiEnv` per application instance. It carries the application's
/// measurement (set by the runtime at load time) so that quotes collected
/// through WASI-RA attest the *actual* loaded bytecode.
pub struct WasiEnv {
    os: TrustedOs,
    service: Arc<AttestationService>,
    measurement: [u8; 32],
    rng: Fortuna,
    stdout: Vec<u8>,
    sessions: Vec<Option<RaSession>>,
    quotes: Vec<Option<Evidence>>,
    exit_code: Option<i32>,
}

impl std::fmt::Debug for WasiEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WasiEnv {{ sessions: {}, quotes: {}, stdout: {}B }}",
            self.sessions.len(),
            self.quotes.len(),
            self.stdout.len()
        )
    }
}

impl WasiEnv {
    /// Creates an environment bound to a trusted OS and attestation service.
    #[must_use]
    pub fn new(os: TrustedOs, service: Arc<AttestationService>, measurement: [u8; 32]) -> Self {
        let rng = os.kernel_prng("wasi-random");
        WasiEnv {
            os,
            service,
            measurement,
            rng,
            stdout: Vec::new(),
            sessions: Vec::new(),
            quotes: Vec::new(),
            exit_code: None,
        }
    }

    /// Everything the guest wrote to stdout/stderr so far.
    #[must_use]
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Takes and clears the captured output.
    pub fn take_stdout(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.stdout)
    }

    /// The exit code passed to `proc_exit`, if the guest exited.
    #[must_use]
    pub fn exit_code(&self) -> Option<i32> {
        self.exit_code
    }

    /// The measurement this environment embeds in quotes.
    #[must_use]
    pub fn measurement(&self) -> [u8; 32] {
        self.measurement
    }

    fn session(&mut self, ctx: i32) -> Option<&mut RaSession> {
        usize::try_from(ctx)
            .ok()
            .and_then(|i| self.sessions.get_mut(i))
            .and_then(Option::as_mut)
    }

    fn ra_handshake(&mut self, memory: &Memory, port: i32, key_ptr: i32) -> Result<i32, Trap> {
        // Guest integers are signed: a negative one is refused here, not
        // reinterpreted as a large unsigned address or length.
        let (Ok(port), Ok(key_ptr)) = (u16::try_from(port), u32::try_from(key_ptr)) else {
            return Ok(err_codes::FAIL);
        };
        let mut pinned = [0u8; 64];
        pinned.copy_from_slice(memory.read_bytes(key_ptr, 64)?);

        // Socket traffic leaves the secure world through the supplicant:
        // model the world switches around each transfer.
        let platform = self.os.platform().clone();
        let conn = match self.os.network().connect(port) {
            Ok(c) => c,
            Err(_) => return Ok(err_codes::NET),
        };

        let (mut attester, msg0) = Attester::start(&mut self.rng);
        let sent = platform.enter_secure(|| conn.send(&msg0.to_bytes()));
        if sent.is_err() {
            return Ok(err_codes::NET);
        }
        let raw = match platform.enter_secure(|| conn.recv()) {
            Ok(r) => r,
            Err(_) => return Ok(err_codes::NET),
        };
        let Ok(msg1) = Msg1::from_bytes(&raw) else {
            return Ok(err_codes::PROTOCOL);
        };
        let anchor = match attester.handle_msg1_with(&msg1, &pinned, &self.service) {
            Ok((anchor, _)) => anchor,
            Err(_) => return Ok(err_codes::PROTOCOL),
        };

        self.sessions.push(Some(RaSession {
            attester,
            conn,
            anchor,
            received: None,
        }));
        Ok((self.sessions.len() - 1) as i32)
    }

    fn ra_anchor(&mut self, memory: &mut Memory, ctx: i32, out_ptr: i32) -> Result<i32, Trap> {
        let Ok(out_ptr) = u32::try_from(out_ptr) else {
            return Ok(err_codes::FAIL);
        };
        let Some(session) = self.session(ctx) else {
            return Ok(err_codes::BAD_HANDLE);
        };
        let anchor = session.anchor;
        memory.write_bytes(out_ptr, &anchor)?;
        Ok(0)
    }

    fn ra_collect_quote(&mut self, ctx: i32) -> i32 {
        let service = Arc::clone(&self.service);
        let measurement = self.measurement;
        let Some(session) = self.session(ctx) else {
            return err_codes::BAD_HANDLE;
        };
        match session.attester.collect_quote(&service, &measurement) {
            Ok((evidence, _)) => {
                self.quotes.push(Some(evidence));
                (self.quotes.len() - 1) as i32
            }
            Err(_) => err_codes::PROTOCOL,
        }
    }

    fn ra_dispose_quote(&mut self, quote: i32) -> i32 {
        match usize::try_from(quote)
            .ok()
            .and_then(|i| self.quotes.get_mut(i))
        {
            Some(slot) if slot.is_some() => {
                *slot = None;
                0
            }
            _ => err_codes::BAD_HANDLE,
        }
    }

    fn ra_send_quote(&mut self, ctx: i32, quote: i32) -> i32 {
        let evidence = match usize::try_from(quote)
            .ok()
            .and_then(|i| self.quotes.get(i))
            .and_then(Option::as_ref)
        {
            Some(e) => e.clone(),
            None => return err_codes::BAD_HANDLE,
        };
        let platform = self.os.platform().clone();
        let Some(session) = self.session(ctx) else {
            return err_codes::BAD_HANDLE;
        };
        let Ok((msg2, _)) = session.attester.build_msg2(evidence) else {
            return err_codes::PROTOCOL;
        };
        match platform.enter_secure(|| session.conn.send(&msg2.to_bytes())) {
            Ok(()) => 0,
            Err(_) => err_codes::NET,
        }
    }

    fn ra_receive_data(
        &mut self,
        memory: &mut Memory,
        ctx: i32,
        buf_ptr: i32,
        buf_len: i32,
    ) -> Result<i32, Trap> {
        // Before anything is received: `-1 as usize` would pass the length
        // check below and let the whole secret be written past the buffer.
        let (Ok(buf_ptr), Ok(buf_len)) = (u32::try_from(buf_ptr), usize::try_from(buf_len)) else {
            return Ok(err_codes::FAIL);
        };
        let platform = self.os.platform().clone();
        let Some(session) = self.session(ctx) else {
            return Ok(err_codes::BAD_HANDLE);
        };
        if session.received.is_none() {
            // One secure-world entry for the whole record sequence. The
            // secret reaches the secure buffer only once its final record
            // has verified; any failure ends the session.
            let blob = platform
                .enter_secure(|| session.attester.receive_blob(&session.conn, RECV_TIMEOUT));
            match blob {
                Ok(blob) => session.received = Some(blob),
                Err(AttemptError::Timeout | AttemptError::PeerClosed) => return Ok(err_codes::NET),
                Err(_) => return Ok(err_codes::PROTOCOL),
            }
        }
        let data = session.received.as_deref().expect("just set");
        if data.len() > buf_len {
            return Ok(err_codes::BUFFER_TOO_SMALL);
        }
        memory.write_bytes(buf_ptr, data)?;
        Ok(data.len() as i32)
    }

    fn ra_dispose(&mut self, ctx: i32) -> i32 {
        match usize::try_from(ctx)
            .ok()
            .and_then(|i| self.sessions.get_mut(i))
        {
            Some(slot) if slot.is_some() => {
                *slot = None;
                0
            }
            _ => err_codes::BAD_HANDLE,
        }
    }

    fn fd_write(
        &mut self,
        memory: &mut Memory,
        fd: i32,
        iovs: i32,
        iovs_len: i32,
        nwritten_ptr: i32,
    ) -> Result<i32, Trap> {
        if fd != 1 && fd != 2 {
            return Ok(errno::BADF);
        }
        let mut written = 0u32;
        for i in 0..iovs_len {
            let entry = (iovs + i * 8) as u32;
            let ptr_bytes = memory.read_bytes(entry, 4)?;
            let len_bytes = memory.read_bytes(entry + 4, 4)?;
            let ptr = u32::from_le_bytes([ptr_bytes[0], ptr_bytes[1], ptr_bytes[2], ptr_bytes[3]]);
            let len = u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]);
            let data = memory.read_bytes(ptr, len)?.to_vec();
            self.stdout.extend_from_slice(&data);
            written += len;
        }
        memory.write_bytes(nwritten_ptr as u32, &written.to_le_bytes())?;
        Ok(errno::SUCCESS)
    }

    fn print_str(&mut self, memory: &Memory, ptr: i32) -> Result<(), Trap> {
        // NUL-terminated string in guest memory.
        let mut addr = ptr as u32;
        loop {
            let b = memory.read_bytes(addr, 1)?[0];
            if b == 0 {
                break;
            }
            self.stdout.push(b);
            addr += 1;
        }
        Ok(())
    }
}

#[allow(clippy::too_many_lines)]
impl HostEnv for WasiEnv {
    fn call(
        &mut self,
        module: &str,
        name: &str,
        memory: &mut Memory,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let i = |n: usize| -> i32 {
            match args.get(n) {
                Some(Value::I32(v)) => *v,
                _ => 0,
            }
        };
        match (module, name) {
            // ---- WASI preview1 ------------------------------------------
            ("wasi_snapshot_preview1", "clock_time_get") => {
                let ns = time::secure_clock_ns(self.os.platform());
                memory.write_bytes(i(2) as u32, &ns.to_le_bytes())?;
                Ok(vec![Value::I32(errno::SUCCESS)])
            }
            ("wasi_snapshot_preview1", "fd_write") => {
                let e = self.fd_write(memory, i(0), i(1), i(2), i(3))?;
                Ok(vec![Value::I32(e)])
            }
            ("wasi_snapshot_preview1", "random_get") => {
                let buf = i(0) as u32;
                let len = i(1) as usize;
                let bytes = self.rng.bytes(len);
                memory.write_bytes(buf, &bytes)?;
                Ok(vec![Value::I32(errno::SUCCESS)])
            }
            ("wasi_snapshot_preview1", "proc_exit") => {
                self.exit_code = Some(i(0));
                Err(Trap::Exit(i(0)))
            }
            ("wasi_snapshot_preview1", "args_sizes_get" | "environ_sizes_get") => {
                memory.write_bytes(i(0) as u32, &0u32.to_le_bytes())?;
                memory.write_bytes(i(1) as u32, &0u32.to_le_bytes())?;
                Ok(vec![Value::I32(errno::SUCCESS)])
            }
            ("wasi_snapshot_preview1", "args_get" | "environ_get") => {
                Ok(vec![Value::I32(errno::SUCCESS)])
            }
            // The paper stubs the remaining WASI surface with dummies; an
            // ENOSYS errno is the polite equivalent.
            (
                "wasi_snapshot_preview1",
                "fd_close"
                | "fd_seek"
                | "fd_read"
                | "fd_fdstat_get"
                | "fd_prestat_get"
                | "fd_prestat_dir_name"
                | "path_open"
                | "path_filestat_get"
                | "fd_sync"
                | "sched_yield"
                | "poll_oneoff",
            ) => Ok(vec![Value::I32(errno::NOSYS)]),

            // ---- env.* conveniences for MiniC guests ---------------------
            ("env", "clock_ns") => {
                let ns = time::secure_clock_ns(self.os.platform());
                Ok(vec![Value::I64(ns as i64)])
            }
            ("env", "print_i64") => {
                let v = match args.first() {
                    Some(Value::I64(v)) => *v,
                    _ => 0,
                };
                self.stdout.extend_from_slice(format!("{v}\n").as_bytes());
                Ok(vec![])
            }
            ("env", "print_f64") => {
                let v = match args.first() {
                    Some(Value::F64(v)) => *v,
                    _ => 0.0,
                };
                self.stdout.extend_from_slice(format!("{v}\n").as_bytes());
                Ok(vec![])
            }
            ("env", "print_str") => {
                self.print_str(memory, i(0))?;
                Ok(vec![])
            }
            ("env", "random_i64") => Ok(vec![Value::I64(self.rng.next_u64() as i64)]),

            // ---- WASI-RA --------------------------------------------------
            ("env", "ra_handshake") => {
                let r = self.ra_handshake(memory, i(0), i(1))?;
                Ok(vec![Value::I32(r)])
            }
            ("env", "ra_anchor") => {
                let r = self.ra_anchor(memory, i(0), i(1))?;
                Ok(vec![Value::I32(r)])
            }
            ("env", "ra_collect_quote") => Ok(vec![Value::I32(self.ra_collect_quote(i(0)))]),
            ("env", "ra_dispose_quote") => Ok(vec![Value::I32(self.ra_dispose_quote(i(0)))]),
            ("env", "ra_send_quote") => Ok(vec![Value::I32(self.ra_send_quote(i(0), i(1)))]),
            ("env", "ra_receive_data") => {
                let r = self.ra_receive_data(memory, i(0), i(1), i(2))?;
                Ok(vec![Value::I32(r)])
            }
            ("env", "ra_dispose") => Ok(vec![Value::I32(self.ra_dispose(i(0)))]),

            _ => Err(Trap::UnresolvedImport {
                module: module.to_string(),
                name: name.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tz_hal::{Platform, PlatformConfig};
    use watz_wasm::exec::{ExecMode, Instance};

    fn env() -> WasiEnv {
        let platform = Platform::new(PlatformConfig::default());
        tz_hal::boot::install_genuine_chain(&platform).unwrap();
        let os = TrustedOs::boot(platform).unwrap();
        let service = Arc::new(AttestationService::install(&os));
        WasiEnv::new(os, service, [7u8; 32])
    }

    fn run_guest(src: &str, func: &str, env: &mut WasiEnv) -> Vec<Value> {
        let wasm = minic::compile(src).expect("compile");
        let module = watz_wasm::load(&wasm).expect("load");
        let mut inst = Instance::instantiate(&module, ExecMode::Aot, env).expect("inst");
        inst.invoke(env, func, &[]).expect("run")
    }

    #[test]
    fn clock_ns_import_works() {
        let mut e = env();
        let out = run_guest(
            r#"
            extern long clock_ns();
            int positive() { return clock_ns() >= 0; }
            "#,
            "positive",
            &mut e,
        );
        assert_eq!(out, vec![Value::I32(1)]);
    }

    #[test]
    fn print_captures_stdout() {
        let mut e = env();
        run_guest(
            r#"
            extern void print_str(int s);
            extern void print_i64(long v);
            int main() { print_str("hello "); print_i64(42); return 0; }
            "#,
            "main",
            &mut e,
        );
        assert_eq!(e.stdout(), b"hello 42\n");
    }

    #[test]
    fn random_i64_varies() {
        let mut e = env();
        let out = run_guest(
            r#"
            extern long random_i64();
            int differs() { return random_i64() != random_i64(); }
            "#,
            "differs",
            &mut e,
        );
        assert_eq!(out, vec![Value::I32(1)]);
    }

    #[test]
    fn ra_handshake_to_missing_verifier_fails_cleanly() {
        let mut e = env();
        let out = run_guest(
            r#"
            extern int ra_handshake(int port, int key_ptr);
            int try_connect() {
                int* key = (int*)alloc(64);
                return ra_handshake(4242, (int)key);
            }
            "#,
            "try_connect",
            &mut e,
        );
        assert_eq!(out, vec![Value::I32(err_codes::NET)]);
    }

    #[test]
    fn bad_handles_rejected() {
        let mut e = env();
        let out = run_guest(
            r#"
            extern int ra_collect_quote(int ctx);
            extern int ra_dispose(int ctx);
            extern int ra_dispose_quote(int q);
            int main() {
                if (ra_collect_quote(5) != -4) { return 1; }
                if (ra_dispose(0) != -4) { return 2; }
                if (ra_dispose_quote(9) != -4) { return 3; }
                return 0;
            }
            "#,
            "main",
            &mut e,
        );
        assert_eq!(out, vec![Value::I32(0)]);
    }

    #[test]
    fn unknown_import_traps() {
        let mut e = env();
        let wasm =
            minic::compile("extern int mystery(); int main() { return mystery(); }").unwrap();
        let module = watz_wasm::load(&wasm).unwrap();
        let mut inst = Instance::instantiate(&module, ExecMode::Aot, &mut e).unwrap();
        assert!(matches!(
            inst.invoke(&mut e, "main", &[]),
            Err(Trap::UnresolvedImport { .. })
        ));
    }
}
