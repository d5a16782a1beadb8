//! **WaTZ**: a trusted WebAssembly runtime for (simulated) Arm TrustZone
//! with remote attestation — the reproduction of the paper's primary
//! contribution.
//!
//! The runtime is a signed trusted application hosting *unsigned* Wasm
//! applications inside the secure world. Loading an application follows the
//! paper's Fig 4 pipeline, instrumented phase by phase:
//!
//! 1. **transition** — the normal world invokes the TA (SMC world switch);
//! 2. **memory allocation** — a shared buffer carries the bytecode across
//!    worlds; the TA charges its heap and copies the bytes into secure
//!    memory;
//! 3. **hashing** — that copy is measured (SHA-256) for later evidence; a
//!    relaunch instead proves the copy equal to the resident bytes that
//!    measurement was computed from, and recalls it;
//! 4. **init** — runtime environment and WASI host setup;
//! 5. **loading** — decoding + validating the module (with the compile,
//!    the dominant phase of a first launch);
//! 6. **instantiate** — the load-time compile (register code, table
//!    image), then instance creation: memory, data segments, globals,
//!    start function;
//! 7. **execution** — the first entry into guest code (measured by
//!    [`WatzApp::invoke`]).
//!
//! The paper pays 5 and 6 in full on every launch. Here the measurement of
//! step 3 doubles as a key: the TA keeps each compiled
//! [`watz_wasm::Artifact`] resident under (measurement, mode), and a
//! **relaunch** — bytes this runtime has launched before — skips decode,
//! validation and compile and creates its instance straight from the
//! resident artifact ([`StartupBreakdown::cached`]). Each artifact keeps the exact bytes it
//! was measured from, and a relaunch compares its secure copy with them,
//! byte for byte, instead of hashing it again: equal bytes have that
//! measurement, their SHA-256, so evidence embeds the same value either
//! way. It never skips the secure copy, the heap charges or instance
//! creation, so two apps of one module share code and nothing a guest can
//! write, and it never compares or uses the shared buffer. A resident
//! artifact owns the executable pages the paper's patched allocator hands
//! out for its code, so residency is bounded by that allocator's 27 MB
//! ceiling and by nothing else; when a first launch cannot get its pages,
//! artifacts no live app runs on are dropped, least recently launched
//! first. There is nothing to configure and no switch to turn it off: a
//! freshly booted [`WatzRuntime`] is the cold path.
//!
//! Hosted applications talk to the world through WASI and attest through
//! WASI-RA ([`watz_wasi`]); the [`VerifierServer`] provides the relying
//! party side as a background service (listener in the normal world,
//! appraisal in the secure world — Fig 2), the `watz-fleet` verifier with
//! one worker.
//!
//! # Quickstart
//!
//! ```
//! use watz_runtime::{WatzRuntime, AppConfig};
//! use watz_wasm::exec::Value;
//!
//! // Build a device and boot WaTZ on it.
//! let runtime = WatzRuntime::new_device(b"demo-device").unwrap();
//!
//! // Compile a guest (in the real system: C -> WASI-SDK; here: MiniC).
//! let wasm = minic::compile("int answer() { return 6 * 7; }").unwrap();
//!
//! // Load into the secure world (copied, measured, instantiated)...
//! let mut app = runtime.load(&wasm, &AppConfig::default()).unwrap();
//! // ...and run it.
//! let out = app.invoke("answer", &[]).unwrap();
//! assert_eq!(out, vec![Value::I32(42)]);
//! assert_ne!(app.measurement(), [0u8; 32]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cache::{ArtifactCache, Key, Resident};
use optee_sim::{ExecPages, TaHeap, TeeError, TrustedOs};
use tz_hal::{Platform, PlatformConfig};
use watz_attestation::service::AttestationService;
use watz_attestation::verifier::VerifierConfig;
use watz_crypto::sha256::Sha256;
use watz_fleet::{FleetConfig, FleetStats, FleetVerifier};
use watz_wasi::WasiEnv;
use watz_wasm::exec::{ExecMode, Instance, Trap, Value};
use watz_wasm::{Artifact, EngineConfig};

pub use watz_attestation::verifier::VerifierConfig as RaVerifierConfig;
pub use watz_wasm::exec::ExecMode as Mode;

/// Errors from the WaTZ runtime.
#[derive(Debug)]
pub enum WatzError {
    /// Trusted OS / platform failure (memory caps, boot, network).
    Tee(TeeError),
    /// The Wasm binary failed to decode or validate.
    Load(watz_wasm::LoadError),
    /// Guest execution trapped.
    Trap(Trap),
}

impl std::fmt::Display for WatzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatzError::Tee(e) => write!(f, "trusted OS error: {e}"),
            WatzError::Load(e) => write!(f, "wasm load error: {e}"),
            WatzError::Trap(t) => write!(f, "guest trap: {t}"),
        }
    }
}

impl std::error::Error for WatzError {}

impl From<TeeError> for WatzError {
    fn from(e: TeeError) -> Self {
        WatzError::Tee(e)
    }
}
impl From<tz_hal::SharedMemoryError> for WatzError {
    fn from(e: tz_hal::SharedMemoryError) -> Self {
        match e {
            tz_hal::SharedMemoryError::CapExceeded { requested, cap } => {
                WatzError::Tee(TeeError::OutOfMemory {
                    requested,
                    available: cap,
                })
            }
        }
    }
}
impl From<watz_wasm::LoadError> for WatzError {
    fn from(e: watz_wasm::LoadError) -> Self {
        WatzError::Load(e)
    }
}
impl From<Trap> for WatzError {
    fn from(t: Trap) -> Self {
        WatzError::Trap(t)
    }
}

/// Per-application configuration (the TA's compile-time sizing in the
/// paper: heap/stack declared per experiment, e.g. 12 MB for PolyBench,
/// 25 MB for SQLite, 17 MB for the Genann attester).
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// TA heap budget in bytes.
    pub heap_bytes: usize,
    /// Execution mode (the paper uses AOT).
    pub mode: ExecMode,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            heap_bytes: 12 * 1024 * 1024,
            mode: ExecMode::Aot,
        }
    }
}

/// Fig 4 phase breakdown for one application load.
#[derive(Debug, Clone, Copy, Default)]
pub struct StartupBreakdown {
    /// World-switch cost (enter + leave).
    pub transition: Duration,
    /// Shared buffer, secure copy, heap charge, executable pages.
    pub memory_allocation: Duration,
    /// The measurement of the bytecode: the recall (the secure copy
    /// compared with at most two resident byte strings of its length), and
    /// on a miss the SHA-256 of the secure copy.
    pub hashing: Duration,
    /// Runtime environment and WASI setup.
    pub init: Duration,
    /// Whether this launch found its artifact resident (a relaunch of bytes
    /// this runtime has compiled before, in the same mode) and skipped
    /// decode, validation and compile.
    pub cached: bool,
    /// Module decode + validation (the paper's dominant ~73 %), after the
    /// cache lookup that found nothing; the lookup alone when `cached`.
    pub loading: Duration,
    /// The load-time compile (AOT prep, table image) and instance creation
    /// (memory, data segments, globals, start function); instance creation
    /// alone when `cached`.
    pub instantiate: Duration,
    /// The load-time compilation inside `instantiate`: the one walk from
    /// each body to register code, fusion included (zero for an
    /// interpreted app, and when `cached`: the launch that built the
    /// artifact reported it). Not a phase:
    /// [`Self::total`] counts `instantiate` only.
    pub compile: watz_wasm::CompileTimes,
    /// First entry into guest code (filled by the first `invoke`).
    pub execution: Duration,
}

impl StartupBreakdown {
    /// Sum of all phases.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.transition
            + self.memory_allocation
            + self.hashing
            + self.init
            + self.loading
            + self.instantiate
            + self.execution
    }
}

/// The WaTZ runtime: one per device. Clones share the device and the
/// TA's secure-world state, which is the artifact cache.
#[derive(Clone)]
pub struct WatzRuntime {
    os: TrustedOs,
    service: Arc<AttestationService>,
    cache: Arc<Mutex<ArtifactCache>>,
}

impl std::fmt::Debug for WatzRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WatzRuntime {{ version: {} }}", self.service.version())
    }
}

impl WatzRuntime {
    /// Boots WaTZ on an already-booted trusted OS.
    #[must_use]
    pub fn new(os: TrustedOs) -> Self {
        let service = Arc::new(AttestationService::install(&os));
        WatzRuntime {
            os,
            service,
            cache: Arc::default(),
        }
    }

    /// Convenience: manufactures a device (fused seed), runs the secure
    /// boot chain, boots the trusted OS and installs WaTZ.
    ///
    /// # Errors
    ///
    /// Returns [`WatzError::Tee`] if boot fails.
    pub fn new_device(device_seed: &[u8]) -> Result<Self, WatzError> {
        Self::new_device_with(device_seed, PlatformConfig::default())
    }

    /// [`WatzRuntime::new_device`] with a custom platform configuration
    /// (e.g. paper-calibrated latency injection for benches).
    ///
    /// # Errors
    ///
    /// Returns [`WatzError::Tee`] if boot fails.
    pub fn new_device_with(
        device_seed: &[u8],
        mut config: PlatformConfig,
    ) -> Result<Self, WatzError> {
        config.device_seed = device_seed.to_vec();
        let platform = Platform::new(config);
        tz_hal::boot::install_genuine_chain(&platform).map_err(|_| TeeError::NotBooted)?;
        let os = TrustedOs::boot(platform)?;
        Ok(Self::new(os))
    }

    /// The trusted OS this runtime runs on.
    #[must_use]
    pub fn os(&self) -> &TrustedOs {
        &self.os
    }

    /// The underlying platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        self.os.platform()
    }

    /// The kernel attestation service.
    #[must_use]
    pub fn attestation_service(&self) -> &Arc<AttestationService> {
        &self.service
    }

    /// The device's public attestation key (endorsement value).
    #[must_use]
    pub fn device_public_key(&self) -> [u8; 64] {
        self.service.public_key()
    }

    /// Loads a Wasm application into the secure world.
    ///
    /// Follows the paper's pipeline: the bytecode travels through a shared
    /// buffer (9 MB cap!), is copied into secure memory and measured — on
    /// every launch, from that copy. A first launch hashes it, decodes,
    /// validates and compiles it under [`EngineConfig::default`], and the
    /// artifact stays resident under its measurement with the bytes; a
    /// relaunch of the same bytes in the same mode finds them equal to the
    /// resident ones, recalls their measurement and starts from the
    /// artifact. Both create a new instance: memory, data segments,
    /// globals, start function. Returns the running app with the Fig 4
    /// phase breakdown attached ([`StartupBreakdown::cached`] tells which
    /// launch it was).
    ///
    /// Resident artifacts own their executable pages, so the 27 MB
    /// executable-page ceiling bounds them: when a first launch cannot get
    /// its pages, artifacts no live app runs on are dropped, least recently
    /// launched first. A fresh runtime is a cold one.
    ///
    /// # Errors
    ///
    /// * [`WatzError::Tee`] if the app exceeds the shared-memory cap, the
    ///   TA heap budget, or the executable pages left once every idle
    ///   artifact is dropped;
    /// * [`WatzError::Load`] for malformed/ill-typed modules;
    /// * [`WatzError::Trap`] if the start function traps, or when
    ///   [`ExecMode::Aot`] refuses a function whose frame is past the
    ///   register engine's `u16` slots (`Interpreted` runs it).
    ///
    /// A launch that fails leaves nothing resident that was not already,
    /// except that a valid module whose *instance* fails (heap budget,
    /// data segment, start function) keeps its artifact: the next launch
    /// fails the same way, just sooner.
    pub fn load(&self, wasm_bytes: &[u8], config: &AppConfig) -> Result<WatzApp, WatzError> {
        let platform = self.platform().clone();

        // Normal world: stage the bytecode in a shared buffer.
        let t_staging = Instant::now();
        let shared = platform.alloc_shared(wasm_bytes.len())?;
        shared.write(0, wasm_bytes);
        let staging = t_staging.elapsed();

        let t_enter = Instant::now();
        let result: Result<(WatzApp, StartupBreakdown), WatzError> = platform.enter_secure(|| {
            let mut breakdown = StartupBreakdown {
                transition: t_enter.elapsed(),
                ..StartupBreakdown::default()
            };

            // Phase: memory allocation — copy bytecode to secure memory and
            // charge the TA heap (the paper observed ~2x the code size due
            // to relocation structures). Executable pages belong to the
            // artifact: see `resident_artifact`.
            let t = Instant::now();
            let heap = self.os.create_ta_heap(config.heap_bytes)?;
            heap.charge(wasm_bytes.len() * 2)?;
            let secure_copy: Arc<[u8]> = shared.with(|bytes| Arc::from(bytes));
            breakdown.memory_allocation = t.elapsed() + staging;

            // Phase: hashing — the measurement future evidence embeds, and
            // the cache key. Always of the secure copy: the shared buffer
            // stays writable by the normal world. Bytes equal to a resident
            // entry's have that entry's measurement, their SHA-256, so only
            // bytes no entry holds are hashed.
            let t = Instant::now();
            let recalled = self.cache().recall(&secure_copy, config.mode);
            let measurement = recalled.unwrap_or_else(|| Sha256::digest(&secure_copy));
            breakdown.hashing = t.elapsed();

            // Phase: init — runtime environment + WASI host functions.
            let t = Instant::now();
            let mut env = WasiEnv::new(self.os.clone(), Arc::clone(&self.service), measurement);
            breakdown.init = t.elapsed();

            // Phases: loading, and the compile half of instantiate.
            let key = Key {
                measurement,
                mode: config.mode,
            };
            let (artifact, exec_pages) =
                self.resident_artifact(key, secure_copy, &mut breakdown)?;

            // Charge the guest's linear memory against the TA heap.
            heap.charge(artifact.min_memory_pages() as usize * watz_wasm::PAGE_SIZE)?;

            // Phase: instantiate — memory image, segments, start function.
            let t = Instant::now();
            let instance = Instance::from_artifact(artifact, &mut env)?;
            breakdown.instantiate += t.elapsed();

            let app = WatzApp {
                instance,
                env,
                measurement,
                breakdown: StartupBreakdown::default(),
                platform: platform.clone(),
                _heap: heap,
                _exec_pages: exec_pages,
                first_invoke_done: false,
            };
            Ok((app, breakdown))
        });

        let (mut app, breakdown) = result?;
        app.breakdown = breakdown;
        Ok(app)
    }

    /// The artifact to launch `key` from: the resident one, or — a first
    /// launch — decoded, validated and compiled from `secure_copy` and made
    /// resident with it. Fills `cached`, `loading`, `compile` and the
    /// compile's share of `instantiate`. Nothing that fails here is kept.
    fn resident_artifact(
        &self,
        key: Key,
        secure_copy: Arc<[u8]>,
        breakdown: &mut StartupBreakdown,
    ) -> Result<Resident, WatzError> {
        let t = Instant::now();
        if let Some(resident) = self.cache().lookup(&key) {
            breakdown.cached = true;
            breakdown.loading = t.elapsed();
            return Ok(resident);
        }
        let exec_pages = self.cache().reserve(&self.os, secure_copy.len())?;
        let module = watz_wasm::load(&secure_copy)?;
        breakdown.loading = t.elapsed();

        let t = Instant::now();
        let artifact = Artifact::new(&module, key.mode, EngineConfig::default())?;
        breakdown.compile = artifact.compile_times().unwrap_or_default();
        let resident = self.cache().insert(key, artifact, secure_copy, exec_pages);
        breakdown.instantiate = t.elapsed();
        Ok(resident)
    }

    /// The cache, locked for one call: never across a compile or guest
    /// code, so launches only ever wait for a map operation or a recall's
    /// (at most two) compares.
    fn cache(&self) -> MutexGuard<'_, ArtifactCache> {
        self.cache
            .lock()
            .expect("a thread panicked inside an artifact-cache map operation")
    }
}

/// A Wasm application hosted inside WaTZ.
pub struct WatzApp {
    instance: Instance,
    env: WasiEnv,
    measurement: [u8; 32],
    breakdown: StartupBreakdown,
    platform: Platform,
    _heap: TaHeap,
    /// A share of the pages the resident artifact owns: while this app
    /// lives the artifact is not evicted and stays accounted.
    _exec_pages: Arc<ExecPages>,
    first_invoke_done: bool,
}

impl std::fmt::Debug for WatzApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WatzApp {{ measurement: {:02x}{:02x}{:02x}{:02x}.. }}",
            self.measurement[0], self.measurement[1], self.measurement[2], self.measurement[3]
        )
    }
}

impl WatzApp {
    /// Superinstruction counts from the register pass's fusion rules
    /// (`None` when the app runs interpreted; all-zero when fusion is
    /// disabled). Counted when the artifact was compiled, which a
    /// relaunch did not do again.
    #[must_use]
    pub fn fusion_stats(&self) -> Option<watz_wasm::FusionStats> {
        self.instance.fusion_stats()
    }

    /// Register-allocation counts from the register pass (`None` when the
    /// app runs interpreted; an `Aot` app always has a register program).
    /// As [`Self::fusion_stats`], a property of the artifact.
    #[must_use]
    pub fn reg_stats(&self) -> Option<watz_wasm::RegStats> {
        self.instance.reg_stats()
    }

    /// The SHA-256 measurement of the loaded bytecode.
    #[must_use]
    pub fn measurement(&self) -> [u8; 32] {
        self.measurement
    }

    /// The engine instance, read-only: its artifact,
    /// [`Instance::verify_ir`].
    #[must_use]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The Fig 4 startup phase breakdown.
    #[must_use]
    pub fn startup_breakdown(&self) -> StartupBreakdown {
        self.breakdown
    }

    /// Invokes an exported guest function (one TA command invocation:
    /// enters and leaves the secure world around the call).
    ///
    /// The first invocation also fills the `execution` phase of the startup
    /// breakdown.
    ///
    /// # Errors
    ///
    /// Returns [`WatzError::Trap`] if the guest traps.
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Vec<Value>, WatzError> {
        let platform = self.platform.clone();
        let t = Instant::now();
        let result = platform.enter_secure(|| self.instance.invoke(&mut self.env, name, args));
        if !self.first_invoke_done {
            self.breakdown.execution = t.elapsed();
            self.first_invoke_done = true;
        }
        Ok(result?)
    }

    /// Captured stdout of the guest.
    #[must_use]
    pub fn stdout(&self) -> &[u8] {
        self.env.stdout()
    }

    /// Takes and clears the captured stdout.
    pub fn take_stdout(&mut self) -> Vec<u8> {
        self.env.take_stdout()
    }

    /// Direct access to the WASI environment (tests/benches).
    #[must_use]
    pub fn wasi(&self) -> &WasiEnv {
        &self.env
    }

    /// Reads guest linear memory (e.g. to pull results out).
    ///
    /// # Errors
    ///
    /// Returns [`WatzError::Trap`] on out-of-bounds reads.
    pub fn read_memory(&self, addr: u32, len: u32) -> Result<Vec<u8>, WatzError> {
        Ok(self.instance.memory().read_bytes(addr, len)?.to_vec())
    }

    /// Writes guest linear memory (e.g. to push inputs in).
    ///
    /// # Errors
    ///
    /// Returns [`WatzError::Trap`] on out-of-bounds writes.
    pub fn write_memory(&mut self, addr: u32, data: &[u8]) -> Result<(), WatzError> {
        self.instance.memory_mut().write_bytes(addr, data)?;
        Ok(())
    }
}

/// The relying party of Fig 2 as a background service: listener in the
/// normal world, appraisal and release in the secure world.
///
/// A [`FleetVerifier`] with one worker: each session is a non-blocking
/// state machine with a deadline, so a stalled attester does not hold up
/// the next one; a passing session's secret leaves as `msg3` records, each
/// sent the moment it is sealed; failures are answered with
/// `INTEGRITY_FAILED` when tamper-evident and `APPRAISAL_FAILED`
/// otherwise, and every session lands in one [`FleetStats`] bucket. For
/// more workers, spawn the [`FleetVerifier`] directly.
#[derive(Debug)]
pub struct VerifierServer {
    fleet: FleetVerifier,
}

impl VerifierServer {
    /// Spawns the server on `port` of the OS's loopback network.
    ///
    /// # Errors
    ///
    /// Returns [`WatzError::Tee`] if the port is taken.
    pub fn spawn(os: &TrustedOs, config: VerifierConfig, port: u16) -> Result<Self, WatzError> {
        let one_worker = FleetConfig {
            workers: 1,
            ..FleetConfig::default()
        };
        let fleet = FleetVerifier::spawn(os, config, one_worker, port).map_err(TeeError::from)?;
        Ok(VerifierServer { fleet })
    }

    /// The port the server listens on.
    #[must_use]
    pub fn port(&self) -> u16 {
        self.fleet.port()
    }

    /// Stops accepting, drains the sessions in flight (bounded by their
    /// deadline) and returns the per-outcome accounting.
    pub fn shutdown(self) -> FleetStats {
        self.fleet.shutdown()
    }
}

/// Runs `f` as a "native TA" in the secure world: used as the native-TEE
/// baseline in the Fig 5/6 experiments (world switch + TA heap accounting,
/// no Wasm).
///
/// # Errors
///
/// Returns [`WatzError::Tee`] if the heap budget cannot be created.
pub fn run_native_ta<R>(
    os: &TrustedOs,
    heap_bytes: usize,
    f: impl FnOnce() -> R,
) -> Result<R, WatzError> {
    let _heap = os.create_ta_heap(heap_bytes)?;
    Ok(os.platform().enter_secure(f))
}
