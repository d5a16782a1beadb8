//! A from-scratch WebAssembly engine, standing in for WAMR in the WaTZ
//! reproduction.
//!
//! The WaTZ paper embeds the WebAssembly Micro Runtime (WAMR) inside OP-TEE
//! and executes ahead-of-time (AOT) compiled bytecode. This crate provides
//! the equivalent machinery, built from scratch:
//!
//! * a binary **decoder** for the Wasm MVP format plus the bulk-memory and
//!   sign-extension operators that compiled C code relies on ([`decode`]);
//! * a complete single-pass **validator** implementing the spec's type
//!   checking algorithm ([`validate`]);
//! * an **executor** with two modes ([`exec`]):
//!   [`ExecMode::Interpreted`] walks structured opcodes and discovers branch
//!   targets by scanning, like a naive interpreter — the reference
//!   implementation and the fallback — while [`ExecMode::Aot`] runs the
//!   register engine: bodies lowered at load time to a flat linear IR with
//!   absolute jumps, inlined immediates and untagged 64-bit operands
//!   ([`flat`]), then register-allocated so every op addresses fixed frame
//!   slots and the dispatch loop moves no operand stack at all, the same
//!   pass joining common adjacent shapes into superinstructions ([`reg`],
//!   [`RegStats`], [`FusionStats`]; `WATZ_NO_FUSE=1` turns the joining
//!   off); the flat form is compile-time scratch, an instance keeps the
//!   register code only — the stand-in for WAMR's AOT
//!   mode (the real thing emits native code; ours stays portable, so the
//!   AOT/interp gap is smaller than the paper's 28x, as documented in
//!   EXPERIMENTS.md). One [`EngineConfig`] carries every switch, and its
//!   `from_env` is the crate's only read of the environment. What all of
//!   that produces is one immutable, shareable [`Artifact`] ([`artifact`]);
//!   an [`Instance`] is an `Arc` of it plus memory, globals and counters,
//!   so launching the same bytes again costs instance creation only;
//! * an independent **IR verifier** and value-range **analysis** ([`verify`],
//!   [`analysis`]): abstract interpretation over the register code that
//!   re-proves every invariant the engine relies on (`WATZ_VERIFY_IR=1` makes it a
//!   hard instantiation gate, [`VerifyStats`]) and proves memory accesses
//!   in bounds so the register engine can run them check-free
//!   (`WATZ_NO_ELIDE=1` disables the rewrite, [`RangeStats`]);
//! * an **encoder** and a programmatic **builder** ([`encode`], [`builder`])
//!   used by the MiniC compiler (the reproduction's stand-in for WASI-SDK)
//!   and by tests.
//!
//! # Example
//!
//! ```
//! use watz_wasm::{builder::ModuleBuilder, types::ValType, instr::Instr};
//! use watz_wasm::exec::{Instance, ExecMode, Value, NoHost};
//!
//! // (module (func (export "add") (param i32 i32) (result i32)
//! //   local.get 0 local.get 1 i32.add))
//! let mut b = ModuleBuilder::new();
//! let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
//! let f = b.add_func(ty, &[], vec![
//!     Instr::LocalGet(0), Instr::LocalGet(1),
//!     Instr::I32Add, Instr::End,
//! ]);
//! b.export_func("add", f);
//! let bytes = b.build();
//!
//! let module = watz_wasm::decode::decode(&bytes).unwrap();
//! watz_wasm::validate::validate(&module).unwrap();
//! let mut inst = Instance::instantiate(&module, ExecMode::Aot, &mut NoHost).unwrap();
//! let out = inst.invoke(&mut NoHost, "add", &[Value::I32(2), Value::I32(40)]).unwrap();
//! assert_eq!(out, vec![Value::I32(42)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod artifact;
pub mod builder;
pub mod decode;
pub mod encode;
pub mod exec;
pub mod flat;
pub mod instr;
pub mod leb128;
pub mod module;
pub mod profile;
pub mod reg;
pub mod types;
pub mod validate;
pub mod verify;

pub use analysis::RangeStats;
pub use artifact::Artifact;
pub use decode::DecodeError;
pub use exec::{EngineConfig, ExecMode, HostEnv, Instance, NoHost, Trap, Value};
pub use flat::{CompileTimes, FusionStats};
pub use module::Module;
pub use profile::{ExecProfile, ProfileMode};
pub use reg::RegStats;
pub use validate::ValidationError;
pub use verify::{VerifyError, VerifyStats};

/// Size of a WebAssembly linear-memory page (64 KiB).
pub const PAGE_SIZE: usize = 65536;

/// Decodes and validates a binary module in one step.
///
/// # Errors
///
/// Returns a [`LoadError`] wrapping the decode or validation failure.
pub fn load(bytes: &[u8]) -> Result<Module, LoadError> {
    let module = decode::decode(bytes).map_err(LoadError::Decode)?;
    validate::validate(&module).map_err(LoadError::Validate)?;
    Ok(module)
}

/// Error from [`load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The binary failed to parse.
    Decode(DecodeError),
    /// The module failed type checking.
    Validate(ValidationError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Decode(e) => write!(f, "decode error: {e}"),
            LoadError::Validate(e) => write!(f, "validation error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}
