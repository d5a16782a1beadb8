//! Execution: instances, the tree-walking interpreter, and dispatch to the
//! register engine.
//!
//! An [`Instance`] is an `Arc` of an immutable [`Artifact`] — everything
//! the load-time work below produces, a pure function of (bytes, mode,
//! [`EngineConfig`]) — plus the state its guest can change: linear memory,
//! globals and, when counting, an [`ExecProfile`]. Every constructor goes
//! through [`Instance::from_artifact`]; `instantiate*` build an artifact
//! of their own first, an embedder that launches the same bytes again
//! (the WaTZ runtime) keeps the artifact and calls it directly.
//!
//! WAMR (the runtime WaTZ embeds) offers interpreted, JIT and AOT execution;
//! WaTZ uses AOT, reporting it "on average 28× faster than with
//! interpretation" (§III). We reproduce the *mode structure* portably with
//! two executors:
//!
//! 1. **Tree-walking interpreter** ([`ExecMode::Interpreted`]): executes the
//!    structured instruction sequence directly, re-discovering each block's
//!    `end`/`else` by scanning forward at runtime, over an enum-tagged
//!    [`Value`] stack — the classic naive interpreter, kept as the
//!    differential oracle and as the one fallback executor.
//! 2. **Register engine** ([`ExecMode::Aot`], [`crate::reg`]): the portable
//!    analogue of WAMR's AOT step — translate once at load time, run on a
//!    representation built for execution rather than decoding. Two
//!    load-time passes produce its code:
//!    * [`crate::flat`] lowers every body to a flat linear IR where each
//!      branch is an absolute jump with its stack fix-up inlined and
//!      operands are untagged 64-bit slots;
//!    * an abstract-stack simulation rewrites that IR so every op carries
//!      explicit source/destination frame-slot indices — `local.get`s
//!      forward into their consumers, intermediates live at fixed slots,
//!      and the dispatch loop never pushes or pops an operand stack — and,
//!      reading ahead over the same tokens, joins five shapes into single
//!      superinstructions: a constant right operand, a sink into a local or
//!      memory, compare-and-branch, and the two array-address tails
//!      (`WATZ_NO_FUSE=1` or [`EngineConfig::fuse`] switches just those
//!      rules off, for bisection; [`crate::reg::RegStats`] and
//!      [`crate::FusionStats`] report what the pass did).
//!
//! The flat IR is never executed and never kept: it is scratch of the
//! load-time compile, and an artifact holds the register program only. An
//! `Aot` artifact that ends up without one — [`EngineConfig::reg`] off, or
//! a function whose frame exceeds the register form's `u16` slot encoding —
//! keeps its structured bodies and runs on the tree interpreter instead.
//!
//! Both executors share one semantics (identical results, identical traps
//! and identical retired-instruction counts) and are differentially tested
//! against each other across the full PolyBench/speedtest/Genann suites
//! plus randomized MiniC kernels, fused and unfused, with bounds-check
//! elision on and off. Because the register engine stops short of native
//! code generation, the speedup over interpretation is smaller than WAMR's
//! 28× (see EXPERIMENTS.md for measured ratios).

use std::sync::Arc;

use crate::artifact::Artifact;
use crate::flat;
use crate::instr::Instr;
use crate::module::{ExportKind, Module};
use crate::profile::{classify, ExecProfile, NoProfile, ProfileMode, Profiler};
use crate::types::ValType;
use crate::PAGE_SIZE;

/// Maximum call depth before a `CallStackExhausted` trap.
///
/// Guest recursion maps onto host recursion, so this is sized to stay well
/// inside a default 2 MiB thread stack even in debug builds. OP-TEE TAs run
/// with kilobyte-scale stacks, so a tight limit is also faithful.
pub const MAX_CALL_DEPTH: usize = 200;

/// Hard cap on memory growth (pages) when a module declares no maximum.
pub const DEFAULT_MAX_PAGES: u32 = 1024; // 64 MiB

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
}

impl Value {
    /// The value's type.
    #[must_use]
    pub fn ty(&self) -> ValType {
        match self {
            Value::I32(_) => ValType::I32,
            Value::I64(_) => ValType::I64,
            Value::F32(_) => ValType::F32,
            Value::F64(_) => ValType::F64,
        }
    }

    /// Zero value of the given type.
    #[must_use]
    pub fn zero(ty: ValType) -> Self {
        match ty {
            ValType::I32 => Value::I32(0),
            ValType::I64 => Value::I64(0),
            ValType::F32 => Value::F32(0.0),
            ValType::F64 => Value::F64(0.0),
        }
    }

    fn as_i32(self) -> i32 {
        match self {
            Value::I32(v) => v,
            _ => unreachable!("validated module: expected i32"),
        }
    }

    fn as_i64(self) -> i64 {
        match self {
            Value::I64(v) => v,
            _ => unreachable!("validated module: expected i64"),
        }
    }

    fn as_f32(self) -> f32 {
        match self {
            Value::F32(v) => v,
            _ => unreachable!("validated module: expected f32"),
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Value::F64(v) => v,
            _ => unreachable!("validated module: expected f64"),
        }
    }

    /// Interprets as an unsigned 32-bit integer.
    #[must_use]
    pub fn as_u32(self) -> u32 {
        self.as_i32() as u32
    }
}

/// A runtime trap, aborting guest execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// `unreachable` executed.
    Unreachable,
    /// Out-of-bounds linear memory access.
    MemoryOutOfBounds,
    /// Integer division (or remainder) by zero.
    DivisionByZero,
    /// `i32::MIN / -1`-style overflow.
    IntegerOverflow,
    /// Float-to-int conversion of NaN or out-of-range value.
    BadConversion,
    /// Guest recursion exceeded [`MAX_CALL_DEPTH`].
    CallStackExhausted,
    /// `call_indirect` through a null table slot.
    UndefinedTableElement,
    /// `call_indirect` signature mismatch.
    IndirectTypeMismatch,
    /// `call_indirect` index outside the table.
    TableOutOfBounds,
    /// An unresolved import was called.
    UnresolvedImport {
        /// Import module namespace.
        module: String,
        /// Import field name.
        name: String,
    },
    /// A host function reported an error.
    Host(String),
    /// The guest requested a clean exit (e.g. WASI `proc_exit`).
    Exit(i32),
    /// Instantiation failed (bad segment bounds, missing export, bad args).
    Instantiation(String),
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::Unreachable => write!(f, "unreachable executed"),
            Trap::MemoryOutOfBounds => write!(f, "out-of-bounds memory access"),
            Trap::DivisionByZero => write!(f, "integer division by zero"),
            Trap::IntegerOverflow => write!(f, "integer overflow"),
            Trap::BadConversion => write!(f, "invalid float-to-int conversion"),
            Trap::CallStackExhausted => write!(f, "call stack exhausted"),
            Trap::UndefinedTableElement => write!(f, "undefined table element"),
            Trap::IndirectTypeMismatch => write!(f, "indirect call type mismatch"),
            Trap::TableOutOfBounds => write!(f, "table index out of bounds"),
            Trap::UnresolvedImport { module, name } => {
                write!(f, "unresolved import {module}.{name}")
            }
            Trap::Host(msg) => write!(f, "host error: {msg}"),
            Trap::Exit(code) => write!(f, "guest exit with code {code}"),
            Trap::Instantiation(msg) => write!(f, "instantiation failed: {msg}"),
        }
    }
}

impl std::error::Error for Trap {}

/// Execution mode for an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Naive structured interpretation (branch targets found by scanning).
    Interpreted,
    /// Ahead-of-time lowering to the register engine (see [`crate::reg`]).
    /// An instance left without a register program ([`EngineConfig::reg`]
    /// off, or a frame past the `u16` slot encoding) runs on the
    /// interpreter instead.
    Aot,
}

/// What [`ExecMode::Aot`] instantiation does besides lowering. The
/// lowering passes are ignored in [`ExecMode::Interpreted`]; `profile`
/// applies to both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// Let the register pass join adjacent flat ops into superinstructions
    /// (its fusion rules, see [`crate::reg`]); operand forwarding is not a
    /// rule and stays on. Nothing to act on when `reg` is off.
    pub fuse: bool,
    /// Lower the flat IR to register form and execute it; when off the
    /// flat IR is still built, then dropped, and the instance runs on the
    /// tree interpreter.
    pub reg: bool,
    /// Rewrite accesses the range analysis proved in bounds to check-free
    /// opcodes (proofs are computed and counted either way).
    pub elide: bool,
    /// Run the independent IR verifier over the register program before
    /// the instance can execute.
    pub verify: bool,
    /// Whether the instance maintains an [`ExecProfile`].
    pub profile: ProfileMode,
}

impl Default for EngineConfig {
    /// The production configuration: every pass on, no verifier run, no
    /// counting.
    fn default() -> Self {
        EngineConfig {
            fuse: true,
            reg: true,
            elide: true,
            verify: false,
            profile: ProfileMode::Off,
        }
    }
}

impl EngineConfig {
    /// The production configuration adjusted by the crate's four
    /// environment switches, each on for any non-empty value other than
    /// `0`: `WATZ_NO_FUSE` and `WATZ_NO_ELIDE` turn their pass off,
    /// `WATZ_VERIFY_IR` and `WATZ_PROFILE` turn verification and counting
    /// on. This is the only place the crate reads the environment.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var_os(name))
    }

    fn from_lookup(var: impl Fn(&str) -> Option<std::ffi::OsString>) -> Self {
        let on = |name| var(name).is_some_and(|v| !v.is_empty() && v.to_str() != Some("0"));
        EngineConfig {
            fuse: !on("WATZ_NO_FUSE"),
            elide: !on("WATZ_NO_ELIDE"),
            verify: on("WATZ_VERIFY_IR"),
            profile: if on("WATZ_PROFILE") {
                ProfileMode::Count
            } else {
                ProfileMode::Off
            },
            ..EngineConfig::default()
        }
    }
}

/// The embedder interface: resolves and executes imported functions.
pub trait HostEnv {
    /// Invoked for every call to an imported function.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] to abort guest execution.
    fn call(
        &mut self,
        module: &str,
        name: &str,
        memory: &mut Memory,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap>;
}

/// A host environment that rejects every import.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHost;

impl HostEnv for NoHost {
    fn call(
        &mut self,
        module: &str,
        name: &str,
        _memory: &mut Memory,
        _args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        Err(Trap::UnresolvedImport {
            module: module.to_string(),
            name: name.to_string(),
        })
    }
}

/// Guest linear memory.
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    max_pages: u32,
}

impl Memory {
    /// Creates a memory with `min` pages, growable to `max` pages.
    #[must_use]
    #[allow(clippy::slow_vector_initialization)] // the slow form is the point
    pub fn new(min: u32, max: Option<u32>) -> Self {
        // Written here, not left to `vec![0; n]`: that asks the allocator
        // for zeroed memory, which is resident only if the chunk happens to
        // be a recycled one, so an instance's footprint would depend on what
        // the heap did before it. A TA's heap is committed memory; so is this.
        let mut data = Vec::new();
        data.resize(min as usize * PAGE_SIZE, 0);
        Memory {
            data,
            max_pages: max.unwrap_or(DEFAULT_MAX_PAGES),
        }
    }

    /// Current size in pages.
    #[must_use]
    pub fn size_pages(&self) -> u32 {
        (self.data.len() / PAGE_SIZE) as u32
    }

    /// Grows by `delta` pages; returns the previous size, or -1 on failure.
    pub fn grow(&mut self, delta: u32) -> i32 {
        let max_pages = self.max_pages;
        Self::grow_raw(&mut self.data, max_pages, delta)
    }

    /// [`Memory::grow`] on raw contents: the register dispatch loop caches
    /// the data vec locally (see [`Memory::take_data`]) and grows it in place.
    pub(crate) fn grow_raw(data: &mut Vec<u8>, max_pages: u32, delta: u32) -> i32 {
        let old = (data.len() / PAGE_SIZE) as u32;
        let Some(new) = old.checked_add(delta) else {
            return -1;
        };
        if new > max_pages {
            return -1;
        }
        data.resize(new as usize * PAGE_SIZE, 0);
        old as i32
    }

    /// The growth limit in pages.
    pub(crate) fn max_pages(&self) -> u32 {
        self.max_pages
    }

    /// Moves the contents out, leaving the memory empty. The register
    /// engine holds the contents locally for a whole dispatch loop (one
    /// borrow per run instead of one per load/store) and hand them back —
    /// via [`Memory::put_data`] — on exit (every `Ok`/`Trap` path) and
    /// around host calls, the only points where the embedder can observe
    /// the memory. A *panic* mid-dispatch (a violated internal invariant,
    /// or a panicking host function) unwinds past the restore and leaves
    /// the memory empty — instances are not reusable after a caught
    /// panic, which was already the engine's contract.
    pub(crate) fn take_data(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.data)
    }

    /// Restores contents taken by [`Memory::take_data`].
    pub(crate) fn put_data(&mut self, data: Vec<u8>) {
        self.data = data;
    }

    /// Raw view of the memory contents.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Raw mutable view of the memory contents.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Traps with [`Trap::MemoryOutOfBounds`] past the end of memory.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], Trap> {
        let start = addr as usize;
        let end = start
            .checked_add(len as usize)
            .ok_or(Trap::MemoryOutOfBounds)?;
        self.data.get(start..end).ok_or(Trap::MemoryOutOfBounds)
    }

    /// Writes `bytes` at `addr`.
    ///
    /// # Errors
    ///
    /// Traps with [`Trap::MemoryOutOfBounds`] past the end of memory.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Trap> {
        let start = addr as usize;
        let end = start
            .checked_add(bytes.len())
            .ok_or(Trap::MemoryOutOfBounds)?;
        self.data
            .get_mut(start..end)
            .ok_or(Trap::MemoryOutOfBounds)?
            .copy_from_slice(bytes);
        Ok(())
    }

    pub(crate) fn load<const N: usize>(&self, base: i32, offset: u32) -> Result<[u8; N], Trap> {
        mem_load(&self.data, base, offset)
    }

    pub(crate) fn store(&mut self, base: i32, offset: u32, bytes: &[u8]) -> Result<(), Trap> {
        mem_store(&mut self.data, base, offset, bytes)
    }
}

/// Loads `N` bytes at `base + offset` from raw memory contents.
///
/// Hot path: the effective address is computed in u64 (it cannot overflow
/// there, and `usize` could wrap on 32-bit hosts), then a single slice
/// lookup doubles as the bounds check — the `try_into` length check folds
/// away since the range width is N.
///
/// # Errors
///
/// Traps with [`Trap::MemoryOutOfBounds`] past the end of memory.
#[inline]
pub(crate) fn mem_load<const N: usize>(
    mem: &[u8],
    base: i32,
    offset: u32,
) -> Result<[u8; N], Trap> {
    let ea = u64::from(base as u32) + u64::from(offset);
    let a = usize::try_from(ea).map_err(|_| Trap::MemoryOutOfBounds)?;
    let end = a.checked_add(N).ok_or(Trap::MemoryOutOfBounds)?;
    let bytes: &[u8; N] = mem
        .get(a..end)
        .and_then(|s| s.try_into().ok())
        .ok_or(Trap::MemoryOutOfBounds)?;
    Ok(*bytes)
}

/// A check-free memory access missed its statically proven bound.
///
/// Unreachable by construction: the elision pass only emits check-free
/// opcodes for accesses the range analysis proved `< min_memory_size`,
/// memory never shrinks, and the verifier re-derives every proof before
/// a verified instance runs. Kept out of line so the check-free dispatch
/// arms stay branch-light.
#[cold]
#[inline(never)]
pub(crate) fn nc_violation() -> ! {
    panic!("check-free memory access out of bounds: elision proof violated")
}

/// Loads `N` bytes at `base + offset` for a check-free (statically
/// proven in-bounds) access. The slice lookup stays — safe code — but
/// the trap plumbing is gone: a miss is an analysis bug, not a guest
/// error.
#[inline]
pub(crate) fn nc_load<const N: usize>(mem: &[u8], base: i32, offset: u32) -> [u8; N] {
    let ea = u64::from(base as u32) + u64::from(offset);
    let bytes = usize::try_from(ea)
        .ok()
        .and_then(|a| a.checked_add(N).and_then(|end| mem.get(a..end)))
        .and_then(|s| <&[u8; N]>::try_from(s).ok());
    match bytes {
        Some(b) => *b,
        None => nc_violation(),
    }
}

/// Stores `bytes` at `base + offset` for a check-free access.
#[inline]
pub(crate) fn nc_store(mem: &mut [u8], base: i32, offset: u32, bytes: &[u8]) {
    let ea = u64::from(base as u32) + u64::from(offset);
    let slot = usize::try_from(ea).ok().and_then(|a| {
        a.checked_add(bytes.len())
            .and_then(move |end| mem.get_mut(a..end))
    });
    match slot {
        Some(s) => s.copy_from_slice(bytes),
        None => nc_violation(),
    }
}

/// Guards the host-call boundary: a [`HostEnv`] returning a result count
/// other than the import's declared arity would silently diverge the
/// engines (stale slots in the register engine, a wrong operand-stack
/// height in the interpreter), so both turn the mismatch into the same
/// [`Trap::Host`] instead.
pub(crate) fn check_host_results(
    module: &str,
    name: &str,
    returned: usize,
    declared: usize,
) -> Result<(), Trap> {
    if returned == declared {
        Ok(())
    } else {
        Err(Trap::Host(format!(
            "import {module}.{name} returned {returned} results, declared {declared}"
        )))
    }
}

/// Stores `bytes` at `base + offset` into raw memory contents.
///
/// # Errors
///
/// Traps with [`Trap::MemoryOutOfBounds`] past the end of memory.
#[inline]
pub(crate) fn mem_store(mem: &mut [u8], base: i32, offset: u32, bytes: &[u8]) -> Result<(), Trap> {
    let ea = u64::from(base as u32) + u64::from(offset);
    let a = usize::try_from(ea).map_err(|_| Trap::MemoryOutOfBounds)?;
    let end = a.checked_add(bytes.len()).ok_or(Trap::MemoryOutOfBounds)?;
    mem.get_mut(a..end)
        .ok_or(Trap::MemoryOutOfBounds)?
        .copy_from_slice(bytes);
    Ok(())
}

/// Scans forward from an opener pc for its matching `End` (and `Else`).
fn scan_block(code: &[Instr], opener_pc: usize) -> (usize, Option<usize>) {
    let mut depth = 0usize;
    let mut else_pc = None;
    let mut pc = opener_pc + 1;
    while pc < code.len() {
        match &code[pc] {
            i if i.opens_block() => depth += 1,
            Instr::Else if depth == 0 => else_pc = Some(pc),
            Instr::End => {
                if depth == 0 {
                    return (pc, else_pc);
                }
                depth -= 1;
            }
            _ => {}
        }
        pc += 1;
    }
    unreachable!("validated code has matching end");
}

/// Runtime label on the control stack.
#[derive(Debug, Clone, Copy)]
struct Label {
    /// pc to jump to when branching to this label.
    target: usize,
    /// Values transferred on a branch.
    arity: usize,
    /// Operand stack height below the label.
    height: usize,
    /// Loops keep their label alive after a branch.
    is_loop: bool,
}

/// An instantiated module ready to execute: a shared [`Artifact`] plus the
/// state this instance's guest can change.
#[derive(Debug)]
pub struct Instance {
    /// Code, tables and everything else fixed at compile time; shared with
    /// every other instance of the same artifact and never written.
    artifact: Arc<Artifact>,
    /// Linear memory: the artifact's minimum size with its data segments
    /// applied, then whatever the guest stored and grew.
    memory: Memory,
    /// The globals, starting from the artifact's initial values.
    globals: Vec<Value>,
    /// Live counters when the artifact was built with
    /// [`ProfileMode::Count`]; `None` keeps the unprofiled hot path.
    profile: Option<Box<ExecProfile>>,
}

impl Instance {
    /// Instantiates a validated module: allocates memory/table, applies data
    /// and element segments, prepares code for the chosen mode and runs the
    /// start function (if any). The engine configuration is
    /// [`EngineConfig::from_env`].
    ///
    /// # Errors
    ///
    /// Returns [`Trap::Instantiation`] for out-of-bounds segments, or any
    /// trap raised by the start function.
    pub fn instantiate(
        module: &Module,
        mode: ExecMode,
        host: &mut dyn HostEnv,
    ) -> Result<Self, Trap> {
        Self::instantiate_with(module, mode, EngineConfig::from_env(), host)
    }

    /// [`Instance::instantiate_with`] with `fuse`, `reg` and `profile`
    /// spelled out and the rest from the environment. Exists only because
    /// `benchmark/` calls it; goes with the next benchmark PR.
    ///
    /// # Errors
    ///
    /// Same contract as [`Instance::instantiate_with`].
    pub fn instantiate_with_profile(
        module: &Module,
        mode: ExecMode,
        fuse: bool,
        reg: bool,
        profile: ProfileMode,
        host: &mut dyn HostEnv,
    ) -> Result<Self, Trap> {
        let config = EngineConfig {
            fuse,
            reg,
            profile,
            ..EngineConfig::from_env()
        };
        Self::instantiate_with(module, mode, config, host)
    }

    /// [`Instance::instantiate_with`] with `fuse`, `reg`, `elide` and
    /// `verify` spelled out and the rest from the environment. Exists only
    /// because `benchmark/` calls it; goes with the next benchmark PR.
    ///
    /// # Errors
    ///
    /// Same contract as [`Instance::instantiate_with`].
    pub fn instantiate_with_analysis(
        module: &Module,
        mode: ExecMode,
        fuse: bool,
        reg: bool,
        elide: bool,
        verify: bool,
        host: &mut dyn HostEnv,
    ) -> Result<Self, Trap> {
        let config = EngineConfig {
            fuse,
            reg,
            elide,
            verify,
            ..EngineConfig::from_env()
        };
        Self::instantiate_with(module, mode, config, host)
    }

    /// [`Instance::instantiate`] under an explicit [`EngineConfig`]: builds
    /// an [`Artifact`] no other instance shares, then
    /// [`Instance::from_artifact`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Instance::instantiate`], plus
    /// [`Trap::Instantiation`] when `config.verify` is set and the compiled
    /// IR fails verification.
    pub fn instantiate_with(
        module: &Module,
        mode: ExecMode,
        config: EngineConfig,
        host: &mut dyn HostEnv,
    ) -> Result<Self, Trap> {
        Self::from_artifact(Arc::new(Artifact::new(module, mode, config)?), host)
    }

    /// Creates an instance of a prepared module: a fresh memory with the
    /// data segments applied, the globals at their initial values, then
    /// the start function (if any). Nothing here depends on how many other
    /// instances the artifact has, or writes to it.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::Instantiation`] for an out-of-bounds data segment,
    /// or any trap raised by the start function. Both are errors of this
    /// instance; the artifact stays good for the next one.
    pub fn from_artifact(artifact: Arc<Artifact>, host: &mut dyn HostEnv) -> Result<Self, Trap> {
        let memory = artifact
            .memory
            .map_or_else(|| Memory::new(0, Some(0)), |l| Memory::new(l.min, l.max));
        let mut instance = Instance {
            memory,
            globals: artifact.globals.clone(),
            profile: match artifact.profile {
                ProfileMode::Count => Some(Box::default()),
                ProfileMode::Off => None,
            },
            artifact,
        };
        for (offset, bytes) in &instance.artifact.data {
            instance
                .memory
                .write_bytes(*offset, bytes)
                .map_err(|_| Trap::Instantiation("data segment out of bounds".into()))?;
        }
        if let Some(start) = instance.artifact.start {
            instance.call_function(host, start, &[])?;
        }
        Ok(instance)
    }

    /// The artifact this instance executes.
    #[must_use]
    pub fn artifact(&self) -> &Arc<Artifact> {
        &self.artifact
    }

    /// The execution mode this instance was prepared for.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.artifact.mode
    }

    /// Superinstruction counts from the register pass's fusion rules
    /// (`None` for interpreted instances; all-zero when fusion was
    /// disabled or the instance has no register program).
    #[must_use]
    pub fn fusion_stats(&self) -> Option<flat::FusionStats> {
        self.artifact.compiled.as_ref().map(|cm| cm.fusion)
    }

    /// Register-allocation counts (`None` when the instance has no
    /// register program and therefore runs on the tree interpreter:
    /// [`ExecMode::Interpreted`], [`EngineConfig::reg`] off, or a frame
    /// past the `u16` slot encoding).
    #[must_use]
    pub fn reg_stats(&self) -> Option<crate::reg::RegStats> {
        let cm = self.artifact.compiled.as_ref()?;
        cm.reg.as_ref().map(|prog| prog.stats)
    }

    /// Verifier counters from instantiation-time IR verification (`None`
    /// for interpreted instances and when [`EngineConfig::verify`] was
    /// off).
    #[must_use]
    pub fn verify_stats(&self) -> Option<crate::verify::VerifyStats> {
        self.artifact.verify
    }

    /// Range-analysis counters over the register program (`None` for
    /// interpreted instances, all-zero without a register program). Proof
    /// counts are maintained even when the elision rewrite itself is off,
    /// so A/B runs can confirm the same accesses were proven.
    #[must_use]
    pub fn range_stats(&self) -> Option<crate::analysis::RangeStats> {
        self.artifact.compiled.as_ref().map(|cm| cm.analysis)
    }

    /// Wall time of each load-time compilation pass (`None` for
    /// interpreted instances; a pass that did not run reads zero).
    #[must_use]
    pub fn compile_times(&self) -> Option<flat::CompileTimes> {
        self.artifact.compile_times()
    }

    /// Re-runs the independent IR verifier over this instance's register
    /// program and returns fresh counters; `None` for interpreted instances
    /// (nothing was compiled). An [`ExecMode::Aot`] instance without a
    /// register program verifies trivially, with all-zero counters.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::verify::VerifyError`] found, as at
    /// instantiation.
    pub fn verify_ir(
        &self,
    ) -> Option<Result<crate::verify::VerifyStats, crate::verify::VerifyError>> {
        let art = &*self.artifact;
        art.compiled
            .as_ref()
            .map(|cm| crate::verify::verify_module(cm, &art.types))
    }

    /// Live execution counters, when the instance was created with
    /// [`ProfileMode::Count`]. Counters
    /// accumulate across invocations, including the start function.
    #[must_use]
    pub fn profile(&self) -> Option<&ExecProfile> {
        self.profile.as_deref()
    }

    /// The instance's linear memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable access to the linear memory.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Invokes an exported function by name.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::Instantiation`] for unknown exports or argument
    /// type/count mismatches, or any [`Trap`] raised during execution.
    pub fn invoke(
        &mut self,
        host: &mut dyn HostEnv,
        name: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let (kind, idx) = *self
            .artifact
            .exports
            .get(name)
            .ok_or_else(|| Trap::Instantiation(format!("no export '{name}'")))?;
        if kind != ExportKind::Func {
            return Err(Trap::Instantiation(format!(
                "export '{name}' is not a function"
            )));
        }
        let ty = self.artifact.func_type(idx);
        if ty.params.len() != args.len() || ty.params.iter().zip(args).any(|(p, a)| *p != a.ty()) {
            return Err(Trap::Instantiation(format!(
                "argument mismatch for '{name}'"
            )));
        }
        let result = self.call_function(host, idx, args);
        if result.is_err() {
            if let Some(p) = &mut self.profile {
                p.traps += 1;
            }
        }
        result
    }

    fn call_function(
        &mut self,
        host: &mut dyn HostEnv,
        func_idx: u32,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let art = &*self.artifact;
        // An artifact with a register program runs on the register engine;
        // every other one holds structured bodies, walked here.
        if let Some(cm) = art.compiled.as_ref().filter(|cm| cm.reg.is_some()) {
            return crate::reg::run(
                cm,
                &art.types,
                &art.table,
                &mut self.memory,
                &mut self.globals,
                host,
                func_idx,
                args,
                self.profile.as_deref_mut(),
            );
        }
        if let Some(imp) = art.imports.get(func_idx as usize) {
            let declared = art.types[imp.type_idx as usize].results.len();
            let results = host.call(&imp.module, &imp.name, &mut self.memory, args)?;
            check_host_results(&imp.module, &imp.name, results.len(), declared)?;
            return Ok(results);
        }
        let body_idx = func_idx as usize - art.imports.len();
        let mut locals: Vec<Value> = args.to_vec();
        for ty in &art.bodies[body_idx].locals {
            locals.push(Value::zero(*ty));
        }
        // Take the profile out for the duration of the walk so the
        // generic loop can borrow it alongside `&mut self`.
        match self.profile.take() {
            Some(mut p) => {
                let result = self.exec_body(host, body_idx, locals, &mut *p);
                self.profile = Some(p);
                result
            }
            None => self.exec_body(host, body_idx, locals, &mut NoProfile),
        }
    }

    /// Executes a function body on an explicit frame stack.
    ///
    /// Guest calls do **not** consume host stack frames: each `call` pushes a
    /// [`Frame`] onto a heap-allocated vector, so [`MAX_CALL_DEPTH`] levels of
    /// guest recursion are safe regardless of the host's stack size.
    #[allow(clippy::too_many_lines)]
    fn exec_body<P: Profiler>(
        &mut self,
        host: &mut dyn HostEnv,
        mut body_idx: usize,
        mut locals: Vec<Value>,
        prof: &mut P,
    ) -> Result<Vec<Value>, Trap> {
        let Instance {
            artifact,
            memory,
            globals,
            ..
        } = self;
        let art: &Artifact = artifact;
        let mut result_arity = art.types[art.bodies[body_idx].type_idx as usize]
            .results
            .len();
        let mut code_len = art.bodies[body_idx].code.len();
        let mut stack: Vec<Value> = Vec::with_capacity(32);
        let mut labels: Vec<Label> = Vec::with_capacity(8);
        let mut pc: usize = 0;
        let mut stack_base: usize = 0;
        let mut frames: Vec<Frame> = Vec::new();

        /// Saved caller state for a guest-level call.
        struct Frame {
            body_idx: usize,
            locals: Vec<Value>,
            labels: Vec<Label>,
            pc: usize,
            stack_base: usize,
            result_arity: usize,
        }

        macro_rules! enter_function {
            ($f:expr, $n_params:expr) => {{
                let callee_body = $f as usize - art.imports.len();
                if frames.len() + 1 >= MAX_CALL_DEPTH {
                    return Err(Trap::CallStackExhausted);
                }
                let mut new_locals: Vec<Value> = stack.split_off(stack.len() - $n_params);
                for ty in &art.bodies[callee_body].locals {
                    new_locals.push(Value::zero(*ty));
                }
                frames.push(Frame {
                    body_idx,
                    locals: std::mem::take(&mut locals),
                    labels: std::mem::take(&mut labels),
                    pc,
                    stack_base,
                    result_arity,
                });
                body_idx = callee_body;
                locals = new_locals;
                pc = 0;
                stack_base = stack.len();
                result_arity = art.types[art.bodies[callee_body].type_idx as usize]
                    .results
                    .len();
                code_len = art.bodies[callee_body].code.len();
                continue;
            }};
        }

        macro_rules! leave_function {
            () => {{
                // The top `result_arity` values are the results; discard the
                // frame's leftover operands beneath them.
                let results_start = stack.len() - result_arity;
                stack.drain(stack_base..results_start);
                match frames.pop() {
                    Some(frame) => {
                        body_idx = frame.body_idx;
                        locals = frame.locals;
                        labels = frame.labels;
                        pc = frame.pc;
                        stack_base = frame.stack_base;
                        result_arity = frame.result_arity;
                        code_len = art.bodies[body_idx].code.len();
                        continue;
                    }
                    None => return Ok(stack),
                }
            }};
        }

        macro_rules! instr_at {
            ($pc:expr) => {
                // Clone is cheap for all but BrTable; BrTable is cloned only
                // when executed.
                art.bodies[body_idx].code[$pc].clone()
            };
        }

        macro_rules! binop {
            ($as:ident, $wrap:ident, $f:expr) => {{
                let b = stack.pop().expect("validated").$as();
                let a = stack.pop().expect("validated").$as();
                stack.push(Value::$wrap($f(a, b)));
            }};
        }
        macro_rules! unop {
            ($as:ident, $wrap:ident, $f:expr) => {{
                let a = stack.pop().expect("validated").$as();
                stack.push(Value::$wrap($f(a)));
            }};
        }
        macro_rules! relop {
            ($as:ident, $f:expr) => {{
                let b = stack.pop().expect("validated").$as();
                let a = stack.pop().expect("validated").$as();
                stack.push(Value::I32(i32::from($f(a, b))));
            }};
        }
        macro_rules! load {
            ($m:expr, $n:expr, $conv:expr) => {{
                let base = stack.pop().expect("validated").as_i32();
                let bytes: [u8; $n] = memory.load(base, $m.offset)?;
                stack.push($conv(bytes));
            }};
        }
        macro_rules! store {
            ($m:expr, $as:ident, $conv:expr) => {{
                let v = stack.pop().expect("validated").$as();
                let base = stack.pop().expect("validated").as_i32();
                memory.store(base, $m.offset, &$conv(v))?;
            }};
        }

        /// Performs a branch to relative label depth `d`.
        macro_rules! do_branch {
            ($d:expr) => {{
                let idx = labels.len() - 1 - $d as usize;
                let label = labels[idx];
                let keep = stack.len() - label.arity;
                stack.drain(label.height..keep);
                pc = label.target;
                if label.is_loop {
                    if P::ENABLED {
                        prof.backedge();
                    }
                    labels.truncate(idx + 1);
                } else {
                    labels.truncate(idx);
                }
                continue;
            }};
        }

        loop {
            if pc >= code_len {
                leave_function!();
            }
            let instr = instr_at!(pc);
            pc += 1;
            // Retirement is inclusive at fetch: the instruction counts
            // before it executes (and so before it can trap). Shape-only
            // opcodes classify to weight 0 but still count as a dispatch.
            if P::ENABLED {
                let (cls, weight) = classify(&instr);
                prof.retire1(cls, weight);
            }
            match instr {
                Instr::Unreachable => return Err(Trap::Unreachable),
                Instr::Nop => {}
                Instr::Block(bt) => {
                    let (end, _) = scan_block(&art.bodies[body_idx].code, pc - 1);
                    let (params, results) = art.block_arities(bt);
                    labels.push(Label {
                        target: end + 1,
                        arity: results,
                        height: stack.len() - params,
                        is_loop: false,
                    });
                }
                Instr::Loop(bt) => {
                    let (params, _) = art.block_arities(bt);
                    labels.push(Label {
                        target: pc, // re-enter just after the Loop opcode
                        arity: params,
                        height: stack.len() - params,
                        is_loop: true,
                    });
                }
                Instr::If(bt) => {
                    let cond = stack.pop().expect("validated").as_i32();
                    let (end, else_pc) = scan_block(&art.bodies[body_idx].code, pc - 1);
                    let (params, results) = art.block_arities(bt);
                    if cond != 0 {
                        labels.push(Label {
                            target: end + 1,
                            arity: results,
                            height: stack.len() - params,
                            is_loop: false,
                        });
                    } else if let Some(else_pc) = else_pc {
                        labels.push(Label {
                            target: end + 1,
                            arity: results,
                            height: stack.len() - params,
                            is_loop: false,
                        });
                        pc = else_pc + 1;
                    } else {
                        // No else: validation guarantees params == results.
                        pc = end + 1;
                    }
                }
                Instr::Else => {
                    // Fell out of the then-branch: jump past the End.
                    let label = labels.pop().expect("validated control");
                    pc = label.target;
                }
                Instr::End => {
                    if labels.pop().is_none() {
                        leave_function!();
                    }
                }
                Instr::Br(d) => do_branch!(d),
                Instr::BrIf(d) => {
                    let cond = stack.pop().expect("validated").as_i32();
                    if cond != 0 {
                        do_branch!(d);
                    }
                }
                Instr::BrTable { targets, default } => {
                    let i = stack.pop().expect("validated").as_u32() as usize;
                    let d = targets.get(i).copied().unwrap_or(default);
                    do_branch!(d);
                }
                Instr::Return => leave_function!(),
                Instr::Call(f) => {
                    let ty = art.func_type(f);
                    let (n_params, n_results) = (ty.params.len(), ty.results.len());
                    if let Some(imp) = art.imports.get(f as usize) {
                        let args: Vec<Value> = stack.split_off(stack.len() - n_params);
                        let results = host.call(&imp.module, &imp.name, memory, &args)?;
                        check_host_results(&imp.module, &imp.name, results.len(), n_results)?;
                        stack.extend(results);
                    } else {
                        enter_function!(f, n_params);
                    }
                }
                Instr::CallIndirect { type_idx, .. } => {
                    let i = stack.pop().expect("validated").as_u32() as usize;
                    let slot = *art.table.get(i).ok_or(Trap::TableOutOfBounds)?;
                    let f = slot.ok_or(Trap::UndefinedTableElement)?;
                    let expected = &art.types[type_idx as usize];
                    if art.func_type(f) != expected {
                        return Err(Trap::IndirectTypeMismatch);
                    }
                    let (n_params, n_results) = (expected.params.len(), expected.results.len());
                    if let Some(imp) = art.imports.get(f as usize) {
                        let args: Vec<Value> = stack.split_off(stack.len() - n_params);
                        let results = host.call(&imp.module, &imp.name, memory, &args)?;
                        check_host_results(&imp.module, &imp.name, results.len(), n_results)?;
                        stack.extend(results);
                    } else {
                        enter_function!(f, n_params);
                    }
                }
                Instr::Drop => {
                    stack.pop();
                }
                Instr::Select => {
                    let c = stack.pop().expect("validated").as_i32();
                    let b = stack.pop().expect("validated");
                    let a = stack.pop().expect("validated");
                    stack.push(if c != 0 { a } else { b });
                }
                Instr::LocalGet(i) => stack.push(locals[i as usize]),
                Instr::LocalSet(i) => locals[i as usize] = stack.pop().expect("validated"),
                Instr::LocalTee(i) => locals[i as usize] = *stack.last().expect("validated"),
                Instr::GlobalGet(i) => stack.push(globals[i as usize]),
                Instr::GlobalSet(i) => {
                    globals[i as usize] = stack.pop().expect("validated");
                }

                Instr::I32Load(m) => load!(m, 4, |b| Value::I32(i32::from_le_bytes(b))),
                Instr::I64Load(m) => load!(m, 8, |b| Value::I64(i64::from_le_bytes(b))),
                Instr::F32Load(m) => load!(m, 4, |b| Value::F32(f32::from_le_bytes(b))),
                Instr::F64Load(m) => load!(m, 8, |b| Value::F64(f64::from_le_bytes(b))),
                Instr::I32Load8S(m) => {
                    load!(m, 1, |b: [u8; 1]| Value::I32(i32::from(b[0] as i8)))
                }
                Instr::I32Load8U(m) => load!(m, 1, |b: [u8; 1]| Value::I32(i32::from(b[0]))),
                Instr::I32Load16S(m) => {
                    load!(m, 2, |b| Value::I32(i32::from(i16::from_le_bytes(b))))
                }
                Instr::I32Load16U(m) => {
                    load!(m, 2, |b| Value::I32(i32::from(u16::from_le_bytes(b))))
                }
                Instr::I64Load8S(m) => {
                    load!(m, 1, |b: [u8; 1]| Value::I64(i64::from(b[0] as i8)))
                }
                Instr::I64Load8U(m) => load!(m, 1, |b: [u8; 1]| Value::I64(i64::from(b[0]))),
                Instr::I64Load16S(m) => {
                    load!(m, 2, |b| Value::I64(i64::from(i16::from_le_bytes(b))))
                }
                Instr::I64Load16U(m) => {
                    load!(m, 2, |b| Value::I64(i64::from(u16::from_le_bytes(b))))
                }
                Instr::I64Load32S(m) => {
                    load!(m, 4, |b| Value::I64(i64::from(i32::from_le_bytes(b))))
                }
                Instr::I64Load32U(m) => {
                    load!(m, 4, |b| Value::I64(i64::from(u32::from_le_bytes(b))))
                }
                Instr::I32Store(m) => store!(m, as_i32, |v: i32| v.to_le_bytes()),
                Instr::I64Store(m) => store!(m, as_i64, |v: i64| v.to_le_bytes()),
                Instr::F32Store(m) => store!(m, as_f32, |v: f32| v.to_le_bytes()),
                Instr::F64Store(m) => store!(m, as_f64, |v: f64| v.to_le_bytes()),
                Instr::I32Store8(m) => store!(m, as_i32, |v: i32| [(v & 0xff) as u8]),
                Instr::I32Store16(m) => {
                    store!(m, as_i32, |v: i32| (v as u16).to_le_bytes())
                }
                Instr::I64Store8(m) => store!(m, as_i64, |v: i64| [(v & 0xff) as u8]),
                Instr::I64Store16(m) => {
                    store!(m, as_i64, |v: i64| (v as u16).to_le_bytes())
                }
                Instr::I64Store32(m) => {
                    store!(m, as_i64, |v: i64| (v as u32).to_le_bytes())
                }
                Instr::MemorySize => stack.push(Value::I32(memory.size_pages() as i32)),
                Instr::MemoryGrow => {
                    let delta = stack.pop().expect("validated").as_u32();
                    stack.push(Value::I32(memory.grow(delta)));
                }
                Instr::MemoryCopy => {
                    let len = stack.pop().expect("validated").as_u32();
                    let src = stack.pop().expect("validated").as_u32();
                    let dst = stack.pop().expect("validated").as_u32();
                    let mem_len = memory.data.len() as u64;
                    if u64::from(src) + u64::from(len) > mem_len
                        || u64::from(dst) + u64::from(len) > mem_len
                    {
                        return Err(Trap::MemoryOutOfBounds);
                    }
                    memory
                        .data
                        .copy_within(src as usize..(src + len) as usize, dst as usize);
                }
                Instr::MemoryFill => {
                    let len = stack.pop().expect("validated").as_u32();
                    let val = stack.pop().expect("validated").as_i32() as u8;
                    let dst = stack.pop().expect("validated").as_u32();
                    if u64::from(dst) + u64::from(len) > memory.data.len() as u64 {
                        return Err(Trap::MemoryOutOfBounds);
                    }
                    memory.data[dst as usize..(dst + len) as usize].fill(val);
                }

                Instr::I32Const(v) => stack.push(Value::I32(v)),
                Instr::I64Const(v) => stack.push(Value::I64(v)),
                Instr::F32Const(v) => stack.push(Value::F32(v)),
                Instr::F64Const(v) => stack.push(Value::F64(v)),

                Instr::I32Eqz => unop!(as_i32, I32, |a: i32| i32::from(a == 0)),
                Instr::I64Eqz => {
                    let a = stack.pop().expect("validated").as_i64();
                    stack.push(Value::I32(i32::from(a == 0)));
                }
                Instr::I32Eq => relop!(as_i32, |a, b| a == b),
                Instr::I32Ne => relop!(as_i32, |a, b| a != b),
                Instr::I32LtS => relop!(as_i32, |a, b| a < b),
                Instr::I32LtU => relop!(as_i32, |a: i32, b: i32| (a as u32) < (b as u32)),
                Instr::I32GtS => relop!(as_i32, |a, b| a > b),
                Instr::I32GtU => relop!(as_i32, |a: i32, b: i32| (a as u32) > (b as u32)),
                Instr::I32LeS => relop!(as_i32, |a, b| a <= b),
                Instr::I32LeU => relop!(as_i32, |a: i32, b: i32| (a as u32) <= (b as u32)),
                Instr::I32GeS => relop!(as_i32, |a, b| a >= b),
                Instr::I32GeU => relop!(as_i32, |a: i32, b: i32| (a as u32) >= (b as u32)),
                Instr::I64Eq => relop!(as_i64, |a, b| a == b),
                Instr::I64Ne => relop!(as_i64, |a, b| a != b),
                Instr::I64LtS => relop!(as_i64, |a, b| a < b),
                Instr::I64LtU => relop!(as_i64, |a: i64, b: i64| (a as u64) < (b as u64)),
                Instr::I64GtS => relop!(as_i64, |a, b| a > b),
                Instr::I64GtU => relop!(as_i64, |a: i64, b: i64| (a as u64) > (b as u64)),
                Instr::I64LeS => relop!(as_i64, |a, b| a <= b),
                Instr::I64LeU => relop!(as_i64, |a: i64, b: i64| (a as u64) <= (b as u64)),
                Instr::I64GeS => relop!(as_i64, |a, b| a >= b),
                Instr::I64GeU => relop!(as_i64, |a: i64, b: i64| (a as u64) >= (b as u64)),
                Instr::F32Eq => relop!(as_f32, |a, b| a == b),
                Instr::F32Ne => relop!(as_f32, |a, b| a != b),
                Instr::F32Lt => relop!(as_f32, |a, b| a < b),
                Instr::F32Gt => relop!(as_f32, |a, b| a > b),
                Instr::F32Le => relop!(as_f32, |a, b| a <= b),
                Instr::F32Ge => relop!(as_f32, |a, b| a >= b),
                Instr::F64Eq => relop!(as_f64, |a, b| a == b),
                Instr::F64Ne => relop!(as_f64, |a, b| a != b),
                Instr::F64Lt => relop!(as_f64, |a, b| a < b),
                Instr::F64Gt => relop!(as_f64, |a, b| a > b),
                Instr::F64Le => relop!(as_f64, |a, b| a <= b),
                Instr::F64Ge => relop!(as_f64, |a, b| a >= b),

                Instr::I32Clz => unop!(as_i32, I32, |a: i32| a.leading_zeros() as i32),
                Instr::I32Ctz => unop!(as_i32, I32, |a: i32| a.trailing_zeros() as i32),
                Instr::I32Popcnt => unop!(as_i32, I32, |a: i32| a.count_ones() as i32),
                Instr::I32Add => binop!(as_i32, I32, i32::wrapping_add),
                Instr::I32Sub => binop!(as_i32, I32, i32::wrapping_sub),
                Instr::I32Mul => binop!(as_i32, I32, i32::wrapping_mul),
                Instr::I32DivS => {
                    let b = stack.pop().expect("validated").as_i32();
                    let a = stack.pop().expect("validated").as_i32();
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    let (q, ov) = a.overflowing_div(b);
                    if ov {
                        return Err(Trap::IntegerOverflow);
                    }
                    stack.push(Value::I32(q));
                }
                Instr::I32DivU => {
                    let b = stack.pop().expect("validated").as_u32();
                    let a = stack.pop().expect("validated").as_u32();
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I32((a / b) as i32));
                }
                Instr::I32RemS => {
                    let b = stack.pop().expect("validated").as_i32();
                    let a = stack.pop().expect("validated").as_i32();
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I32(a.wrapping_rem(b)));
                }
                Instr::I32RemU => {
                    let b = stack.pop().expect("validated").as_u32();
                    let a = stack.pop().expect("validated").as_u32();
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I32((a % b) as i32));
                }
                Instr::I32And => binop!(as_i32, I32, |a, b| a & b),
                Instr::I32Or => binop!(as_i32, I32, |a, b| a | b),
                Instr::I32Xor => binop!(as_i32, I32, |a, b| a ^ b),
                Instr::I32Shl => binop!(as_i32, I32, |a: i32, b: i32| a.wrapping_shl(b as u32)),
                Instr::I32ShrS => binop!(as_i32, I32, |a: i32, b: i32| a.wrapping_shr(b as u32)),
                Instr::I32ShrU => {
                    binop!(
                        as_i32,
                        I32,
                        |a: i32, b: i32| ((a as u32).wrapping_shr(b as u32)) as i32
                    )
                }
                Instr::I32Rotl => {
                    binop!(as_i32, I32, |a: i32, b: i32| a.rotate_left(b as u32 % 32))
                }
                Instr::I32Rotr => {
                    binop!(as_i32, I32, |a: i32, b: i32| a.rotate_right(b as u32 % 32))
                }

                Instr::I64Clz => unop!(as_i64, I64, |a: i64| i64::from(a.leading_zeros())),
                Instr::I64Ctz => unop!(as_i64, I64, |a: i64| i64::from(a.trailing_zeros())),
                Instr::I64Popcnt => unop!(as_i64, I64, |a: i64| i64::from(a.count_ones())),
                Instr::I64Add => binop!(as_i64, I64, i64::wrapping_add),
                Instr::I64Sub => binop!(as_i64, I64, i64::wrapping_sub),
                Instr::I64Mul => binop!(as_i64, I64, i64::wrapping_mul),
                Instr::I64DivS => {
                    let b = stack.pop().expect("validated").as_i64();
                    let a = stack.pop().expect("validated").as_i64();
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    let (q, ov) = a.overflowing_div(b);
                    if ov {
                        return Err(Trap::IntegerOverflow);
                    }
                    stack.push(Value::I64(q));
                }
                Instr::I64DivU => {
                    let b = stack.pop().expect("validated").as_i64() as u64;
                    let a = stack.pop().expect("validated").as_i64() as u64;
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I64((a / b) as i64));
                }
                Instr::I64RemS => {
                    let b = stack.pop().expect("validated").as_i64();
                    let a = stack.pop().expect("validated").as_i64();
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I64(a.wrapping_rem(b)));
                }
                Instr::I64RemU => {
                    let b = stack.pop().expect("validated").as_i64() as u64;
                    let a = stack.pop().expect("validated").as_i64() as u64;
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I64((a % b) as i64));
                }
                Instr::I64And => binop!(as_i64, I64, |a, b| a & b),
                Instr::I64Or => binop!(as_i64, I64, |a, b| a | b),
                Instr::I64Xor => binop!(as_i64, I64, |a, b| a ^ b),
                Instr::I64Shl => binop!(as_i64, I64, |a: i64, b: i64| a.wrapping_shl(b as u32)),
                Instr::I64ShrS => binop!(as_i64, I64, |a: i64, b: i64| a.wrapping_shr(b as u32)),
                Instr::I64ShrU => {
                    binop!(
                        as_i64,
                        I64,
                        |a: i64, b: i64| ((a as u64).wrapping_shr(b as u32)) as i64
                    )
                }
                Instr::I64Rotl => {
                    binop!(as_i64, I64, |a: i64, b: i64| a.rotate_left((b as u32) % 64))
                }
                Instr::I64Rotr => {
                    binop!(as_i64, I64, |a: i64, b: i64| a
                        .rotate_right((b as u32) % 64))
                }

                Instr::F32Abs => unop!(as_f32, F32, f32::abs),
                Instr::F32Neg => unop!(as_f32, F32, |a: f32| -a),
                Instr::F32Ceil => unop!(as_f32, F32, f32::ceil),
                Instr::F32Floor => unop!(as_f32, F32, f32::floor),
                Instr::F32Trunc => unop!(as_f32, F32, f32::trunc),
                Instr::F32Nearest => unop!(as_f32, F32, f32::round_ties_even),
                Instr::F32Sqrt => unop!(as_f32, F32, f32::sqrt),
                Instr::F32Add => binop!(as_f32, F32, |a, b| a + b),
                Instr::F32Sub => binop!(as_f32, F32, |a, b| a - b),
                Instr::F32Mul => binop!(as_f32, F32, |a, b| a * b),
                Instr::F32Div => binop!(as_f32, F32, |a, b| a / b),
                Instr::F32Min => binop!(as_f32, F32, wasm_fmin32),
                Instr::F32Max => binop!(as_f32, F32, wasm_fmax32),
                Instr::F32Copysign => binop!(as_f32, F32, f32::copysign),
                Instr::F64Abs => unop!(as_f64, F64, f64::abs),
                Instr::F64Neg => unop!(as_f64, F64, |a: f64| -a),
                Instr::F64Ceil => unop!(as_f64, F64, f64::ceil),
                Instr::F64Floor => unop!(as_f64, F64, f64::floor),
                Instr::F64Trunc => unop!(as_f64, F64, f64::trunc),
                Instr::F64Nearest => unop!(as_f64, F64, f64::round_ties_even),
                Instr::F64Sqrt => unop!(as_f64, F64, f64::sqrt),
                Instr::F64Add => binop!(as_f64, F64, |a, b| a + b),
                Instr::F64Sub => binop!(as_f64, F64, |a, b| a - b),
                Instr::F64Mul => binop!(as_f64, F64, |a, b| a * b),
                Instr::F64Div => binop!(as_f64, F64, |a, b| a / b),
                Instr::F64Min => binop!(as_f64, F64, wasm_fmin64),
                Instr::F64Max => binop!(as_f64, F64, wasm_fmax64),
                Instr::F64Copysign => binop!(as_f64, F64, f64::copysign),

                Instr::I32WrapI64 => {
                    let a = stack.pop().expect("validated").as_i64();
                    stack.push(Value::I32(a as i32));
                }
                Instr::I32TruncF32S => {
                    let a = stack.pop().expect("validated").as_f32();
                    stack.push(Value::I32(trunc_f32_to_i32_s(a)?));
                }
                Instr::I32TruncF32U => {
                    let a = stack.pop().expect("validated").as_f32();
                    stack.push(Value::I32(trunc_f32_to_u32(a)? as i32));
                }
                Instr::I32TruncF64S => {
                    let a = stack.pop().expect("validated").as_f64();
                    stack.push(Value::I32(trunc_f64_to_i32_s(a)?));
                }
                Instr::I32TruncF64U => {
                    let a = stack.pop().expect("validated").as_f64();
                    stack.push(Value::I32(trunc_f64_to_u32(a)? as i32));
                }
                Instr::I64ExtendI32S => {
                    let a = stack.pop().expect("validated").as_i32();
                    stack.push(Value::I64(i64::from(a)));
                }
                Instr::I64ExtendI32U => {
                    let a = stack.pop().expect("validated").as_u32();
                    stack.push(Value::I64(i64::from(a)));
                }
                Instr::I64TruncF32S => {
                    let a = stack.pop().expect("validated").as_f32();
                    stack.push(Value::I64(trunc_f32_to_i64_s(a)?));
                }
                Instr::I64TruncF32U => {
                    let a = stack.pop().expect("validated").as_f32();
                    stack.push(Value::I64(trunc_f32_to_u64(a)? as i64));
                }
                Instr::I64TruncF64S => {
                    let a = stack.pop().expect("validated").as_f64();
                    stack.push(Value::I64(trunc_f64_to_i64_s(a)?));
                }
                Instr::I64TruncF64U => {
                    let a = stack.pop().expect("validated").as_f64();
                    stack.push(Value::I64(trunc_f64_to_u64(a)? as i64));
                }
                Instr::F32ConvertI32S => {
                    let a = stack.pop().expect("validated").as_i32();
                    stack.push(Value::F32(a as f32));
                }
                Instr::F32ConvertI32U => {
                    let a = stack.pop().expect("validated").as_u32();
                    stack.push(Value::F32(a as f32));
                }
                Instr::F32ConvertI64S => {
                    let a = stack.pop().expect("validated").as_i64();
                    stack.push(Value::F32(a as f32));
                }
                Instr::F32ConvertI64U => {
                    let a = stack.pop().expect("validated").as_i64() as u64;
                    stack.push(Value::F32(a as f32));
                }
                Instr::F32DemoteF64 => {
                    let a = stack.pop().expect("validated").as_f64();
                    stack.push(Value::F32(a as f32));
                }
                Instr::F64ConvertI32S => {
                    let a = stack.pop().expect("validated").as_i32();
                    stack.push(Value::F64(f64::from(a)));
                }
                Instr::F64ConvertI32U => {
                    let a = stack.pop().expect("validated").as_u32();
                    stack.push(Value::F64(f64::from(a)));
                }
                Instr::F64ConvertI64S => {
                    let a = stack.pop().expect("validated").as_i64();
                    stack.push(Value::F64(a as f64));
                }
                Instr::F64ConvertI64U => {
                    let a = stack.pop().expect("validated").as_i64() as u64;
                    stack.push(Value::F64(a as f64));
                }
                Instr::F64PromoteF32 => {
                    let a = stack.pop().expect("validated").as_f32();
                    stack.push(Value::F64(f64::from(a)));
                }
                Instr::I32ReinterpretF32 => {
                    let a = stack.pop().expect("validated").as_f32();
                    stack.push(Value::I32(a.to_bits() as i32));
                }
                Instr::I64ReinterpretF64 => {
                    let a = stack.pop().expect("validated").as_f64();
                    stack.push(Value::I64(a.to_bits() as i64));
                }
                Instr::F32ReinterpretI32 => {
                    let a = stack.pop().expect("validated").as_i32();
                    stack.push(Value::F32(f32::from_bits(a as u32)));
                }
                Instr::F64ReinterpretI64 => {
                    let a = stack.pop().expect("validated").as_i64();
                    stack.push(Value::F64(f64::from_bits(a as u64)));
                }
                Instr::I32Extend8S => unop!(as_i32, I32, |a: i32| i32::from(a as i8)),
                Instr::I32Extend16S => unop!(as_i32, I32, |a: i32| i32::from(a as i16)),
                Instr::I64Extend8S => unop!(as_i64, I64, |a: i64| i64::from(a as i8)),
                Instr::I64Extend16S => unop!(as_i64, I64, |a: i64| i64::from(a as i16)),
                Instr::I64Extend32S => unop!(as_i64, I64, |a: i64| i64::from(a as i32)),
            }
        }
    }
}

pub(crate) fn wasm_fmin32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_fmax32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_fmin64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_fmax64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

pub(crate) fn trunc_f32_to_i32_s(a: f32) -> Result<i32, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if !(-2147483648.0..2147483648.0).contains(&t) {
        return Err(Trap::BadConversion);
    }
    Ok(t as i32)
}

pub(crate) fn trunc_f32_to_u32(a: f32) -> Result<u32, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if t >= 4294967296.0 || t <= -1.0 {
        return Err(Trap::BadConversion);
    }
    Ok(t as u32)
}

pub(crate) fn trunc_f64_to_i32_s(a: f64) -> Result<i32, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if !(-2147483648.0..2147483648.0).contains(&t) {
        return Err(Trap::BadConversion);
    }
    Ok(t as i32)
}

pub(crate) fn trunc_f64_to_u32(a: f64) -> Result<u32, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if t >= 4294967296.0 || t <= -1.0 {
        return Err(Trap::BadConversion);
    }
    Ok(t as u32)
}

pub(crate) fn trunc_f32_to_i64_s(a: f32) -> Result<i64, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if !(-9223372036854775808.0..9223372036854775808.0).contains(&t) {
        return Err(Trap::BadConversion);
    }
    Ok(t as i64)
}

pub(crate) fn trunc_f32_to_u64(a: f32) -> Result<u64, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if t >= 18446744073709551616.0 || t <= -1.0 {
        return Err(Trap::BadConversion);
    }
    Ok(t as u64)
}

pub(crate) fn trunc_f64_to_i64_s(a: f64) -> Result<i64, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if !(-9223372036854775808.0..9223372036854775808.0).contains(&t) {
        return Err(Trap::BadConversion);
    }
    Ok(t as i64)
}

pub(crate) fn trunc_f64_to_u64(a: f64) -> Result<u64, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if t >= 18446744073709551616.0 || t <= -1.0 {
        return Err(Trap::BadConversion);
    }
    Ok(t as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_config_env_parsing() {
        const ALL: [&str; 4] = [
            "WATZ_NO_FUSE",
            "WATZ_NO_ELIDE",
            "WATZ_VERIFY_IR",
            "WATZ_PROFILE",
        ];
        let with = |names: &[&str], value: &str| {
            EngineConfig::from_lookup(|k| names.contains(&k).then(|| value.into()))
        };
        // Unset, empty and "0" all leave the production configuration.
        let base = EngineConfig::default();
        assert_eq!(base.profile, ProfileMode::Off);
        assert_eq!(with(&[], "1"), base);
        assert_eq!(with(&ALL, ""), base);
        assert_eq!(with(&ALL, "0"), base);
        // Any other value sets a switch, and each moves only its own field.
        let (fuse, elide) = (false, false);
        assert_eq!(with(&ALL[..1], "1"), EngineConfig { fuse, ..base });
        assert_eq!(with(&ALL[1..2], "yes"), EngineConfig { elide, ..base });
        let verify = true;
        assert_eq!(with(&ALL[2..3], "1"), EngineConfig { verify, ..base });
        let profile = ProfileMode::Count;
        assert_eq!(with(&ALL[3..], "1"), EngineConfig { profile, ..base });
        assert!(
            with(&ALL, "1").reg,
            "no switch turns the register engine off"
        );
    }
}
