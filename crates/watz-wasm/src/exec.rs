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
//!    structured instruction sequence directly, over an enum-tagged
//!    [`Value`] stack, and reads each `block`'s and `if`'s `end`/`else`
//!    from a per-body side table (`block_ends`, one `u32` per
//!    instruction, built by one pass of its own at load time) instead of
//!    scanning forward for it — WAMR's classic interpreter caches block
//!    addresses the same way. Kept as the differential oracle.
//! 2. **Register engine** ([`ExecMode::Aot`], [`crate::reg`]): the portable
//!    analogue of WAMR's AOT step — translate once at load time, run on a
//!    representation built for execution rather than decoding. One
//!    load-time walk per body produces its code: an abstract-stack
//!    simulation over the structured instructions that resolves every
//!    branch to an absolute jump with its stack fix-up inlined, keeps
//!    operands as untagged 64-bit slots, and gives every op explicit
//!    source/destination frame-slot indices — `local.get`s forward into
//!    their consumers, intermediates live at fixed slots, and the dispatch
//!    loop never pushes or pops an operand stack. Reading ahead over the
//!    same instructions, it joins six shapes into single
//!    superinstructions: a constant right operand, a sink into a local or
//!    memory, compare-and-branch, the 1-D array-address tail, and at a
//!    row multiply the 2-D address and the row index `y*n + z`
//!    ([`EngineConfig::fuse`] switches just those rules off, for
//!    bisection; [`crate::reg::RegStats`] and
//!    [`crate::FusionStats`] report what the walk did).
//!
//! An artifact holds one executor's code: the structured bodies under
//! `Interpreted`, the register program alone under `Aot`. An `Aot` module
//! with a function whose frame exceeds the register form's `u16` slot
//! encoding is refused with [`Trap::Instantiation`].
//!
//! Both executors share one semantics (identical results, identical traps
//! and identical retired-instruction counts) and are differentially tested
//! against each other across the full PolyBench/speedtest/Genann suites
//! plus randomized MiniC kernels, fused and unfused. Every memory access
//! of either executor is bounds-checked, and a miss is
//! [`Trap::MemoryOutOfBounds`]: the crate forbids `unsafe`, so a proof
//! that an access is in bounds would have no check to remove. Because the
//! register engine stops short of native code generation, the speedup over
//! interpretation is smaller than WAMR's 28×: 4–6× on the speedtest
//! guest's calls and 5.5–6.7× on gemm (see BENCHMARKS.md for the
//! dispatch counts behind it).

use std::sync::Arc;

use crate::artifact::{Artifact, Code, PreparedFunc};
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
const DEFAULT_MAX_PAGES: u32 = 1024; // 64 MiB

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
    /// `i32::MIN / -1`-style overflow, or a float-to-int truncation of
    /// ±inf or of a value outside the integer type's range.
    IntegerOverflow,
    /// Float-to-int truncation of NaN.
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
            Trap::BadConversion => write!(f, "invalid conversion to integer"),
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
    /// Structured interpretation, the oracle (block exits read from a
    /// per-body side table).
    Interpreted,
    /// Ahead-of-time lowering to the register engine (see [`crate::reg`]).
    /// A module with a frame past the `u16` slot encoding is refused at
    /// instantiation.
    Aot,
}

/// What [`ExecMode::Aot`] instantiation does besides lowering to register
/// code and verifying it, which it always does. `fuse` is ignored in
/// [`ExecMode::Interpreted`]; `profile` applies to both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// Let register lowering join adjacent instructions into
    /// superinstructions (its fusion rules, see [`crate::reg`]); operand
    /// forwarding is not a rule and stays on, and so does global hoisting,
    /// which forwards a call-free loop's global reads from a cache slot.
    pub fuse: bool,
    /// Whether the instance maintains an [`ExecProfile`].
    pub profile: ProfileMode,
}

impl Default for EngineConfig {
    /// The production configuration: fusion on, no counting.
    fn default() -> Self {
        EngineConfig {
            fuse: true,
            profile: ProfileMode::Off,
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
    /// Creates a memory with `min` pages, growable to `max` pages (the
    /// engine's 64 MiB when the module declares no maximum;
    /// [`Memory::cap_pages`] lowers it).
    ///
    /// Every one of the `min` pages is written, so instantiation costs time
    /// in proportion to the declared size, not to what the guest touches:
    /// a module should declare the pages its data needs and grow the rest.
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
    fn size_pages(&self) -> u32 {
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

    /// Lowers the growth limit to `pages` (it never raises it): from now
    /// on a `memory.grow` past `pages`, on either executor, returns -1. An
    /// embedder caps a guest at the memory it can still pay for.
    pub fn cap_pages(&mut self, pages: u32) {
        self.max_pages = self.max_pages.min(pages);
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

/// A body's control side table ([`PreparedFunc::ends`]), built in one
/// pass over a stack of the constructs still open: an `else` resolves the
/// `if` on top and stays open in its place, an `end` resolves and pops the
/// top. The body's own final `end` finds the stack empty and resolves
/// nothing.
pub(crate) fn block_ends(code: &[Instr]) -> Box<[u32]> {
    let mut ends = vec![0; code.len()];
    let mut open: Vec<usize> = Vec::new();
    let at = |pc: usize| u32::try_from(pc).expect("a body's size in bytes is a u32");
    for (pc, instr) in code.iter().enumerate() {
        match instr {
            i if i.opens_block() => open.push(pc),
            Instr::Else => {
                if let Some(opener) = open.last_mut() {
                    ends[*opener] = at(pc);
                    *opener = pc;
                }
            }
            Instr::End => {
                if let Some(opener) = open.pop() {
                    ends[opener] = at(pc);
                }
            }
            _ => {}
        }
    }
    ends.into_boxed_slice()
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
    /// [`EngineConfig::default`].
    ///
    /// # Errors
    ///
    /// Returns [`Trap::Instantiation`] for out-of-bounds segments or, under
    /// [`ExecMode::Aot`], a body lowering refuses or register code the
    /// verifier rejects ([`Artifact::new`]); or any trap raised by the
    /// start function.
    pub fn instantiate(
        module: &Module,
        mode: ExecMode,
        host: &mut dyn HostEnv,
    ) -> Result<Self, Trap> {
        Self::instantiate_with(module, mode, EngineConfig::default(), host)
    }

    /// [`Instance::instantiate_with`] with `fuse` and `profile` spelled
    /// out and the rest from [`EngineConfig::default`]; `reg = false` runs
    /// `mode` on the tree interpreter ([`ExecMode::Interpreted`]). Exists
    /// only because `benchmark/` calls it; goes with the next benchmark PR.
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
        let config = EngineConfig { fuse, profile };
        let mode = if reg { mode } else { ExecMode::Interpreted };
        Self::instantiate_with(module, mode, config, host)
    }

    /// [`Instance::instantiate_with`] with `fuse` spelled out and the rest
    /// from [`EngineConfig::default`]; `reg = false` runs `mode` on the
    /// tree interpreter ([`ExecMode::Interpreted`]). `elide` is ignored:
    /// there is no bounds-check elision; so is `verify`: every register
    /// program is verified. Exists only because `benchmark/` calls it;
    /// goes with the next benchmark PR.
    ///
    /// # Errors
    ///
    /// Same contract as [`Instance::instantiate_with`].
    pub fn instantiate_with_analysis(
        module: &Module,
        mode: ExecMode,
        fuse: bool,
        reg: bool,
        _elide: bool,
        _verify: bool,
        host: &mut dyn HostEnv,
    ) -> Result<Self, Trap> {
        let config = EngineConfig {
            fuse,
            ..EngineConfig::default()
        };
        let mode = if reg { mode } else { ExecMode::Interpreted };
        Self::instantiate_with(module, mode, config, host)
    }

    /// [`Instance::instantiate`] under an explicit [`EngineConfig`]: builds
    /// an [`Artifact`] no other instance shares, then
    /// [`Instance::from_artifact`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Instance::instantiate`].
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
        match self.artifact.code {
            Code::Tree(_) => ExecMode::Interpreted,
            Code::Reg(_) => ExecMode::Aot,
        }
    }

    /// Superinstruction counts from the register pass's fusion rules
    /// (`None` for interpreted instances; all-zero when fusion was
    /// disabled).
    #[must_use]
    pub fn fusion_stats(&self) -> Option<crate::reg::FusionStats> {
        self.artifact.compiled().map(|cm| cm.fusion)
    }

    /// Register-allocation counts (`None` for interpreted instances, the
    /// only ones without a register program).
    #[must_use]
    pub fn reg_stats(&self) -> Option<crate::reg::RegStats> {
        self.artifact.compiled().map(|cm| cm.stats)
    }

    /// Verifier counters from the IR verification every register program
    /// passes before it runs (`None` for interpreted instances, the only
    /// ones without a register program).
    #[must_use]
    pub fn verify_stats(&self) -> Option<crate::verify::VerifyStats> {
        self.artifact.compiled().map(|cm| cm.verify)
    }

    /// Runs the range analysis over the register program now and returns
    /// its counters (`None` for interpreted instances); nothing at launch
    /// runs it. Exists only because `benchmark/` reads it; goes with the
    /// next benchmark PR.
    #[must_use]
    pub fn range_stats(&self) -> Option<crate::analysis::RangeStats> {
        self.artifact.compiled().map(crate::analysis::range_stats)
    }

    /// Wall time of the load-time compile (`None` for interpreted
    /// instances).
    #[must_use]
    pub fn compile_times(&self) -> Option<flat::CompileTimes> {
        self.artifact.compile_times()
    }

    /// Re-runs the independent IR verifier over this instance's register
    /// program and returns fresh counters; `None` for interpreted instances
    /// (nothing was compiled).
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::verify::VerifyError`] found, as at
    /// instantiation.
    pub fn verify_ir(
        &self,
    ) -> Option<Result<crate::verify::VerifyStats, crate::verify::VerifyError>> {
        let art = &*self.artifact;
        art.compiled()
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
        let Instance {
            artifact,
            memory,
            globals,
            profile,
        } = self;
        let art: &Artifact = artifact;
        // The one place that picks the executor: an artifact holds the code
        // of exactly one.
        let bodies = match &art.code {
            Code::Reg(cm) => {
                return crate::reg::run(
                    cm,
                    &art.types,
                    &art.table,
                    memory,
                    globals,
                    host,
                    func_idx,
                    args,
                    profile.as_deref_mut(),
                )
            }
            Code::Tree(bodies) => bodies,
        };
        if let Some(imp) = art.imports.get(func_idx as usize) {
            let declared = art.types[imp.type_idx as usize].results.len();
            let results = host.call(&imp.module, &imp.name, memory, args)?;
            check_host_results(&imp.module, &imp.name, results.len(), declared)?;
            return Ok(results);
        }
        let body_idx = func_idx as usize - art.imports.len();
        let mut locals: Vec<Value> = args.to_vec();
        for ty in &bodies[body_idx].locals {
            locals.push(Value::zero(*ty));
        }
        match profile.as_deref_mut() {
            Some(p) => Self::exec_body(art, bodies, memory, globals, host, body_idx, locals, p),
            None => Self::exec_body(
                art,
                bodies,
                memory,
                globals,
                host,
                body_idx,
                locals,
                &mut NoProfile,
            ),
        }
    }

    /// Executes a function body on an explicit frame stack.
    ///
    /// Guest calls do **not** consume host stack frames: each `call` pushes a
    /// [`Frame`] onto a heap-allocated vector, so [`MAX_CALL_DEPTH`] levels of
    /// guest recursion are safe regardless of the host's stack size.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn exec_body<P: Profiler>(
        art: &Artifact,
        bodies: &[PreparedFunc],
        memory: &mut Memory,
        globals: &mut [Value],
        host: &mut dyn HostEnv,
        mut body_idx: usize,
        mut locals: Vec<Value>,
        prof: &mut P,
    ) -> Result<Vec<Value>, Trap> {
        let mut result_arity = art.types[bodies[body_idx].type_idx as usize].results.len();
        let mut code_len = bodies[body_idx].code.len();
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
                for ty in &bodies[callee_body].locals {
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
                result_arity = art.types[bodies[callee_body].type_idx as usize]
                    .results
                    .len();
                code_len = bodies[callee_body].code.len();
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
                        code_len = bodies[body_idx].code.len();
                        continue;
                    }
                    None => return Ok(stack),
                }
            }};
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

        /// Performs a branch to relative label depth `d`. The function's
        /// own label is not on `labels`: a branch to it leaves through the
        /// body's end, as a `return` does.
        macro_rules! do_branch {
            ($d:expr) => {{
                let Some(idx) = labels.len().checked_sub(1 + $d as usize) else {
                    pc = code_len;
                    continue;
                };
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
            // Borrowed, not cloned: a `br_table` allocates nothing.
            let instr = &bodies[body_idx].code[pc];
            pc += 1;
            // Retirement is inclusive at fetch: the instruction counts
            // before it executes (and so before it can trap). Shape-only
            // opcodes classify to weight 0 but still count as a dispatch.
            if P::ENABLED {
                let (cls, weight) = classify(instr);
                prof.retire1(cls, weight);
            }
            match *instr {
                Instr::Unreachable => return Err(Trap::Unreachable),
                Instr::Nop => {}
                Instr::Block(bt) => {
                    let end = bodies[body_idx].ends[pc - 1] as usize;
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
                    // The table holds the `if`'s `else` when it has one,
                    // and that `else` holds the `end`.
                    let body = &bodies[body_idx];
                    let exit = body.ends[pc - 1] as usize;
                    let (end, else_pc) = match body.code[exit] {
                        Instr::Else => (body.ends[exit] as usize, Some(exit)),
                        _ => (exit, None),
                    };
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
                Instr::BrTable {
                    ref targets,
                    default,
                } => {
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
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as i32)
}

pub(crate) fn trunc_f32_to_u32(a: f32) -> Result<u32, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if t >= 4294967296.0 || t <= -1.0 {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as u32)
}

pub(crate) fn trunc_f64_to_i32_s(a: f64) -> Result<i32, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if !(-2147483648.0..2147483648.0).contains(&t) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as i32)
}

pub(crate) fn trunc_f64_to_u32(a: f64) -> Result<u32, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if t >= 4294967296.0 || t <= -1.0 {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as u32)
}

pub(crate) fn trunc_f32_to_i64_s(a: f32) -> Result<i64, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if !(-9223372036854775808.0..9223372036854775808.0).contains(&t) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as i64)
}

pub(crate) fn trunc_f32_to_u64(a: f32) -> Result<u64, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if t >= 18446744073709551616.0 || t <= -1.0 {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as u64)
}

pub(crate) fn trunc_f64_to_i64_s(a: f64) -> Result<i64, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if !(-9223372036854775808.0..9223372036854775808.0).contains(&t) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as i64)
}

pub(crate) fn trunc_f64_to_u64(a: f64) -> Result<u64, Trap> {
    if a.is_nan() {
        return Err(Trap::BadConversion);
    }
    let t = a.trunc();
    if t >= 18446744073709551616.0 || t <= -1.0 {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::Instr as I;
    use crate::types::BlockType;

    /// The brute-force reference for [`block_ends`]: scans forward from an
    /// opener pc for its matching `end` (and, at depth 0, its `else`).
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

    /// Asserts that every opener's side-table entries in every body of
    /// `wasm`'s tree artifact are what [`scan_block`] finds; returns the
    /// number of openers checked.
    fn assert_tables_match_scan(wasm: &[u8], ctx: &str) -> usize {
        let module = crate::load(wasm).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let art = Artifact::new(&module, ExecMode::Interpreted, EngineConfig::default()).unwrap();
        let Code::Tree(bodies) = &art.code else {
            panic!("{ctx}: an interpreted artifact holds tree code")
        };
        let mut openers = 0;
        for (f, body) in bodies.iter().enumerate() {
            let (code, ends) = (&body.code, &body.ends);
            assert_eq!(
                ends.len(),
                code.len(),
                "{ctx} body {f}: one entry per instruction"
            );
            for (pc, instr) in code.iter().enumerate().filter(|(_, i)| i.opens_block()) {
                openers += 1;
                let (end, else_pc) = scan_block(code, pc);
                let at = |pc: usize| ends[pc] as usize;
                match else_pc {
                    Some(else_pc) => {
                        assert!(matches!(instr, I::If(_)), "{ctx} body {f} pc {pc}");
                        assert_eq!(at(pc), else_pc, "{ctx} body {f}: else of the if at {pc}");
                        assert_eq!(at(else_pc), end, "{ctx} body {f}: end of the else at {pc}");
                    }
                    None => assert_eq!(at(pc), end, "{ctx} body {f}: end of the opener at {pc}"),
                }
            }
        }
        openers
    }

    /// `watz_bench::fig4_app(1)`'s shape, rebuilt here: 100 functions of
    /// 1200 unrolled `i64.const; i64.add` pairs, no block at all.
    fn fig4_app() -> Vec<u8> {
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[], &[ValType::I64]);
        let mut main_idx = 0;
        for f in 0..100 {
            let mut code = vec![I::I64Const(f)];
            for k in 0..1200 {
                code.extend([I::I64Const(k), I::I64Add]);
            }
            code.push(I::End);
            main_idx = b.add_func(ty, &[], code);
        }
        b.export_func("main", main_idx);
        b.add_memory(1, None);
        b.build()
    }

    /// `depth` constructs nested in turn as `block`, `loop` and an `if`
    /// with an `else`, around a `nop`.
    fn nest(depth: usize, out: &mut Vec<Instr>) {
        if depth == 0 {
            out.push(I::Nop);
            return;
        }
        let e = BlockType::Empty;
        match depth % 3 {
            0 => out.push(I::Block(e)),
            1 => out.push(I::Loop(e)),
            _ => out.extend([I::I32Const(1), I::If(e)]),
        }
        nest(depth - 1, out);
        if depth % 3 == 2 {
            out.extend([I::Else, I::Nop]);
        }
        out.push(I::End);
    }

    /// Hand-built bodies for the shapes a corpus may not reach, all
    /// `[] -> []`.
    fn hand_built() -> Vec<(&'static str, Vec<Instr>)> {
        let e = BlockType::Empty;
        let mut deep = Vec::new();
        nest(64, &mut deep);
        deep.push(I::End);
        vec![
            ("64-deep nesting", deep),
            (
                "else at depth 0 after nested ifs",
                vec![
                    I::I32Const(1),
                    I::If(e),
                    I::I32Const(1),
                    I::If(e),
                    I::I32Const(0),
                    I::If(e),
                    I::Nop,
                    I::End,
                    I::End,
                    I::I32Const(1),
                    I::If(e),
                    I::Nop,
                    I::Else,
                    I::Nop,
                    I::End,
                    I::Else,
                    I::Nop,
                    I::End,
                    I::End,
                ],
            ),
            (
                "if without else",
                vec![I::I32Const(0), I::If(e), I::Nop, I::End, I::End],
            ),
            (
                "blocks in unreachable tails",
                vec![
                    // After `br`.
                    I::Block(e),
                    I::Br(0),
                    I::Block(e),
                    I::Nop,
                    I::End,
                    I::I32Const(1),
                    I::If(e),
                    I::End,
                    I::End,
                    // After `unreachable`: the `if` pops the polymorphic
                    // stack.
                    I::Block(e),
                    I::Unreachable,
                    I::Loop(e),
                    I::End,
                    I::If(e),
                    I::Else,
                    I::End,
                    I::End,
                    // After `return`, to the body's end.
                    I::Return,
                    I::Block(e),
                    I::End,
                    I::If(e),
                    I::Block(e),
                    I::End,
                    I::Else,
                    I::End,
                    I::End,
                ],
            ),
        ]
    }

    #[test]
    fn side_table_equals_the_forward_scan() {
        use workloads::{genann_guest, polybench, speedtest};
        for k in polybench::suite() {
            let wasm = minic::compile(k.minic).expect("kernel compiles");
            assert!(assert_tables_match_scan(&wasm, k.name) > 0, "{}", k.name);
        }
        let options = minic::Options {
            min_pages: 256,
            max_pages: None,
        };
        let minisql = minic::compile_with_options(speedtest::MINISQL_GUEST, &options).unwrap();
        assert!(assert_tables_match_scan(&minisql, "minisql") > 0);
        let genann = minic::compile(&genann_guest::source()).unwrap();
        assert!(assert_tables_match_scan(&genann, "genann") > 0);
        assert_eq!(assert_tables_match_scan(&fig4_app(), "fig4_app"), 0);
        for (name, code) in hand_built() {
            let mut b = ModuleBuilder::new();
            let ty = b.add_type(&[], &[]);
            b.add_func(ty, &[], code);
            assert!(assert_tables_match_scan(&b.build(), name) > 0, "{name}");
        }
    }

    /// Runs `op` as the one instruction of a function over `args` on the
    /// tree oracle and on register code, fused and unfused.
    fn one_op(op: &I, args: &[Value], result: ValType) -> Vec<Result<Vec<Value>, Trap>> {
        let mut b = ModuleBuilder::new();
        let params: Vec<ValType> = args.iter().map(|a| a.ty()).collect();
        let ty = b.add_type(&params, &[result]);
        let mut code: Vec<Instr> = (0..args.len() as u32).map(I::LocalGet).collect();
        code.extend([op.clone(), I::End]);
        let f = b.add_func(ty, &[], code);
        b.export_func("f", f);
        let module = crate::load(&b.build()).unwrap();
        let engines = [
            (ExecMode::Interpreted, true),
            (ExecMode::Aot, true),
            (ExecMode::Aot, false),
        ];
        engines
            .iter()
            .map(|&(mode, fuse)| {
                let cfg = EngineConfig {
                    fuse,
                    ..EngineConfig::default()
                };
                let mut inst = Instance::instantiate_with(&module, mode, cfg, &mut NoHost).unwrap();
                inst.invoke(&mut NoHost, "f", args)
            })
            .collect()
    }

    #[test]
    fn float_edges_follow_the_spec_on_both_executors() {
        // The tree oracle and the register engine share these helpers, so
        // no differential run can see a bug in them: each row is pinned to
        // the value the spec gives (bit for bit, so -0 is not +0).
        let f32_ = |x: f64| Value::F32(x as f32);
        for (min, max, v) in [
            (I::F32Min, I::F32Max, &f32_ as &dyn Fn(f64) -> Value),
            (I::F64Min, I::F64Max, &Value::F64),
        ] {
            let (nan, inf) = (f64::NAN, f64::INFINITY);
            // `None`: the result is a NaN.
            let rows = [
                (&min, nan, 1.0, None),
                (&min, 1.0, nan, None),
                (&max, nan, 1.0, None),
                (&max, 1.0, nan, None),
                (&min, nan, nan, None),
                (&min, -0.0, 0.0, Some(-0.0)),
                (&min, 0.0, -0.0, Some(-0.0)),
                (&max, -0.0, 0.0, Some(0.0)),
                (&max, 0.0, -0.0, Some(0.0)),
                (&min, -inf, 1.0, Some(-inf)),
                (&min, inf, 1.0, Some(1.0)),
                (&max, inf, 1.0, Some(inf)),
                (&max, -inf, 1.0, Some(1.0)),
                (&min, 1.0, 2.0, Some(1.0)),
                (&max, 1.0, 2.0, Some(2.0)),
            ];
            for (op, a, b, want) in rows {
                let ctx = format!("{op:?}({a}, {b})");
                for got in one_op(op, &[v(a), v(b)], v(0.0).ty()) {
                    let got = got.unwrap_or_else(|e| panic!("{ctx}: {e}"))[0];
                    let bits = |x: Value| match x {
                        Value::F32(x) => (u64::from(x.to_bits()), x.is_nan()),
                        Value::F64(x) => (x.to_bits(), x.is_nan()),
                        other => panic!("{ctx}: {other:?}"),
                    };
                    match want {
                        None => assert!(bits(got).1, "{ctx}: {got:?} is not a NaN"),
                        Some(w) => assert_eq!(bits(got), bits(v(w)), "{ctx}: {got:?}"),
                    }
                }
            }
        }

        // Truncation: the last value in range on each side, the first out
        // of range and the infinities, which overflow, and NaN, which is no
        // integer at all.
        let traps = Err(Trap::IntegerOverflow);
        let (i32_, i64_) = (
            |x: i32| Ok(vec![Value::I32(x)]),
            |x: i64| Ok(vec![Value::I64(x)]),
        );
        let f = |x: f32| Value::F32(x);
        let d = |x: f64| Value::F64(x);
        let edges_f32 = [
            (f(f32::NAN), Err(Trap::BadConversion)),
            (f(f32::INFINITY), traps.clone()),
            (f(f32::NEG_INFINITY), traps.clone()),
        ];
        let edges_f64 = [
            (d(f64::NAN), Err(Trap::BadConversion)),
            (d(f64::INFINITY), traps.clone()),
            (d(f64::NEG_INFINITY), traps.clone()),
        ];
        let rows: Vec<(I, Value, Result<Vec<Value>, Trap>)> = vec![
            (I::I32TruncF32S, f(-2147483648.0), i32_(i32::MIN)),
            (I::I32TruncF32S, f(-2147483904.0), traps.clone()),
            (I::I32TruncF32S, f(2147483520.0), i32_(2147483520)),
            (I::I32TruncF32S, f(2147483648.0), traps.clone()),
            (I::I32TruncF32S, f(-0.9), i32_(0)),
            (I::I32TruncF32S, f(-1.0), i32_(-1)),
            (I::I32TruncF32U, f(4294967040.0), i32_(4294967040u32 as i32)),
            (I::I32TruncF32U, f(4294967296.0), traps.clone()),
            (I::I32TruncF32U, f(-0.9), i32_(0)),
            (I::I32TruncF32U, f(-1.0), traps.clone()),
            (I::I32TruncF64S, d(-2147483648.9), i32_(i32::MIN)),
            (I::I32TruncF64S, d(-2147483649.0), traps.clone()),
            (I::I32TruncF64S, d(2147483647.9), i32_(i32::MAX)),
            (I::I32TruncF64S, d(2147483648.0), traps.clone()),
            (I::I32TruncF64U, d(4294967295.9), i32_(-1)),
            (I::I32TruncF64U, d(4294967296.0), traps.clone()),
            (I::I32TruncF64U, d(-0.9), i32_(0)),
            (I::I32TruncF64U, d(-1.0), traps.clone()),
            (I::I64TruncF32S, f(-9223372036854775808.0), i64_(i64::MIN)),
            (I::I64TruncF32S, f(-9223373136366403584.0), traps.clone()),
            (
                I::I64TruncF32S,
                f(9223371487098961920.0),
                i64_(9223371487098961920),
            ),
            (I::I64TruncF32S, f(9223372036854775808.0), traps.clone()),
            (
                I::I64TruncF32U,
                f(18446742974197923840.0),
                i64_(18446742974197923840u64 as i64),
            ),
            (I::I64TruncF32U, f(18446744073709551616.0), traps.clone()),
            (I::I64TruncF32U, f(-0.9), i64_(0)),
            (I::I64TruncF32U, f(-1.0), traps.clone()),
            (I::I64TruncF64S, d(-9223372036854775808.0), i64_(i64::MIN)),
            (I::I64TruncF64S, d(-9223372036854777856.0), traps.clone()),
            (
                I::I64TruncF64S,
                d(9223372036854774784.0),
                i64_(9223372036854774784),
            ),
            (I::I64TruncF64S, d(9223372036854775808.0), traps.clone()),
            (
                I::I64TruncF64U,
                d(18446744073709549568.0),
                i64_(18446744073709549568u64 as i64),
            ),
            (I::I64TruncF64U, d(18446744073709551616.0), traps.clone()),
            (I::I64TruncF64U, d(-0.9), i64_(0)),
            (I::I64TruncF64U, d(-1.0), traps.clone()),
        ];
        let from_f32 = [
            I::I32TruncF32S,
            I::I32TruncF32U,
            I::I64TruncF32S,
            I::I64TruncF32U,
        ];
        let edges = from_f32
            .iter()
            .flat_map(|op| edges_f32.clone().map(|(x, want)| (op.clone(), x, want)));
        let edges = edges.chain(
            [
                I::I32TruncF64S,
                I::I32TruncF64U,
                I::I64TruncF64S,
                I::I64TruncF64U,
            ]
            .iter()
            .flat_map(|op| edges_f64.clone().map(|(x, want)| (op.clone(), x, want))),
        );
        let rows = rows.into_iter().chain(edges);
        for (op, arg, want) in rows {
            let result = match op {
                I::I64TruncF32S | I::I64TruncF32U | I::I64TruncF64S | I::I64TruncF64U => {
                    ValType::I64
                }
                _ => ValType::I32,
            };
            for got in one_op(&op, &[arg], result) {
                assert_eq!(got, want, "{op:?}({arg:?})");
            }
        }
    }
}
