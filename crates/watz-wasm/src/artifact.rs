//! The compiled artifact: everything about a launch that is a pure function
//! of (module bytes, [`ExecMode`], [`EngineConfig`]).
//!
//! The split is the `wasmtime-jit` / `-runtime` one: an immutable
//! [`Artifact`] built once — decode-derived tables, the load-time compile's
//! register program (or the structured bodies, for a module that runs on the
//! tree oracle), the verifier's verdict — and an
//! [`Instance`](crate::exec::Instance) that holds an `Arc` of it plus the
//! state a guest can change: linear memory, globals, counters. Any number of
//! instances share one artifact; an embedder that launches the same bytes
//! again keeps the artifact and pays instance creation only.

use std::collections::HashMap;

use crate::exec::{EngineConfig, ExecMode, Trap, Value};
use crate::flat::{CompileTimes, CompiledModule};
use crate::instr::Instr;
use crate::module::{ExportKind, FuncImport, Module};
use crate::profile::ProfileMode;
use crate::types::{BlockType, FuncType, Limits, ValType};
use crate::verify::VerifyStats;

/// A local function as the tree interpreter needs it. An artifact with a
/// register program keeps the type index only: nothing walks its structured
/// bodies, and keeping them would double its code memory.
#[derive(Debug)]
pub(crate) struct PreparedFunc {
    pub(crate) type_idx: u32,
    pub(crate) locals: Vec<ValType>,
    pub(crate) code: Vec<Instr>,
}

/// A module prepared for execution in one mode under one configuration.
///
/// Immutable once built: there is no `&mut` accessor and no interior
/// mutability, so nothing reachable from an
/// [`Instance`](crate::exec::Instance) — or from anything that holds one —
/// can change what another instance of the same artifact executes. It is
/// `Send + Sync`; share it with `Arc`.
///
/// ```
/// use std::sync::Arc;
/// use watz_wasm::exec::{Instance, NoHost, Value};
/// use watz_wasm::{builder::ModuleBuilder, instr::Instr, types::ValType};
/// use watz_wasm::{Artifact, EngineConfig, ExecMode};
///
/// let mut b = ModuleBuilder::new();
/// let ty = b.add_type(&[], &[ValType::I32]);
/// let f = b.add_func(ty, &[], vec![Instr::I32Const(7), Instr::End]);
/// b.export_func("seven", f);
/// let module = watz_wasm::load(&b.build()).unwrap();
/// let artifact = Artifact::new(&module, ExecMode::Aot, EngineConfig::default()).unwrap();
/// let artifact = Arc::new(artifact);
/// // Two instances, one compile.
/// let mut a = Instance::from_artifact(Arc::clone(&artifact), &mut NoHost).unwrap();
/// let mut b = Instance::from_artifact(Arc::clone(&artifact), &mut NoHost).unwrap();
/// assert_eq!(a.invoke(&mut NoHost, "seven", &[]).unwrap(), vec![Value::I32(7)]);
/// assert_eq!(b.invoke(&mut NoHost, "seven", &[]).unwrap(), vec![Value::I32(7)]);
/// // Shared, so not even its owner gets a `&mut` to it.
/// let mut mine = artifact;
/// assert!(Arc::get_mut(&mut mine).is_none());
/// ```
#[derive(Debug)]
pub struct Artifact {
    pub(crate) mode: ExecMode,
    /// Whether instances of this artifact count ([`EngineConfig::profile`]).
    pub(crate) profile: ProfileMode,
    pub(crate) types: Vec<FuncType>,
    /// The imported functions: function indices `0..imports.len()`.
    pub(crate) imports: Vec<FuncImport>,
    /// The local functions: function index minus `imports.len()`.
    pub(crate) bodies: Vec<PreparedFunc>,
    /// What the load-time compile left, for [`ExecMode::Aot`]: the register
    /// program (when there is one), its tables, the pass statistics and
    /// what each pass cost.
    pub(crate) compiled: Option<CompiledModule>,
    /// Verifier counters when the register program was verified
    /// ([`EngineConfig::verify`]); an artifact that failed is never built.
    pub(crate) verify: Option<VerifyStats>,
    pub(crate) exports: HashMap<String, (ExportKind, u32)>,
    /// The function table after every element segment; this engine has no
    /// instruction that writes it.
    pub(crate) table: Vec<Option<u32>>,
    /// Initial value of every global.
    pub(crate) globals: Vec<Value>,
    pub(crate) memory: Option<Limits>,
    /// Data segments as `(offset, bytes)`, applied to each new memory.
    pub(crate) data: Vec<(u32, Vec<u8>)>,
    pub(crate) start: Option<u32>,
}

// Shared across launches and threads by construction.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<Artifact>();
};

impl Artifact {
    /// Prepares a validated module for `mode`: runs the load-time compile
    /// ([`ExecMode::Aot`]) and, with [`EngineConfig::verify`], the
    /// independent verifier over its result; builds the table image and
    /// copies out what instance creation reads, so the module can be
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::Instantiation`] when lowering rejects a body, when
    /// the compiled IR fails verification, or for an out-of-bounds element
    /// segment.
    pub fn new(module: &Module, mode: ExecMode, config: EngineConfig) -> Result<Self, Trap> {
        // The AOT preparation step: lower every body to the flat IR once,
        // and rewrite it to register form (when that pass is on); only the
        // register form is kept.
        let compiled = match mode {
            ExecMode::Aot => Some(CompiledModule::compile_full(
                module,
                config.fuse,
                config.reg,
                config.elide,
            )?),
            ExecMode::Interpreted => None,
        };

        // Independent re-verification of what the lowering pipeline left to
        // execute: abstract interpretation from the register bodies alone,
        // no shared state with the lowering code above.
        let verify = match &compiled {
            Some(cm) if config.verify => Some(
                crate::verify::verify_module(cm, &module.types)
                    .map_err(|e| Trap::Instantiation(format!("IR verification: {e}")))?,
            ),
            _ => None,
        };

        let on_interpreter = compiled.as_ref().is_none_or(|cm| cm.reg.is_none());
        let bodies = module
            .funcs
            .iter()
            .map(|f| {
                let (locals, code) = if on_interpreter {
                    (f.locals.clone(), f.code.clone())
                } else {
                    (Vec::new(), Vec::new())
                };
                PreparedFunc {
                    type_idx: f.type_idx,
                    locals,
                    code,
                }
            })
            .collect();

        let globals = module
            .globals
            .iter()
            .map(|g| match g.init {
                Instr::I32Const(v) => Value::I32(v),
                Instr::I64Const(v) => Value::I64(v),
                Instr::F32Const(v) => Value::F32(v),
                Instr::F64Const(v) => Value::F64(v),
                _ => unreachable!("validated initializer"),
            })
            .collect();

        let mut table = vec![None; module.tables.first().map_or(0, |t| t.min as usize)];
        for elem in &module.elems {
            let offset = const_offset(&elem.offset) as usize;
            if offset + elem.funcs.len() > table.len() {
                return Err(Trap::Instantiation("element segment out of bounds".into()));
            }
            for (i, f) in elem.funcs.iter().enumerate() {
                table[offset + i] = Some(*f);
            }
        }

        Ok(Artifact {
            mode,
            profile: config.profile,
            types: module.types.clone(),
            imports: module.func_imports.clone(),
            bodies,
            compiled,
            verify,
            exports: module
                .exports
                .iter()
                .map(|e| (e.name.clone(), (e.kind, e.index)))
                .collect(),
            table,
            globals,
            memory: module.memories.first().copied(),
            data: module
                .data
                .iter()
                .map(|d| (const_offset(&d.offset), d.bytes.clone()))
                .collect(),
            start: module.start,
        })
    }

    /// Pages of linear memory every instance starts with.
    #[must_use]
    pub fn min_memory_pages(&self) -> u32 {
        self.memory.map_or(0, |l| l.min)
    }

    /// Wall time of each pass of the load-time compile that produced this
    /// artifact (`None` for [`ExecMode::Interpreted`]; a pass that did not
    /// run reads zero). Paid once, by whoever built the artifact.
    #[must_use]
    pub fn compile_times(&self) -> Option<CompileTimes> {
        self.compiled.as_ref().map(|cm| cm.times)
    }

    /// The signature of a function by index, imports first.
    pub(crate) fn func_type(&self, func_idx: u32) -> &FuncType {
        let idx = func_idx as usize;
        let type_idx = match self.imports.get(idx) {
            Some(imp) => imp.type_idx,
            None => self.bodies[idx - self.imports.len()].type_idx,
        };
        &self.types[type_idx as usize]
    }

    /// `(params, results)` of a block type.
    pub(crate) fn block_arities(&self, bt: BlockType) -> (usize, usize) {
        match bt {
            BlockType::Empty => (0, 0),
            BlockType::Value(_) => (0, 1),
            BlockType::Func(idx) => {
                let ty = &self.types[idx as usize];
                (ty.params.len(), ty.results.len())
            }
        }
    }
}

/// The constant of a validated segment offset expression.
fn const_offset(offset: &Instr) -> u32 {
    let Instr::I32Const(v) = offset else {
        unreachable!("validated offset")
    };
    *v as u32
}
