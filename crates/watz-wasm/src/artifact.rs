//! The compiled artifact: everything about a launch that is a pure function
//! of (module bytes, [`ExecMode`], [`EngineConfig`]).
//!
//! The split is the `wasmtime-jit` / `-runtime` one: an immutable
//! [`Artifact`] built once — decode-derived tables, one executor's code
//! (the load-time compile's register program for [`ExecMode::Aot`], the
//! structured bodies and their control side tables for
//! [`ExecMode::Interpreted`]), the verifier's
//! counts — and an
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

/// A local function as the tree interpreter needs it.
#[derive(Debug)]
pub(crate) struct PreparedFunc {
    pub(crate) type_idx: u32,
    pub(crate) locals: Vec<ValType>,
    pub(crate) code: Vec<Instr>,
    /// The control side table, one entry per instruction of `code`: at
    /// each `block`, `loop` and `else` the pc of its matching `end`, at an
    /// `if` the pc of its `else` if it has one and of its `end` if not;
    /// 0 everywhere else ([`crate::exec::block_ends`]).
    pub(crate) ends: Box<[u32]>,
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
    /// Whether instances of this artifact count ([`EngineConfig::profile`]).
    pub(crate) profile: ProfileMode,
    pub(crate) types: Vec<FuncType>,
    /// The imported functions: function indices `0..imports.len()`.
    pub(crate) imports: Vec<FuncImport>,
    pub(crate) code: Code,
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

/// The one executor's code an artifact holds; its variant is the
/// artifact's [`ExecMode`].
#[derive(Debug)]
pub(crate) enum Code {
    /// The structured bodies the tree interpreter walks, each with its
    /// control side table ([`ExecMode::Interpreted`]): function index minus
    /// `imports.len()`.
    Tree(Box<[PreparedFunc]>),
    /// What the load-time compile left ([`ExecMode::Aot`]): the register
    /// program, its tables, the pass and verifier statistics and what the
    /// compile cost.
    /// Nothing keeps the structured bodies, which would double code memory.
    Reg(Box<CompiledModule>),
}

// Shared across launches and threads by construction.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<Artifact>();
};

impl Artifact {
    /// Prepares a validated module for `mode`: runs the load-time compile
    /// ([`ExecMode::Aot`]) and the independent verifier over its result,
    /// always; builds the table image and copies out what instance
    /// creation reads, so the module can be dropped.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::Instantiation`] when lowering refuses a body (under
    /// [`ExecMode::Aot`], a frame past the register engine's `u16` slot
    /// encoding), when the compiled IR fails verification, or for an
    /// out-of-bounds element segment.
    pub fn new(module: &Module, mode: ExecMode, config: EngineConfig) -> Result<Self, Trap> {
        // The AOT preparation step: lower every body to register form once,
        // then re-verify what it left to execute: abstract interpretation
        // from the register bodies alone, no shared state with the lowering
        // code. Only the register form is kept.
        let code = match mode {
            ExecMode::Aot => {
                Code::Reg(Box::new(CompiledModule::compile_full(module, config.fuse)?))
            }
            ExecMode::Interpreted => Code::Tree(
                module
                    .funcs
                    .iter()
                    .map(|f| PreparedFunc {
                        type_idx: f.type_idx,
                        locals: f.locals.clone(),
                        code: f.code.clone(),
                        ends: crate::exec::block_ends(&f.code),
                    })
                    .collect(),
            ),
        };

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
            profile: config.profile,
            types: module.types.clone(),
            imports: module.func_imports.clone(),
            code,
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

    /// Wall time of the load-time compile that produced this artifact
    /// (`None` for [`ExecMode::Interpreted`]). Paid once, by whoever built
    /// the artifact.
    #[must_use]
    pub fn compile_times(&self) -> Option<CompileTimes> {
        self.compiled().map(|cm| cm.times)
    }

    /// The load-time compile's result (`None` for
    /// [`ExecMode::Interpreted`]).
    pub(crate) fn compiled(&self) -> Option<&CompiledModule> {
        match &self.code {
            Code::Reg(cm) => Some(&**cm),
            Code::Tree(_) => None,
        }
    }

    /// The signature of a function by index, imports first.
    pub(crate) fn func_type(&self, func_idx: u32) -> &FuncType {
        let idx = func_idx as usize;
        let type_idx = match (&self.code, self.imports.get(idx)) {
            (Code::Reg(cm), _) => cm.func_type_idx[idx],
            (Code::Tree(_), Some(imp)) => imp.type_idx,
            (Code::Tree(bodies), None) => bodies[idx - self.imports.len()].type_idx,
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
