//! Programmatic module construction.
//!
//! Used by the MiniC compiler backend and by tests/benches that need
//! synthetic modules (e.g. the unrolled 1–9 MB applications of the Fig 4
//! startup experiment).

use crate::encode::encode;
use crate::instr::Instr;
use crate::module::{
    DataSegment, ElemSegment, Export, ExportKind, FuncBody, FuncImport, Global, Module,
};
use crate::types::{FuncType, GlobalType, Limits, ValType};

/// Incremental builder for a [`Module`].
#[derive(Debug, Default, Clone)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or reuses) a function type, returning its index.
    pub fn add_type(&mut self, params: &[ValType], results: &[ValType]) -> u32 {
        let ty = FuncType::new(params, results);
        if let Some(idx) = self.module.types.iter().position(|t| *t == ty) {
            return idx as u32;
        }
        self.module.types.push(ty);
        (self.module.types.len() - 1) as u32
    }

    /// Declares a function import; must be called before any `add_func`.
    ///
    /// Returns the function index of the import.
    ///
    /// # Panics
    ///
    /// Panics if a defined function was already added (the Wasm index space
    /// places all imports first).
    pub fn import_func(&mut self, module: &str, name: &str, type_idx: u32) -> u32 {
        assert!(
            self.module.funcs.is_empty(),
            "imports must be declared before defined functions"
        );
        self.module.func_imports.push(FuncImport {
            module: module.to_string(),
            name: name.to_string(),
            type_idx,
        });
        (self.module.func_imports.len() - 1) as u32
    }

    /// Adds a defined function; returns its function index.
    pub fn add_func(&mut self, type_idx: u32, locals: &[ValType], code: Vec<Instr>) -> u32 {
        self.module.funcs.push(FuncBody {
            type_idx,
            locals: locals.to_vec(),
            code,
        });
        (self.module.func_imports.len() + self.module.funcs.len() - 1) as u32
    }

    /// Declares the module's linear memory (min/max in 64 KiB pages).
    pub fn add_memory(&mut self, min_pages: u32, max_pages: Option<u32>) -> &mut Self {
        self.module.memories.push(Limits {
            min: min_pages,
            max: max_pages,
        });
        self
    }

    /// Declares a funcref table.
    pub fn add_table(&mut self, min: u32, max: Option<u32>) -> u32 {
        self.module.tables.push(Limits { min, max });
        (self.module.tables.len() - 1) as u32
    }

    /// Adds a global; returns its index.
    pub fn add_global(&mut self, val_type: ValType, mutable: bool, init: Instr) -> u32 {
        self.module.globals.push(Global {
            ty: GlobalType { val_type, mutable },
            init,
        });
        (self.module.globals.len() - 1) as u32
    }

    /// Exports a function under `name`.
    pub fn export_func(&mut self, name: &str, func_idx: u32) -> &mut Self {
        self.module.exports.push(Export {
            name: name.to_string(),
            kind: ExportKind::Func,
            index: func_idx,
        });
        self
    }

    /// Exports memory 0 under `name`.
    pub fn export_memory(&mut self, name: &str) -> &mut Self {
        self.module.exports.push(Export {
            name: name.to_string(),
            kind: ExportKind::Memory,
            index: 0,
        });
        self
    }

    /// Adds an active data segment at a constant offset.
    pub fn add_data(&mut self, offset: u32, bytes: &[u8]) -> &mut Self {
        self.module.data.push(DataSegment {
            memory: 0,
            offset: Instr::I32Const(offset as i32),
            bytes: bytes.to_vec(),
        });
        self
    }

    /// Adds an active element segment into table 0 at a constant offset.
    pub fn add_elems(&mut self, offset: u32, funcs: &[u32]) -> &mut Self {
        self.module.elems.push(ElemSegment {
            table: 0,
            offset: Instr::I32Const(offset as i32),
            funcs: funcs.to_vec(),
        });
        self
    }

    /// Sets the start function.
    pub fn set_start(&mut self, func_idx: u32) -> &mut Self {
        self.module.start = Some(func_idx);
        self
    }

    /// Returns the module under construction.
    #[must_use]
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Finishes and encodes to binary.
    #[must_use]
    pub fn build(&self) -> Vec<u8> {
        encode(&self.module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_deduplication() {
        let mut b = ModuleBuilder::new();
        let t1 = b.add_type(&[ValType::I32], &[]);
        let t2 = b.add_type(&[ValType::I32], &[]);
        let t3 = b.add_type(&[ValType::I64], &[]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }

    #[test]
    fn import_then_func_indices() {
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[], &[]);
        let imp = b.import_func("env", "f", ty);
        let f = b.add_func(ty, &[], vec![Instr::End]);
        assert_eq!(imp, 0);
        assert_eq!(f, 1);
    }

    #[test]
    #[should_panic(expected = "imports must be declared")]
    fn late_import_panics() {
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[], &[]);
        b.add_func(ty, &[], vec![Instr::End]);
        b.import_func("env", "f", ty);
    }

    #[test]
    fn built_module_decodes() {
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[], &[ValType::I32]);
        let f = b.add_func(ty, &[], vec![Instr::I32Const(7), Instr::End]);
        b.export_func("seven", f);
        b.add_memory(1, Some(2));
        b.add_data(0, b"data");
        let bytes = b.build();
        let m = crate::decode::decode(&bytes).unwrap();
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(m.data[0].bytes, b"data");
    }
}
