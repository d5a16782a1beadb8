//! The in-memory representation of a decoded module.

use crate::instr::Instr;
use crate::types::{FuncType, GlobalType, Limits, ValType};

/// A function import declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncImport {
    /// Import module namespace (e.g. `"wasi_snapshot_preview1"`).
    pub module: String,
    /// Import field name (e.g. `"clock_time_get"`).
    pub name: String,
    /// Index into the type section.
    pub type_idx: u32,
}

/// A function defined inside the module.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncBody {
    /// Index into the type section.
    pub type_idx: u32,
    /// Declared local variables (beyond the parameters).
    pub locals: Vec<ValType>,
    /// The instruction sequence, terminated by `End`.
    pub code: Vec<Instr>,
}

/// An exported item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Export {
    /// Export name.
    pub name: String,
    /// What is being exported.
    pub kind: ExportKind,
    /// Index in the corresponding index space.
    pub index: u32,
}

/// The kind of an export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportKind {
    /// A function.
    Func,
    /// A table.
    Table,
    /// A linear memory.
    Memory,
    /// A global.
    Global,
}

/// A global definition with its constant initializer.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// The global's type.
    pub ty: GlobalType,
    /// Initializer: a single constant instruction.
    pub init: Instr,
}

/// An active element segment (table initializer).
#[derive(Debug, Clone, PartialEq)]
pub struct ElemSegment {
    /// Table index (0 in MVP).
    pub table: u32,
    /// Constant offset expression (single instruction).
    pub offset: Instr,
    /// Function indices to place.
    pub funcs: Vec<u32>,
}

/// An active data segment (memory initializer).
#[derive(Debug, Clone, PartialEq)]
pub struct DataSegment {
    /// Memory index (0 in MVP).
    pub memory: u32,
    /// Constant offset expression (single instruction).
    pub offset: Instr,
    /// Bytes to place.
    pub bytes: Vec<u8>,
}

/// A decoded WebAssembly module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// The type section.
    pub types: Vec<FuncType>,
    /// Imported functions (the only import kind supported).
    pub func_imports: Vec<FuncImport>,
    /// Functions defined in this module.
    pub funcs: Vec<FuncBody>,
    /// Tables (funcref).
    pub tables: Vec<Limits>,
    /// Linear memories (at most one).
    pub memories: Vec<Limits>,
    /// Globals.
    pub globals: Vec<Global>,
    /// Exports.
    pub exports: Vec<Export>,
    /// Optional start function index.
    pub start: Option<u32>,
    /// Element segments.
    pub elems: Vec<ElemSegment>,
    /// Data segments.
    pub data: Vec<DataSegment>,
}

impl Module {
    /// Total number of functions (imports + defined).
    #[must_use]
    pub fn func_count(&self) -> usize {
        self.func_imports.len() + self.funcs.len()
    }

    /// Resolves a function index to its type, treating imports as the first
    /// indices per the spec.
    #[must_use]
    pub fn func_type_idx(&self, func_idx: u32) -> Option<u32> {
        let idx = func_idx as usize;
        if idx < self.func_imports.len() {
            Some(self.func_imports[idx].type_idx)
        } else {
            self.funcs
                .get(idx - self.func_imports.len())
                .map(|f| f.type_idx)
        }
    }

    /// Looks up an export by name and kind.
    #[must_use]
    pub fn find_export(&self, name: &str, kind: ExportKind) -> Option<u32> {
        self.exports
            .iter()
            .find(|e| e.name == name && e.kind == kind)
            .map(|e| e.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn func_index_space_spans_imports() {
        let mut m = Module::default();
        m.types.push(FuncType::new(&[], &[]));
        m.types.push(FuncType::new(&[ValType::I32], &[]));
        m.func_imports.push(FuncImport {
            module: "env".into(),
            name: "host".into(),
            type_idx: 1,
        });
        m.funcs.push(FuncBody {
            type_idx: 0,
            locals: vec![],
            code: vec![Instr::End],
        });
        assert_eq!(m.func_type_idx(0), Some(1)); // the import
        assert_eq!(m.func_type_idx(1), Some(0)); // the defined function
        assert_eq!(m.func_type_idx(2), None);
        assert_eq!(m.func_count(), 2);
    }

    #[test]
    fn export_lookup() {
        let mut m = Module::default();
        m.exports.push(Export {
            name: "main".into(),
            kind: ExportKind::Func,
            index: 3,
        });
        assert_eq!(m.find_export("main", ExportKind::Func), Some(3));
        assert_eq!(m.find_export("main", ExportKind::Memory), None);
        assert_eq!(m.find_export("other", ExportKind::Func), None);
    }
}
