//! Binary decoder for the Wasm module format.

use crate::instr::{Instr, MemArg};
use crate::leb128::{self, LebError};
use crate::module::{
    DataSegment, ElemSegment, Export, ExportKind, FuncBody, FuncImport, Global, Module,
};
use crate::types::{BlockType, FuncType, GlobalType, Limits, ValType};

/// Errors produced while parsing a binary module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Missing or wrong magic/version header.
    BadHeader,
    /// Input ended unexpectedly.
    UnexpectedEof,
    /// A LEB128 integer was malformed.
    BadLeb,
    /// An unknown or unsupported opcode byte (with prefix context).
    BadOpcode(u8),
    /// An unknown 0xFC-prefixed opcode.
    BadPrefixedOpcode(u32),
    /// Invalid value type byte.
    BadValType(u8),
    /// A section had trailing or overflowing content.
    SectionSize {
        /// Section id.
        id: u8,
    },
    /// Sections appeared out of order or duplicated.
    BadSectionOrder(u8),
    /// Unsupported import kind (only function imports are supported).
    UnsupportedImport,
    /// Unsupported feature (e.g. passive segments).
    Unsupported(&'static str),
    /// String was not valid UTF-8.
    BadUtf8,
    /// Mismatch between function and code section lengths.
    FuncCodeMismatch,
    /// Malformed constant expression.
    BadConstExpr,
    /// A function declares more than [`MAX_FUNC_LOCALS`] parameters plus
    /// locals.
    TooManyLocals,
}

/// Most parameters plus declared locals one function may have — the limit
/// mainstream engines use. Local groups are run-length encoded, so without
/// a cap a few bytes of code section request gigabytes of locals before
/// validation ever sees the module.
pub const MAX_FUNC_LOCALS: usize = 50_000;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "bad magic or version"),
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::BadLeb => write!(f, "malformed LEB128 integer"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            DecodeError::BadPrefixedOpcode(op) => write!(f, "unknown 0xfc opcode {op}"),
            DecodeError::BadValType(b) => write!(f, "invalid value type 0x{b:02x}"),
            DecodeError::SectionSize { id } => write!(f, "section {id} size mismatch"),
            DecodeError::BadSectionOrder(id) => write!(f, "section {id} out of order"),
            DecodeError::UnsupportedImport => write!(f, "only function imports are supported"),
            DecodeError::Unsupported(what) => write!(f, "unsupported feature: {what}"),
            DecodeError::BadUtf8 => write!(f, "name is not valid UTF-8"),
            DecodeError::FuncCodeMismatch => {
                write!(f, "function and code section counts differ")
            }
            DecodeError::BadConstExpr => write!(f, "malformed constant expression"),
            DecodeError::TooManyLocals => {
                write!(f, "function has more than {MAX_FUNC_LOCALS} locals")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<LebError> for DecodeError {
    fn from(e: LebError) -> Self {
        match e {
            LebError::UnexpectedEof => DecodeError::UnexpectedEof,
            LebError::Overflow => DecodeError::BadLeb,
        }
    }
}

struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
    /// End of the section being decoded (of the input, between sections).
    end: usize,
}

impl<'a> Reader<'a> {
    fn new(input: &'a [u8]) -> Self {
        Reader {
            input,
            pos: 0,
            end: input.len(),
        }
    }

    /// The capacity to reserve for `count` elements about to be decoded.
    /// A wire count is unvalidated, but every element takes at least one
    /// byte, so one above the bytes left in the section is a lie the
    /// element loop will report; reserving for it would let a 30-byte
    /// module ask for gigabytes first.
    fn capacity(&self, count: usize) -> usize {
        count.min(self.end.saturating_sub(self.pos))
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.input.get(self.pos).ok_or(DecodeError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    fn peek(&self) -> Result<u8, DecodeError> {
        self.input
            .get(self.pos)
            .copied()
            .ok_or(DecodeError::UnexpectedEof)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::UnexpectedEof)?;
        if end > self.input.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let out = &self.input[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(leb128::read_u32(self.input, &mut self.pos)?)
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        Ok(leb128::read_i32(self.input, &mut self.pos)?)
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(leb128::read_i64(self.input, &mut self.pos)?)
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn name(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn val_type(&mut self) -> Result<ValType, DecodeError> {
        let b = self.byte()?;
        ValType::from_byte(b).ok_or(DecodeError::BadValType(b))
    }

    fn limits(&mut self) -> Result<Limits, DecodeError> {
        match self.byte()? {
            0x00 => Ok(Limits {
                min: self.u32()?,
                max: None,
            }),
            0x01 => Ok(Limits {
                min: self.u32()?,
                max: Some(self.u32()?),
            }),
            b => Err(DecodeError::BadOpcode(b)),
        }
    }

    fn block_type(&mut self) -> Result<BlockType, DecodeError> {
        let b = self.peek()?;
        if b == 0x40 {
            self.pos += 1;
            return Ok(BlockType::Empty);
        }
        if let Some(vt) = ValType::from_byte(b) {
            self.pos += 1;
            return Ok(BlockType::Value(vt));
        }
        // s33 type index.
        let idx = self.i64()?;
        u32::try_from(idx)
            .map(BlockType::Func)
            .map_err(|_| DecodeError::BadLeb)
    }

    fn mem_arg(&mut self) -> Result<MemArg, DecodeError> {
        Ok(MemArg {
            align: self.u32()?,
            offset: self.u32()?,
        })
    }

    fn const_expr(&mut self) -> Result<Instr, DecodeError> {
        let instr = match self.byte()? {
            0x41 => Instr::I32Const(self.i32()?),
            0x42 => Instr::I64Const(self.i64()?),
            0x43 => Instr::F32Const(self.f32()?),
            0x44 => Instr::F64Const(self.f64()?),
            _ => return Err(DecodeError::BadConstExpr),
        };
        if self.byte()? != 0x0b {
            return Err(DecodeError::BadConstExpr);
        }
        Ok(instr)
    }

    /// Decodes a function body's instruction sequence up to and including
    /// the terminating `End` of the outermost frame; `size_hint` sizes the
    /// vector up front.
    fn expr(&mut self, size_hint: usize) -> Result<Vec<Instr>, DecodeError> {
        let mut code = Vec::with_capacity(size_hint);
        let mut depth: u32 = 0;
        loop {
            let instr = self.instr()?;
            let is_end = matches!(instr, Instr::End);
            let opens = instr.opens_block();
            code.push(instr);
            if opens {
                depth += 1;
            } else if is_end {
                if depth == 0 {
                    return Ok(code);
                }
                depth -= 1;
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn instr(&mut self) -> Result<Instr, DecodeError> {
        use Instr::*;
        let op = self.byte()?;
        Ok(match op {
            0x00 => Unreachable,
            0x01 => Nop,
            0x02 => Block(self.block_type()?),
            0x03 => Loop(self.block_type()?),
            0x04 => If(self.block_type()?),
            0x05 => Else,
            0x0b => End,
            0x0c => Br(self.u32()?),
            0x0d => BrIf(self.u32()?),
            0x0e => {
                let count = self.u32()? as usize;
                let mut targets = Vec::with_capacity(self.capacity(count));
                for _ in 0..count {
                    targets.push(self.u32()?);
                }
                let default = self.u32()?;
                BrTable { targets, default }
            }
            0x0f => Return,
            0x10 => Call(self.u32()?),
            0x11 => {
                let type_idx = self.u32()?;
                let table = self.u32()?;
                CallIndirect { type_idx, table }
            }
            0x1a => Drop,
            0x1b => Select,
            0x20 => LocalGet(self.u32()?),
            0x21 => LocalSet(self.u32()?),
            0x22 => LocalTee(self.u32()?),
            0x23 => GlobalGet(self.u32()?),
            0x24 => GlobalSet(self.u32()?),
            0x28 => I32Load(self.mem_arg()?),
            0x29 => I64Load(self.mem_arg()?),
            0x2a => F32Load(self.mem_arg()?),
            0x2b => F64Load(self.mem_arg()?),
            0x2c => I32Load8S(self.mem_arg()?),
            0x2d => I32Load8U(self.mem_arg()?),
            0x2e => I32Load16S(self.mem_arg()?),
            0x2f => I32Load16U(self.mem_arg()?),
            0x30 => I64Load8S(self.mem_arg()?),
            0x31 => I64Load8U(self.mem_arg()?),
            0x32 => I64Load16S(self.mem_arg()?),
            0x33 => I64Load16U(self.mem_arg()?),
            0x34 => I64Load32S(self.mem_arg()?),
            0x35 => I64Load32U(self.mem_arg()?),
            0x36 => I32Store(self.mem_arg()?),
            0x37 => I64Store(self.mem_arg()?),
            0x38 => F32Store(self.mem_arg()?),
            0x39 => F64Store(self.mem_arg()?),
            0x3a => I32Store8(self.mem_arg()?),
            0x3b => I32Store16(self.mem_arg()?),
            0x3c => I64Store8(self.mem_arg()?),
            0x3d => I64Store16(self.mem_arg()?),
            0x3e => I64Store32(self.mem_arg()?),
            0x3f => {
                self.byte()?; // reserved memory index
                MemorySize
            }
            0x40 => {
                self.byte()?;
                MemoryGrow
            }
            0x41 => I32Const(self.i32()?),
            0x42 => I64Const(self.i64()?),
            0x43 => F32Const(self.f32()?),
            0x44 => F64Const(self.f64()?),
            0x45 => I32Eqz,
            0x46 => I32Eq,
            0x47 => I32Ne,
            0x48 => I32LtS,
            0x49 => I32LtU,
            0x4a => I32GtS,
            0x4b => I32GtU,
            0x4c => I32LeS,
            0x4d => I32LeU,
            0x4e => I32GeS,
            0x4f => I32GeU,
            0x50 => I64Eqz,
            0x51 => I64Eq,
            0x52 => I64Ne,
            0x53 => I64LtS,
            0x54 => I64LtU,
            0x55 => I64GtS,
            0x56 => I64GtU,
            0x57 => I64LeS,
            0x58 => I64LeU,
            0x59 => I64GeS,
            0x5a => I64GeU,
            0x5b => F32Eq,
            0x5c => F32Ne,
            0x5d => F32Lt,
            0x5e => F32Gt,
            0x5f => F32Le,
            0x60 => F32Ge,
            0x61 => F64Eq,
            0x62 => F64Ne,
            0x63 => F64Lt,
            0x64 => F64Gt,
            0x65 => F64Le,
            0x66 => F64Ge,
            0x67 => I32Clz,
            0x68 => I32Ctz,
            0x69 => I32Popcnt,
            0x6a => I32Add,
            0x6b => I32Sub,
            0x6c => I32Mul,
            0x6d => I32DivS,
            0x6e => I32DivU,
            0x6f => I32RemS,
            0x70 => I32RemU,
            0x71 => I32And,
            0x72 => I32Or,
            0x73 => I32Xor,
            0x74 => I32Shl,
            0x75 => I32ShrS,
            0x76 => I32ShrU,
            0x77 => I32Rotl,
            0x78 => I32Rotr,
            0x79 => I64Clz,
            0x7a => I64Ctz,
            0x7b => I64Popcnt,
            0x7c => I64Add,
            0x7d => I64Sub,
            0x7e => I64Mul,
            0x7f => I64DivS,
            0x80 => I64DivU,
            0x81 => I64RemS,
            0x82 => I64RemU,
            0x83 => I64And,
            0x84 => I64Or,
            0x85 => I64Xor,
            0x86 => I64Shl,
            0x87 => I64ShrS,
            0x88 => I64ShrU,
            0x89 => I64Rotl,
            0x8a => I64Rotr,
            0x8b => F32Abs,
            0x8c => F32Neg,
            0x8d => F32Ceil,
            0x8e => F32Floor,
            0x8f => F32Trunc,
            0x90 => F32Nearest,
            0x91 => F32Sqrt,
            0x92 => F32Add,
            0x93 => F32Sub,
            0x94 => F32Mul,
            0x95 => F32Div,
            0x96 => F32Min,
            0x97 => F32Max,
            0x98 => F32Copysign,
            0x99 => F64Abs,
            0x9a => F64Neg,
            0x9b => F64Ceil,
            0x9c => F64Floor,
            0x9d => F64Trunc,
            0x9e => F64Nearest,
            0x9f => F64Sqrt,
            0xa0 => F64Add,
            0xa1 => F64Sub,
            0xa2 => F64Mul,
            0xa3 => F64Div,
            0xa4 => F64Min,
            0xa5 => F64Max,
            0xa6 => F64Copysign,
            0xa7 => I32WrapI64,
            0xa8 => I32TruncF32S,
            0xa9 => I32TruncF32U,
            0xaa => I32TruncF64S,
            0xab => I32TruncF64U,
            0xac => I64ExtendI32S,
            0xad => I64ExtendI32U,
            0xae => I64TruncF32S,
            0xaf => I64TruncF32U,
            0xb0 => I64TruncF64S,
            0xb1 => I64TruncF64U,
            0xb2 => F32ConvertI32S,
            0xb3 => F32ConvertI32U,
            0xb4 => F32ConvertI64S,
            0xb5 => F32ConvertI64U,
            0xb6 => F32DemoteF64,
            0xb7 => F64ConvertI32S,
            0xb8 => F64ConvertI32U,
            0xb9 => F64ConvertI64S,
            0xba => F64ConvertI64U,
            0xbb => F64PromoteF32,
            0xbc => I32ReinterpretF32,
            0xbd => I64ReinterpretF64,
            0xbe => F32ReinterpretI32,
            0xbf => F64ReinterpretI64,
            0xc0 => I32Extend8S,
            0xc1 => I32Extend16S,
            0xc2 => I64Extend8S,
            0xc3 => I64Extend16S,
            0xc4 => I64Extend32S,
            0xfc => {
                let sub = self.u32()?;
                match sub {
                    10 => {
                        self.byte()?; // dst mem
                        self.byte()?; // src mem
                        MemoryCopy
                    }
                    11 => {
                        self.byte()?; // mem
                        MemoryFill
                    }
                    other => return Err(DecodeError::BadPrefixedOpcode(other)),
                }
            }
            other => return Err(DecodeError::BadOpcode(other)),
        })
    }
}

/// Decodes a binary module.
///
/// # Errors
///
/// Returns a [`DecodeError`] describing the first malformation encountered.
#[allow(clippy::too_many_lines)]
pub fn decode(bytes: &[u8]) -> Result<Module, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.bytes(4)? != b"\0asm" {
        return Err(DecodeError::BadHeader);
    }
    if r.bytes(4)? != [1, 0, 0, 0] {
        return Err(DecodeError::BadHeader);
    }

    let mut module = Module::default();
    let mut func_type_indices: Vec<u32> = Vec::new();
    let mut last_section_id = 0u8;

    while r.pos < r.input.len() {
        let id = r.byte()?;
        let size = r.u32()? as usize;
        let section_end = r.pos + size;
        if section_end > r.input.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        r.end = section_end;

        if id != 0 && id != 12 {
            if id <= last_section_id {
                return Err(DecodeError::BadSectionOrder(id));
            }
            last_section_id = id;
        }

        match id {
            0 => {
                // Custom section: skipped.
                r.pos = section_end;
            }
            12 => {
                // Data count section: value ignored (we re-derive it).
                let _ = r.u32()?;
            }
            1 => {
                let count = r.u32()?;
                for _ in 0..count {
                    if r.byte()? != 0x60 {
                        return Err(DecodeError::BadConstExpr);
                    }
                    let n_params = r.u32()? as usize;
                    let mut params = Vec::with_capacity(r.capacity(n_params));
                    for _ in 0..n_params {
                        params.push(r.val_type()?);
                    }
                    let n_results = r.u32()? as usize;
                    let mut results = Vec::with_capacity(r.capacity(n_results));
                    for _ in 0..n_results {
                        results.push(r.val_type()?);
                    }
                    module.types.push(FuncType { params, results });
                }
            }
            2 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let mod_name = r.name()?;
                    let field = r.name()?;
                    match r.byte()? {
                        0x00 => {
                            let type_idx = r.u32()?;
                            module.func_imports.push(FuncImport {
                                module: mod_name,
                                name: field,
                                type_idx,
                            });
                        }
                        _ => return Err(DecodeError::UnsupportedImport),
                    }
                }
            }
            3 => {
                let count = r.u32()?;
                for _ in 0..count {
                    func_type_indices.push(r.u32()?);
                }
            }
            4 => {
                let count = r.u32()?;
                for _ in 0..count {
                    if r.byte()? != 0x70 {
                        return Err(DecodeError::Unsupported("non-funcref table"));
                    }
                    module.tables.push(r.limits()?);
                }
            }
            5 => {
                let count = r.u32()?;
                for _ in 0..count {
                    module.memories.push(r.limits()?);
                }
            }
            6 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let val_type = r.val_type()?;
                    let mutable = match r.byte()? {
                        0x00 => false,
                        0x01 => true,
                        b => return Err(DecodeError::BadOpcode(b)),
                    };
                    let init = r.const_expr()?;
                    module.globals.push(Global {
                        ty: GlobalType { val_type, mutable },
                        init,
                    });
                }
            }
            7 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let name = r.name()?;
                    let kind = match r.byte()? {
                        0x00 => ExportKind::Func,
                        0x01 => ExportKind::Table,
                        0x02 => ExportKind::Memory,
                        0x03 => ExportKind::Global,
                        b => return Err(DecodeError::BadOpcode(b)),
                    };
                    let index = r.u32()?;
                    module.exports.push(Export { name, kind, index });
                }
            }
            8 => {
                module.start = Some(r.u32()?);
            }
            9 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let flags = r.u32()?;
                    if flags != 0 {
                        return Err(DecodeError::Unsupported("non-active element segment"));
                    }
                    let offset = r.const_expr()?;
                    let n = r.u32()? as usize;
                    let mut funcs = Vec::with_capacity(r.capacity(n));
                    for _ in 0..n {
                        funcs.push(r.u32()?);
                    }
                    module.elems.push(ElemSegment {
                        table: 0,
                        offset,
                        funcs,
                    });
                }
            }
            10 => {
                let count = r.u32()? as usize;
                if count != func_type_indices.len() {
                    return Err(DecodeError::FuncCodeMismatch);
                }
                for type_idx in func_type_indices.iter().copied() {
                    let body_size = r.u32()? as usize;
                    let body_end = r.pos + body_size;
                    let n_local_groups = r.u32()? as usize;
                    // An out-of-range type index is validation's finding.
                    let n_params = module
                        .types
                        .get(type_idx as usize)
                        .map_or(0, |t| t.params.len());
                    let mut locals = Vec::new();
                    for _ in 0..n_local_groups {
                        let n = r.u32()? as usize;
                        let ty = r.val_type()?;
                        let total = n_params
                            .checked_add(locals.len())
                            .and_then(|have| have.checked_add(n));
                        if total.is_none_or(|t| t > MAX_FUNC_LOCALS) {
                            return Err(DecodeError::TooManyLocals);
                        }
                        locals.extend(std::iter::repeat_n(ty, n));
                    }
                    // Instructions average about two bytes in real code.
                    let code = r.expr(r.capacity(body_end.saturating_sub(r.pos)) / 2)?;
                    if r.pos != body_end {
                        return Err(DecodeError::SectionSize { id: 10 });
                    }
                    module.funcs.push(FuncBody {
                        type_idx,
                        locals,
                        code,
                    });
                }
            }
            11 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let flags = r.u32()?;
                    if flags != 0 {
                        return Err(DecodeError::Unsupported("non-active data segment"));
                    }
                    let offset = r.const_expr()?;
                    let len = r.u32()? as usize;
                    let data = r.bytes(len)?.to_vec();
                    module.data.push(DataSegment {
                        memory: 0,
                        offset,
                        bytes: data,
                    });
                }
            }
            other => return Err(DecodeError::BadOpcode(other)),
        }

        if id != 0 && r.pos != section_end {
            return Err(DecodeError::SectionSize { id });
        }
    }

    if module.funcs.len() != func_type_indices.len() {
        return Err(DecodeError::FuncCodeMismatch);
    }

    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_module_decodes() {
        let bytes = b"\0asm\x01\0\0\0";
        let m = decode(bytes).unwrap();
        assert_eq!(m, Module::default());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"\0ASM\x01\0\0\0"), Err(DecodeError::BadHeader));
    }

    #[test]
    fn bad_version_rejected() {
        assert_eq!(decode(b"\0asm\x02\0\0\0"), Err(DecodeError::BadHeader));
    }

    #[test]
    fn truncated_input_rejected() {
        assert_eq!(decode(b"\0asm"), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn section_out_of_order_rejected() {
        // Type section (1) after function section (3).
        let mut bytes = b"\0asm\x01\0\0\0".to_vec();
        bytes.extend_from_slice(&[3, 1, 0]); // empty function section
        bytes.extend_from_slice(&[1, 1, 0]); // empty type section
        assert_eq!(decode(&bytes), Err(DecodeError::BadSectionOrder(1)));
    }

    /// One `(i32) -> ()` function whose body declares a single group of
    /// `n` i32 locals.
    fn module_with_locals(n: u32) -> Vec<u8> {
        let mut body = vec![1]; // one local group
        crate::leb128::write_u32(&mut body, n);
        body.extend_from_slice(&[0x7f, 0x0b]); // i32, end
        let mut bytes = b"\0asm\x01\0\0\0".to_vec();
        bytes.extend_from_slice(&[1, 5, 1, 0x60, 1, 0x7f, 0]); // type (i32) -> ()
        bytes.extend_from_slice(&[3, 2, 1, 0]); // one function of type 0
        bytes.extend_from_slice(&[10, body.len() as u8 + 2, 1, body.len() as u8]);
        bytes.extend_from_slice(&body);
        bytes
    }

    #[test]
    fn locals_bomb_rejected_before_allocating() {
        // ~30 bytes asking for 4 Gi locals: must fail here, not allocate.
        let bytes = module_with_locals(u32::MAX);
        assert!(bytes.len() < 40);
        assert_eq!(decode(&bytes), Err(DecodeError::TooManyLocals));
        // The parameter counts against the same cap.
        let over = module_with_locals(MAX_FUNC_LOCALS as u32);
        assert_eq!(decode(&over), Err(DecodeError::TooManyLocals));
    }

    /// `sections` behind the module header.
    fn module_of(sections: &[&[u8]]) -> Vec<u8> {
        let mut bytes = b"\0asm\x01\0\0\0".to_vec();
        for s in sections {
            bytes.extend_from_slice(s);
        }
        bytes
    }

    /// A count of 0xFFFF_FFFF, as LEB128.
    const BOMB: [u8; 5] = [0xff, 0xff, 0xff, 0xff, 0x0f];

    #[test]
    fn count_bombs_are_errors_not_allocations() {
        // Four ~30-byte modules, each claiming 4 Gi elements where the
        // decoder used to reserve for the claim before reading one: the
        // process died of a 16 GiB allocation instead of returning.
        let br_table = module_of(&[
            &[1, 4, 1, 0x60, 0, 0], // type () -> ()
            &[3, 2, 1, 0],          // one function of type 0
            &[10, 9, 1, 7, 0, 0x0e],
            &BOMB, // br_table with 4 Gi targets
        ]);
        let params = module_of(&[&[1, 7, 1, 0x60], &BOMB]);
        let results = module_of(&[&[1, 8, 1, 0x60, 0], &BOMB]);
        let elem_funcs = module_of(&[&[9, 10, 1, 0, 0x41, 0, 0x0b], &BOMB]);
        for (what, bytes) in [
            ("br_table targets", br_table),
            ("type params", params),
            ("type results", results),
            ("element funcs", elem_funcs),
        ] {
            assert!(bytes.len() <= 31, "{what}: {} bytes", bytes.len());
            assert_eq!(decode(&bytes), Err(DecodeError::UnexpectedEof), "{what}");
        }
        // What is reserved is bounded by the bytes left in the section.
        let mut r = Reader::new(&[0; 40]);
        r.pos = 8;
        r.end = 24;
        assert_eq!(r.capacity(u32::MAX as usize), 16);
        assert_eq!(r.capacity(3), 3);
    }

    #[test]
    fn locals_at_the_limit_load() {
        let bytes = module_with_locals(MAX_FUNC_LOCALS as u32 - 1);
        let module = crate::load(&bytes).expect("param + locals == limit loads");
        assert_eq!(module.funcs[0].locals.len(), MAX_FUNC_LOCALS - 1);
    }

    #[test]
    fn custom_sections_skipped() {
        let mut bytes = b"\0asm\x01\0\0\0".to_vec();
        // Custom section: id 0, size 5, name "ab" + 2 bytes payload.
        bytes.extend_from_slice(&[0, 5, 2, b'a', b'b', 1, 2]);
        assert!(decode(&bytes).is_ok());
    }
}
