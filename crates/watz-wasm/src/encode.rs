//! Binary encoder: turns a [`Module`] back into the Wasm binary format.
//!
//! This is the backend of the MiniC compiler (the reproduction's WASI-SDK
//! stand-in) and of the synthetic application generator used by the Fig 4
//! startup benchmark. `decode(encode(m)) == m` is property-tested.

use crate::instr::{Instr, MemArg};
use crate::leb128::{write_i32, write_i64, write_u32};
use crate::module::{ExportKind, Module};
use crate::types::{BlockType, FuncType, Limits, ValType};

/// Encodes a module into its binary representation.
#[must_use]
pub fn encode(module: &Module) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"\0asm");
    out.extend_from_slice(&[1, 0, 0, 0]);

    // Section 1: types.
    if !module.types.is_empty() {
        let mut body = Vec::new();
        write_u32(&mut body, module.types.len() as u32);
        for ty in &module.types {
            encode_func_type(&mut body, ty);
        }
        section(&mut out, 1, &body);
    }

    // Section 2: imports.
    if !module.func_imports.is_empty() {
        let mut body = Vec::new();
        write_u32(&mut body, module.func_imports.len() as u32);
        for imp in &module.func_imports {
            encode_name(&mut body, &imp.module);
            encode_name(&mut body, &imp.name);
            body.push(0x00);
            write_u32(&mut body, imp.type_idx);
        }
        section(&mut out, 2, &body);
    }

    // Section 3: function declarations.
    if !module.funcs.is_empty() {
        let mut body = Vec::new();
        write_u32(&mut body, module.funcs.len() as u32);
        for f in &module.funcs {
            write_u32(&mut body, f.type_idx);
        }
        section(&mut out, 3, &body);
    }

    // Section 4: tables.
    if !module.tables.is_empty() {
        let mut body = Vec::new();
        write_u32(&mut body, module.tables.len() as u32);
        for t in &module.tables {
            body.push(0x70);
            encode_limits(&mut body, t);
        }
        section(&mut out, 4, &body);
    }

    // Section 5: memories.
    if !module.memories.is_empty() {
        let mut body = Vec::new();
        write_u32(&mut body, module.memories.len() as u32);
        for m in &module.memories {
            encode_limits(&mut body, m);
        }
        section(&mut out, 5, &body);
    }

    // Section 6: globals.
    if !module.globals.is_empty() {
        let mut body = Vec::new();
        write_u32(&mut body, module.globals.len() as u32);
        for g in &module.globals {
            body.push(g.ty.val_type.to_byte());
            body.push(u8::from(g.ty.mutable));
            encode_instr(&mut body, &g.init);
            body.push(0x0b);
        }
        section(&mut out, 6, &body);
    }

    // Section 7: exports.
    if !module.exports.is_empty() {
        let mut body = Vec::new();
        write_u32(&mut body, module.exports.len() as u32);
        for e in &module.exports {
            encode_name(&mut body, &e.name);
            body.push(match e.kind {
                ExportKind::Func => 0x00,
                ExportKind::Table => 0x01,
                ExportKind::Memory => 0x02,
                ExportKind::Global => 0x03,
            });
            write_u32(&mut body, e.index);
        }
        section(&mut out, 7, &body);
    }

    // Section 8: start.
    if let Some(start) = module.start {
        let mut body = Vec::new();
        write_u32(&mut body, start);
        section(&mut out, 8, &body);
    }

    // Section 9: element segments.
    if !module.elems.is_empty() {
        let mut body = Vec::new();
        write_u32(&mut body, module.elems.len() as u32);
        for e in &module.elems {
            write_u32(&mut body, 0); // active, table 0
            encode_instr(&mut body, &e.offset);
            body.push(0x0b);
            write_u32(&mut body, e.funcs.len() as u32);
            for f in &e.funcs {
                write_u32(&mut body, *f);
            }
        }
        section(&mut out, 9, &body);
    }

    // Section 10: code.
    if !module.funcs.is_empty() {
        let mut body = Vec::new();
        write_u32(&mut body, module.funcs.len() as u32);
        for f in &module.funcs {
            let mut func_body = Vec::new();
            // Run-length encode locals.
            let mut groups: Vec<(u32, ValType)> = Vec::new();
            for l in &f.locals {
                match groups.last_mut() {
                    Some((count, ty)) if ty == l => *count += 1,
                    _ => groups.push((1, *l)),
                }
            }
            write_u32(&mut func_body, groups.len() as u32);
            for (count, ty) in groups {
                write_u32(&mut func_body, count);
                func_body.push(ty.to_byte());
            }
            for instr in &f.code {
                encode_instr(&mut func_body, instr);
            }
            write_u32(&mut body, func_body.len() as u32);
            body.extend_from_slice(&func_body);
        }
        section(&mut out, 10, &body);
    }

    // Section 11: data segments.
    if !module.data.is_empty() {
        let mut body = Vec::new();
        write_u32(&mut body, module.data.len() as u32);
        for d in &module.data {
            write_u32(&mut body, 0); // active, memory 0
            encode_instr(&mut body, &d.offset);
            body.push(0x0b);
            write_u32(&mut body, d.bytes.len() as u32);
            body.extend_from_slice(&d.bytes);
        }
        section(&mut out, 11, &body);
    }

    out
}

fn section(out: &mut Vec<u8>, id: u8, body: &[u8]) {
    out.push(id);
    write_u32(out, body.len() as u32);
    out.extend_from_slice(body);
}

fn encode_name(out: &mut Vec<u8>, name: &str) {
    write_u32(out, name.len() as u32);
    out.extend_from_slice(name.as_bytes());
}

fn encode_func_type(out: &mut Vec<u8>, ty: &FuncType) {
    out.push(0x60);
    write_u32(out, ty.params.len() as u32);
    for p in &ty.params {
        out.push(p.to_byte());
    }
    write_u32(out, ty.results.len() as u32);
    for r in &ty.results {
        out.push(r.to_byte());
    }
}

fn encode_limits(out: &mut Vec<u8>, limits: &Limits) {
    match limits.max {
        None => {
            out.push(0x00);
            write_u32(out, limits.min);
        }
        Some(max) => {
            out.push(0x01);
            write_u32(out, limits.min);
            write_u32(out, max);
        }
    }
}

fn encode_block_type(out: &mut Vec<u8>, bt: &BlockType) {
    match bt {
        BlockType::Empty => out.push(0x40),
        BlockType::Value(vt) => out.push(vt.to_byte()),
        BlockType::Func(idx) => write_i64(out, i64::from(*idx)),
    }
}

fn encode_mem_arg(out: &mut Vec<u8>, m: &MemArg) {
    write_u32(out, m.align);
    write_u32(out, m.offset);
}

/// Encodes a single instruction.
#[allow(clippy::too_many_lines)]
fn encode_instr(out: &mut Vec<u8>, instr: &Instr) {
    use Instr::*;
    match instr {
        Unreachable => out.push(0x00),
        Nop => out.push(0x01),
        Block(bt) => {
            out.push(0x02);
            encode_block_type(out, bt);
        }
        Loop(bt) => {
            out.push(0x03);
            encode_block_type(out, bt);
        }
        If(bt) => {
            out.push(0x04);
            encode_block_type(out, bt);
        }
        Else => out.push(0x05),
        End => out.push(0x0b),
        Br(l) => {
            out.push(0x0c);
            write_u32(out, *l);
        }
        BrIf(l) => {
            out.push(0x0d);
            write_u32(out, *l);
        }
        BrTable { targets, default } => {
            out.push(0x0e);
            write_u32(out, targets.len() as u32);
            for t in targets {
                write_u32(out, *t);
            }
            write_u32(out, *default);
        }
        Return => out.push(0x0f),
        Call(f) => {
            out.push(0x10);
            write_u32(out, *f);
        }
        CallIndirect { type_idx, table } => {
            out.push(0x11);
            write_u32(out, *type_idx);
            write_u32(out, *table);
        }
        Drop => out.push(0x1a),
        Select => out.push(0x1b),
        LocalGet(i) => {
            out.push(0x20);
            write_u32(out, *i);
        }
        LocalSet(i) => {
            out.push(0x21);
            write_u32(out, *i);
        }
        LocalTee(i) => {
            out.push(0x22);
            write_u32(out, *i);
        }
        GlobalGet(i) => {
            out.push(0x23);
            write_u32(out, *i);
        }
        GlobalSet(i) => {
            out.push(0x24);
            write_u32(out, *i);
        }
        I32Load(m) => {
            out.push(0x28);
            encode_mem_arg(out, m);
        }
        I64Load(m) => {
            out.push(0x29);
            encode_mem_arg(out, m);
        }
        F32Load(m) => {
            out.push(0x2a);
            encode_mem_arg(out, m);
        }
        F64Load(m) => {
            out.push(0x2b);
            encode_mem_arg(out, m);
        }
        I32Load8S(m) => {
            out.push(0x2c);
            encode_mem_arg(out, m);
        }
        I32Load8U(m) => {
            out.push(0x2d);
            encode_mem_arg(out, m);
        }
        I32Load16S(m) => {
            out.push(0x2e);
            encode_mem_arg(out, m);
        }
        I32Load16U(m) => {
            out.push(0x2f);
            encode_mem_arg(out, m);
        }
        I64Load8S(m) => {
            out.push(0x30);
            encode_mem_arg(out, m);
        }
        I64Load8U(m) => {
            out.push(0x31);
            encode_mem_arg(out, m);
        }
        I64Load16S(m) => {
            out.push(0x32);
            encode_mem_arg(out, m);
        }
        I64Load16U(m) => {
            out.push(0x33);
            encode_mem_arg(out, m);
        }
        I64Load32S(m) => {
            out.push(0x34);
            encode_mem_arg(out, m);
        }
        I64Load32U(m) => {
            out.push(0x35);
            encode_mem_arg(out, m);
        }
        I32Store(m) => {
            out.push(0x36);
            encode_mem_arg(out, m);
        }
        I64Store(m) => {
            out.push(0x37);
            encode_mem_arg(out, m);
        }
        F32Store(m) => {
            out.push(0x38);
            encode_mem_arg(out, m);
        }
        F64Store(m) => {
            out.push(0x39);
            encode_mem_arg(out, m);
        }
        I32Store8(m) => {
            out.push(0x3a);
            encode_mem_arg(out, m);
        }
        I32Store16(m) => {
            out.push(0x3b);
            encode_mem_arg(out, m);
        }
        I64Store8(m) => {
            out.push(0x3c);
            encode_mem_arg(out, m);
        }
        I64Store16(m) => {
            out.push(0x3d);
            encode_mem_arg(out, m);
        }
        I64Store32(m) => {
            out.push(0x3e);
            encode_mem_arg(out, m);
        }
        MemorySize => {
            out.push(0x3f);
            out.push(0x00);
        }
        MemoryGrow => {
            out.push(0x40);
            out.push(0x00);
        }
        I32Const(v) => {
            out.push(0x41);
            write_i32(out, *v);
        }
        I64Const(v) => {
            out.push(0x42);
            write_i64(out, *v);
        }
        F32Const(v) => {
            out.push(0x43);
            out.extend_from_slice(&v.to_le_bytes());
        }
        F64Const(v) => {
            out.push(0x44);
            out.extend_from_slice(&v.to_le_bytes());
        }
        MemoryCopy => {
            out.push(0xfc);
            write_u32(out, 10);
            out.push(0x00);
            out.push(0x00);
        }
        MemoryFill => {
            out.push(0xfc);
            write_u32(out, 11);
            out.push(0x00);
        }
        simple => out.push(simple_opcode(simple)),
    }
}

/// Opcode byte for instructions without immediates.
///
/// # Panics
///
/// Panics if called with an instruction that has immediates (those are
/// handled directly in [`encode_instr`]).
#[allow(clippy::too_many_lines)]
fn simple_opcode(instr: &Instr) -> u8 {
    use Instr::*;
    match instr {
        I32Eqz => 0x45,
        I32Eq => 0x46,
        I32Ne => 0x47,
        I32LtS => 0x48,
        I32LtU => 0x49,
        I32GtS => 0x4a,
        I32GtU => 0x4b,
        I32LeS => 0x4c,
        I32LeU => 0x4d,
        I32GeS => 0x4e,
        I32GeU => 0x4f,
        I64Eqz => 0x50,
        I64Eq => 0x51,
        I64Ne => 0x52,
        I64LtS => 0x53,
        I64LtU => 0x54,
        I64GtS => 0x55,
        I64GtU => 0x56,
        I64LeS => 0x57,
        I64LeU => 0x58,
        I64GeS => 0x59,
        I64GeU => 0x5a,
        F32Eq => 0x5b,
        F32Ne => 0x5c,
        F32Lt => 0x5d,
        F32Gt => 0x5e,
        F32Le => 0x5f,
        F32Ge => 0x60,
        F64Eq => 0x61,
        F64Ne => 0x62,
        F64Lt => 0x63,
        F64Gt => 0x64,
        F64Le => 0x65,
        F64Ge => 0x66,
        I32Clz => 0x67,
        I32Ctz => 0x68,
        I32Popcnt => 0x69,
        I32Add => 0x6a,
        I32Sub => 0x6b,
        I32Mul => 0x6c,
        I32DivS => 0x6d,
        I32DivU => 0x6e,
        I32RemS => 0x6f,
        I32RemU => 0x70,
        I32And => 0x71,
        I32Or => 0x72,
        I32Xor => 0x73,
        I32Shl => 0x74,
        I32ShrS => 0x75,
        I32ShrU => 0x76,
        I32Rotl => 0x77,
        I32Rotr => 0x78,
        I64Clz => 0x79,
        I64Ctz => 0x7a,
        I64Popcnt => 0x7b,
        I64Add => 0x7c,
        I64Sub => 0x7d,
        I64Mul => 0x7e,
        I64DivS => 0x7f,
        I64DivU => 0x80,
        I64RemS => 0x81,
        I64RemU => 0x82,
        I64And => 0x83,
        I64Or => 0x84,
        I64Xor => 0x85,
        I64Shl => 0x86,
        I64ShrS => 0x87,
        I64ShrU => 0x88,
        I64Rotl => 0x89,
        I64Rotr => 0x8a,
        F32Abs => 0x8b,
        F32Neg => 0x8c,
        F32Ceil => 0x8d,
        F32Floor => 0x8e,
        F32Trunc => 0x8f,
        F32Nearest => 0x90,
        F32Sqrt => 0x91,
        F32Add => 0x92,
        F32Sub => 0x93,
        F32Mul => 0x94,
        F32Div => 0x95,
        F32Min => 0x96,
        F32Max => 0x97,
        F32Copysign => 0x98,
        F64Abs => 0x99,
        F64Neg => 0x9a,
        F64Ceil => 0x9b,
        F64Floor => 0x9c,
        F64Trunc => 0x9d,
        F64Nearest => 0x9e,
        F64Sqrt => 0x9f,
        F64Add => 0xa0,
        F64Sub => 0xa1,
        F64Mul => 0xa2,
        F64Div => 0xa3,
        F64Min => 0xa4,
        F64Max => 0xa5,
        F64Copysign => 0xa6,
        I32WrapI64 => 0xa7,
        I32TruncF32S => 0xa8,
        I32TruncF32U => 0xa9,
        I32TruncF64S => 0xaa,
        I32TruncF64U => 0xab,
        I64ExtendI32S => 0xac,
        I64ExtendI32U => 0xad,
        I64TruncF32S => 0xae,
        I64TruncF32U => 0xaf,
        I64TruncF64S => 0xb0,
        I64TruncF64U => 0xb1,
        F32ConvertI32S => 0xb2,
        F32ConvertI32U => 0xb3,
        F32ConvertI64S => 0xb4,
        F32ConvertI64U => 0xb5,
        F32DemoteF64 => 0xb6,
        F64ConvertI32S => 0xb7,
        F64ConvertI32U => 0xb8,
        F64ConvertI64S => 0xb9,
        F64ConvertI64U => 0xba,
        F64PromoteF32 => 0xbb,
        I32ReinterpretF32 => 0xbc,
        I64ReinterpretF64 => 0xbd,
        F32ReinterpretI32 => 0xbe,
        F64ReinterpretI64 => 0xbf,
        I32Extend8S => 0xc0,
        I32Extend16S => 0xc1,
        I64Extend8S => 0xc2,
        I64Extend16S => 0xc3,
        I64Extend32S => 0xc4,
        other => panic!("instruction {other:?} has immediates"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::module::{DataSegment, Export, FuncBody, FuncImport, Global};
    use crate::types::GlobalType;

    #[test]
    fn empty_module_roundtrip() {
        let m = Module::default();
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn full_module_roundtrip() {
        let mut m = Module::default();
        m.types
            .push(FuncType::new(&[ValType::I32], &[ValType::I64]));
        m.types.push(FuncType::new(&[], &[]));
        m.func_imports.push(FuncImport {
            module: "env".into(),
            name: "host".into(),
            type_idx: 1,
        });
        m.funcs.push(FuncBody {
            type_idx: 0,
            locals: vec![ValType::I32, ValType::I32, ValType::F64],
            code: vec![
                Instr::Block(BlockType::Value(ValType::I64)),
                Instr::LocalGet(0),
                Instr::I64ExtendI32S,
                Instr::End,
                Instr::End,
            ],
        });
        m.memories.push(Limits {
            min: 1,
            max: Some(16),
        });
        m.tables.push(Limits { min: 2, max: None });
        m.globals.push(Global {
            ty: GlobalType {
                val_type: ValType::I32,
                mutable: true,
            },
            init: Instr::I32Const(-7),
        });
        m.exports.push(Export {
            name: "f".into(),
            kind: ExportKind::Func,
            index: 1,
        });
        m.exports.push(Export {
            name: "memory".into(),
            kind: ExportKind::Memory,
            index: 0,
        });
        m.data.push(DataSegment {
            memory: 0,
            offset: Instr::I32Const(8),
            bytes: b"hello".to_vec(),
        });
        m.start = Some(1);
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn instr_with_all_control_roundtrip() {
        let mut m = Module::default();
        m.types
            .push(FuncType::new(&[ValType::I32], &[ValType::I32]));
        m.funcs.push(FuncBody {
            type_idx: 0,
            locals: vec![],
            code: vec![
                Instr::Loop(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::If(BlockType::Empty),
                Instr::Br(1),
                Instr::Else,
                Instr::Nop,
                Instr::End,
                Instr::LocalGet(0),
                Instr::BrTable {
                    targets: vec![0, 1],
                    default: 0,
                },
                Instr::End,
                Instr::LocalGet(0),
                Instr::End,
            ],
        });
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn float_consts_roundtrip_bitexact() {
        let mut m = Module::default();
        m.types.push(FuncType::new(&[], &[ValType::F64]));
        m.funcs.push(FuncBody {
            type_idx: 0,
            locals: vec![],
            code: vec![
                Instr::F32Const(1.5e-30),
                Instr::Drop,
                Instr::F64Const(-0.0),
                Instr::End,
            ],
        });
        let decoded = decode(&encode(&m)).unwrap();
        match (&decoded.funcs[0].code[0], &decoded.funcs[0].code[2]) {
            (Instr::F32Const(a), Instr::F64Const(b)) => {
                assert_eq!(a.to_bits(), 1.5e-30f32.to_bits());
                assert_eq!(b.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bulk_memory_roundtrip() {
        let mut m = Module::default();
        m.types.push(FuncType::new(&[], &[]));
        m.memories.push(Limits { min: 1, max: None });
        m.funcs.push(FuncBody {
            type_idx: 0,
            locals: vec![],
            code: vec![
                Instr::I32Const(0),
                Instr::I32Const(64),
                Instr::I32Const(16),
                Instr::MemoryCopy,
                Instr::I32Const(0),
                Instr::I32Const(0),
                Instr::I32Const(32),
                Instr::MemoryFill,
                Instr::End,
            ],
        });
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }
}
