//! Execution tests: semantics of the interpreter and AOT modes, traps,
//! host imports, and interp/AOT differential checks.

use watz_wasm::builder::ModuleBuilder;
use watz_wasm::exec::{ExecMode, HostEnv, Instance, Memory, NoHost, Trap, Value};
use watz_wasm::instr::{Instr, MemArg};
use watz_wasm::types::{BlockType, ValType};
use watz_wasm::Module;

fn build(f: impl FnOnce(&mut ModuleBuilder)) -> Module {
    let mut b = ModuleBuilder::new();
    f(&mut b);
    let bytes = b.build();
    watz_wasm::load(&bytes).expect("module must load")
}

/// Bit-exact value comparison (NaN == NaN when the bits match).
fn values_bit_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
            (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

/// Runs `name` on the register engine (behind the IR verifier, as every
/// register program is) and on the tree interpreter; both must agree bit
/// for bit, traps included.
fn run_both(module: &Module, name: &str, args: &[Value]) -> Result<Vec<Value>, Trap> {
    let mut aot = Instance::instantiate(module, ExecMode::Aot, &mut NoHost)?;
    let mut interp = Instance::instantiate(module, ExecMode::Interpreted, &mut NoHost)?;
    let r_aot = aot.invoke(&mut NoHost, name, args);
    let r_interp = interp.invoke(&mut NoHost, name, args);
    match (&r_aot, &r_interp) {
        (Ok(a), Ok(b)) => assert!(values_bit_eq(a, b), "mode divergence on '{name}'"),
        (a, b) => assert_eq!(a, b, "mode divergence on '{name}'"),
    }
    r_aot
}

#[test]
fn constant_function() {
    let m = build(|b| {
        let ty = b.add_type(&[], &[ValType::I32]);
        let f = b.add_func(ty, &[], vec![Instr::I32Const(42), Instr::End]);
        b.export_func("f", f);
    });
    assert_eq!(run_both(&m, "f", &[]).unwrap(), vec![Value::I32(42)]);
}

#[test]
fn arithmetic_expression() {
    // (a + b) * (a - b) over i64.
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I64, ValType::I64], &[ValType::I64]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I64Add,
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I64Sub,
                Instr::I64Mul,
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    assert_eq!(
        run_both(&m, "f", &[Value::I64(10), Value::I64(3)]).unwrap(),
        vec![Value::I64(91)]
    );
}

#[test]
fn loop_sums_to_n() {
    // for (i = 0, acc = 0; i < n; i++) acc += i; return acc.
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32, ValType::I32], // locals: i, acc
            vec![
                Instr::Block(BlockType::Empty),
                Instr::Loop(BlockType::Empty),
                // if i >= n break
                Instr::LocalGet(1),
                Instr::LocalGet(0),
                Instr::I32GeS,
                Instr::BrIf(1),
                // acc += i
                Instr::LocalGet(2),
                Instr::LocalGet(1),
                Instr::I32Add,
                Instr::LocalSet(2),
                // i += 1
                Instr::LocalGet(1),
                Instr::I32Const(1),
                Instr::I32Add,
                Instr::LocalSet(1),
                Instr::Br(0),
                Instr::End,
                Instr::End,
                Instr::LocalGet(2),
                Instr::End,
            ],
        );
        b.export_func("sum", f);
    });
    assert_eq!(
        run_both(&m, "sum", &[Value::I32(100)]).unwrap(),
        vec![Value::I32(4950)]
    );
    assert_eq!(
        run_both(&m, "sum", &[Value::I32(0)]).unwrap(),
        vec![Value::I32(0)]
    );
}

#[test]
fn recursive_fibonacci() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::I32Const(2),
                Instr::I32LtS,
                Instr::If(BlockType::Value(ValType::I32)),
                Instr::LocalGet(0),
                Instr::Else,
                Instr::LocalGet(0),
                Instr::I32Const(1),
                Instr::I32Sub,
                Instr::Call(0),
                Instr::LocalGet(0),
                Instr::I32Const(2),
                Instr::I32Sub,
                Instr::Call(0),
                Instr::I32Add,
                Instr::End,
                Instr::End,
            ],
        );
        b.export_func("fib", f);
    });
    assert_eq!(
        run_both(&m, "fib", &[Value::I32(15)]).unwrap(),
        vec![Value::I32(610)]
    );
}

#[test]
fn if_without_else() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32],
            vec![
                Instr::I32Const(10),
                Instr::LocalSet(1),
                Instr::LocalGet(0),
                Instr::If(BlockType::Empty),
                Instr::I32Const(20),
                Instr::LocalSet(1),
                Instr::End,
                Instr::LocalGet(1),
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    assert_eq!(
        run_both(&m, "f", &[Value::I32(1)]).unwrap(),
        vec![Value::I32(20)]
    );
    assert_eq!(
        run_both(&m, "f", &[Value::I32(0)]).unwrap(),
        vec![Value::I32(10)]
    );
}

#[test]
fn br_table_dispatch() {
    // switch(x) { case 0: 100; case 1: 200; default: 300 }
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32],
            vec![
                Instr::Block(BlockType::Empty),
                Instr::Block(BlockType::Empty),
                Instr::Block(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::BrTable {
                    targets: vec![0, 1],
                    default: 2,
                },
                Instr::End,
                Instr::I32Const(100),
                Instr::LocalSet(1),
                Instr::Br(1),
                Instr::End,
                Instr::I32Const(200),
                Instr::LocalSet(1),
                Instr::Br(0),
                Instr::End,
                Instr::LocalGet(1),
                Instr::If(BlockType::Empty),
                Instr::Else,
                Instr::I32Const(300),
                Instr::LocalSet(1),
                Instr::End,
                Instr::LocalGet(1),
                Instr::End,
            ],
        );
        b.export_func("switch", f);
    });
    assert_eq!(
        run_both(&m, "switch", &[Value::I32(0)]).unwrap(),
        vec![Value::I32(100)]
    );
    assert_eq!(
        run_both(&m, "switch", &[Value::I32(1)]).unwrap(),
        vec![Value::I32(200)]
    );
    assert_eq!(
        run_both(&m, "switch", &[Value::I32(9)]).unwrap(),
        vec![Value::I32(300)]
    );
}

#[test]
fn memory_load_store_roundtrip() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32, ValType::I64], &[ValType::I64]);
        b.add_memory(1, None);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I64Store(MemArg::align(3)),
                Instr::LocalGet(0),
                Instr::I64Load(MemArg::align(3)),
                Instr::End,
            ],
        );
        b.export_func("rt", f);
    });
    assert_eq!(
        run_both(&m, "rt", &[Value::I32(128), Value::I64(-12345678901234)]).unwrap(),
        vec![Value::I64(-12345678901234)]
    );
}

#[test]
fn narrow_loads_sign_and_zero_extend() {
    let m = build(|b| {
        b.add_memory(1, None);
        let ty = b.add_type(&[], &[ValType::I32, ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                // store 0xFF at address 0
                Instr::I32Const(0),
                Instr::I32Const(0xff),
                Instr::I32Store8(MemArg::align(0)),
                Instr::I32Const(0),
                Instr::I32Load8S(MemArg::align(0)),
                Instr::I32Const(0),
                Instr::I32Load8U(MemArg::align(0)),
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    assert_eq!(
        run_both(&m, "f", &[]).unwrap(),
        vec![Value::I32(-1), Value::I32(255)]
    );
}

#[test]
fn oob_load_traps() {
    let m = build(|b| {
        b.add_memory(1, Some(1));
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::I32Load(MemArg::align(2)),
                Instr::End,
            ],
        );
        b.export_func("peek", f);
    });
    assert_eq!(
        run_both(&m, "peek", &[Value::I32(65533)]),
        Err(Trap::MemoryOutOfBounds)
    );
    assert_eq!(
        run_both(&m, "peek", &[Value::I32(-4)]),
        Err(Trap::MemoryOutOfBounds)
    );
    // Last valid word.
    assert!(run_both(&m, "peek", &[Value::I32(65532)]).is_ok());
}

#[test]
fn division_traps() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I32DivS,
                Instr::End,
            ],
        );
        b.export_func("div", f);
    });
    assert_eq!(
        run_both(&m, "div", &[Value::I32(1), Value::I32(0)]),
        Err(Trap::DivisionByZero)
    );
    assert_eq!(
        run_both(&m, "div", &[Value::I32(i32::MIN), Value::I32(-1)]),
        Err(Trap::IntegerOverflow)
    );
    assert_eq!(
        run_both(&m, "div", &[Value::I32(-7), Value::I32(2)]).unwrap(),
        vec![Value::I32(-3)]
    );
}

#[test]
fn rem_min_by_minus_one_is_zero() {
    let m = build(|b| {
        let ty = b.add_type(&[], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::I32Const(i32::MIN),
                Instr::I32Const(-1),
                Instr::I32RemS,
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    assert_eq!(run_both(&m, "f", &[]).unwrap(), vec![Value::I32(0)]);
}

#[test]
fn unreachable_traps() {
    let m = build(|b| {
        let ty = b.add_type(&[], &[]);
        let f = b.add_func(ty, &[], vec![Instr::Unreachable, Instr::End]);
        b.export_func("boom", f);
    });
    assert_eq!(run_both(&m, "boom", &[]), Err(Trap::Unreachable));
}

#[test]
fn float_trunc_traps_on_nan_and_range() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::F64], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![Instr::LocalGet(0), Instr::I32TruncF64S, Instr::End],
        );
        b.export_func("t", f);
    });
    assert_eq!(
        run_both(&m, "t", &[Value::F64(f64::NAN)]),
        Err(Trap::BadConversion)
    );
    assert_eq!(
        run_both(&m, "t", &[Value::F64(3e10)]),
        Err(Trap::IntegerOverflow)
    );
    assert_eq!(
        run_both(&m, "t", &[Value::F64(f64::NEG_INFINITY)]),
        Err(Trap::IntegerOverflow)
    );
    assert_eq!(
        run_both(&m, "t", &[Value::F64(-3.99)]).unwrap(),
        vec![Value::I32(-3)]
    );
}

#[test]
fn float_min_max_nan_semantics() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::F64, ValType::F64], &[ValType::F64]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::F64Min,
                Instr::End,
            ],
        );
        b.export_func("min", f);
    });
    let r = run_both(&m, "min", &[Value::F64(1.0), Value::F64(f64::NAN)]).unwrap();
    match r[0] {
        Value::F64(v) => assert!(v.is_nan()),
        _ => panic!("expected f64"),
    }
    // min(-0.0, 0.0) == -0.0
    let r = run_both(&m, "min", &[Value::F64(-0.0), Value::F64(0.0)]).unwrap();
    match r[0] {
        Value::F64(v) => assert!(v.is_sign_negative() && v == 0.0),
        _ => panic!("expected f64"),
    }
}

#[test]
fn call_indirect_dispatch() {
    let m = build(|b| {
        let ty_i2i = b.add_type(&[ValType::I32], &[ValType::I32]);
        let ty_sel = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let double = b.add_func(
            ty_i2i,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::I32Const(2),
                Instr::I32Mul,
                Instr::End,
            ],
        );
        let square = b.add_func(
            ty_i2i,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(0),
                Instr::I32Mul,
                Instr::End,
            ],
        );
        let dispatch = b.add_func(
            ty_sel,
            &[],
            vec![
                Instr::LocalGet(1), // argument
                Instr::LocalGet(0), // table index
                Instr::CallIndirect {
                    type_idx: ty_i2i,
                    table: 0,
                },
                Instr::End,
            ],
        );
        b.add_table(4, Some(4));
        b.add_elems(0, &[double, square]);
        b.export_func("dispatch", dispatch);
    });
    assert_eq!(
        run_both(&m, "dispatch", &[Value::I32(0), Value::I32(21)]).unwrap(),
        vec![Value::I32(42)]
    );
    assert_eq!(
        run_both(&m, "dispatch", &[Value::I32(1), Value::I32(7)]).unwrap(),
        vec![Value::I32(49)]
    );
    // Null slot.
    assert_eq!(
        run_both(&m, "dispatch", &[Value::I32(3), Value::I32(7)]),
        Err(Trap::UndefinedTableElement)
    );
    // Out of table bounds.
    assert_eq!(
        run_both(&m, "dispatch", &[Value::I32(100), Value::I32(7)]),
        Err(Trap::TableOutOfBounds)
    );
}

#[test]
fn call_indirect_type_mismatch() {
    let m = build(|b| {
        let ty_v = b.add_type(&[], &[]);
        let ty_i = b.add_type(&[], &[ValType::I32]);
        let nothing = b.add_func(ty_v, &[], vec![Instr::End]);
        let call = b.add_func(
            ty_i,
            &[],
            vec![
                Instr::I32Const(0),
                Instr::CallIndirect {
                    type_idx: ty_i,
                    table: 0,
                },
                Instr::End,
            ],
        );
        b.add_table(1, Some(1));
        b.add_elems(0, &[nothing]);
        b.export_func("call", call);
    });
    assert_eq!(run_both(&m, "call", &[]), Err(Trap::IndirectTypeMismatch));
}

#[test]
fn infinite_recursion_exhausts_stack() {
    let m = build(|b| {
        let ty = b.add_type(&[], &[]);
        let f = b.add_func(ty, &[], vec![Instr::Call(0), Instr::End]);
        b.export_func("loop", f);
    });
    assert_eq!(run_both(&m, "loop", &[]), Err(Trap::CallStackExhausted));
}

#[test]
fn memory_grow_and_size() {
    let m = build(|b| {
        b.add_memory(1, Some(3));
        let ty = b.add_type(&[], &[ValType::I32, ValType::I32, ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::MemorySize, // 1
                Instr::I32Const(1),
                Instr::MemoryGrow, // returns old size 1
                Instr::I32Const(5),
                Instr::MemoryGrow, // exceeds max -> -1
                Instr::End,
            ],
        );
        b.export_func("grow", f);
    });
    assert_eq!(
        run_both(&m, "grow", &[]).unwrap(),
        vec![Value::I32(1), Value::I32(1), Value::I32(-1)]
    );
}

#[test]
fn bulk_memory_ops() {
    let m = build(|b| {
        b.add_memory(1, None);
        b.add_data(0, b"0123456789");
        let ty = b.add_type(&[], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                // copy "0123456789" to offset 100
                Instr::I32Const(100),
                Instr::I32Const(0),
                Instr::I32Const(10),
                Instr::MemoryCopy,
                // fill offset 100..105 with 'x'
                Instr::I32Const(100),
                Instr::I32Const(i32::from(b'x')),
                Instr::I32Const(5),
                Instr::MemoryFill,
                // read byte at 105 (should be '5')
                Instr::I32Const(105),
                Instr::I32Load8U(MemArg::align(0)),
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    assert_eq!(
        run_both(&m, "f", &[]).unwrap(),
        vec![Value::I32(i32::from(b'5'))]
    );
}

#[test]
fn globals_mutate() {
    let m = build(|b| {
        b.add_global(ValType::I64, true, Instr::I64Const(5));
        let ty = b.add_type(&[], &[ValType::I64]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::GlobalGet(0),
                Instr::I64Const(10),
                Instr::I64Mul,
                Instr::GlobalSet(0),
                Instr::GlobalGet(0),
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    let mut inst = Instance::instantiate(&m, ExecMode::Aot, &mut NoHost).unwrap();
    assert_eq!(
        inst.invoke(&mut NoHost, "f", &[]).unwrap(),
        vec![Value::I64(50)]
    );
    // Second call sees the mutated global.
    assert_eq!(
        inst.invoke(&mut NoHost, "f", &[]).unwrap(),
        vec![Value::I64(500)]
    );
}

#[test]
fn start_function_runs_at_instantiation() {
    let m = build(|b| {
        b.add_global(ValType::I32, true, Instr::I32Const(0));
        let ty_v = b.add_type(&[], &[]);
        let ty_i = b.add_type(&[], &[ValType::I32]);
        let start = b.add_func(
            ty_v,
            &[],
            vec![Instr::I32Const(99), Instr::GlobalSet(0), Instr::End],
        );
        let get = b.add_func(ty_i, &[], vec![Instr::GlobalGet(0), Instr::End]);
        b.set_start(start);
        b.export_func("get", get);
    });
    let mut inst = Instance::instantiate(&m, ExecMode::Aot, &mut NoHost).unwrap();
    assert_eq!(
        inst.invoke(&mut NoHost, "get", &[]).unwrap(),
        vec![Value::I32(99)]
    );
}

/// Host environment recording calls and returning canned values.
struct Recorder {
    log: Vec<(String, Vec<Value>)>,
}

impl HostEnv for Recorder {
    fn call(
        &mut self,
        module: &str,
        name: &str,
        memory: &mut Memory,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        self.log.push((format!("{module}.{name}"), args.to_vec()));
        match name {
            "magic" => Ok(vec![Value::I32(1234)]),
            "poke" => {
                memory.write_bytes(args[0].as_u32(), b"host was here")?;
                Ok(vec![])
            }
            _ => Err(Trap::Host(format!("unknown host fn {name}"))),
        }
    }
}

#[test]
fn host_import_called_with_args() {
    let m = build(|b| {
        let ty_magic = b.add_type(&[], &[ValType::I32]);
        let ty_main = b.add_type(&[], &[ValType::I32]);
        let magic = b.import_func("env", "magic", ty_magic);
        let f = b.add_func(ty_main, &[], vec![Instr::Call(magic), Instr::End]);
        b.export_func("main", f);
    });
    let mut host = Recorder { log: vec![] };
    let mut inst = Instance::instantiate(&m, ExecMode::Aot, &mut host).unwrap();
    let out = inst.invoke(&mut host, "main", &[]).unwrap();
    assert_eq!(out, vec![Value::I32(1234)]);
    assert_eq!(host.log.len(), 1);
    assert_eq!(host.log[0].0, "env.magic");
}

#[test]
fn host_import_writes_guest_memory() {
    let m = build(|b| {
        let ty_poke = b.add_type(&[ValType::I32], &[]);
        let ty_main = b.add_type(&[], &[ValType::I32]);
        let poke = b.import_func("env", "poke", ty_poke);
        b.add_memory(1, None);
        let f = b.add_func(
            ty_main,
            &[],
            vec![
                Instr::I32Const(64),
                Instr::Call(poke),
                Instr::I32Const(64),
                Instr::I32Load8U(MemArg::align(0)),
                Instr::End,
            ],
        );
        b.export_func("main", f);
    });
    let mut host = Recorder { log: vec![] };
    let mut inst = Instance::instantiate(&m, ExecMode::Aot, &mut host).unwrap();
    let out = inst.invoke(&mut host, "main", &[]).unwrap();
    assert_eq!(out, vec![Value::I32(i32::from(b'h'))]);
}

#[test]
fn unresolved_import_traps() {
    let m = build(|b| {
        let ty = b.add_type(&[], &[]);
        let imp = b.import_func("env", "missing", ty);
        let f = b.add_func(ty, &[], vec![Instr::Call(imp), Instr::End]);
        b.export_func("main", f);
    });
    let mut inst = Instance::instantiate(&m, ExecMode::Aot, &mut NoHost).unwrap();
    assert!(matches!(
        inst.invoke(&mut NoHost, "main", &[]),
        Err(Trap::UnresolvedImport { .. })
    ));
}

#[test]
fn invoke_argument_validation() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(ty, &[], vec![Instr::LocalGet(0), Instr::End]);
        b.export_func("id", f);
    });
    let mut inst = Instance::instantiate(&m, ExecMode::Aot, &mut NoHost).unwrap();
    assert!(inst.invoke(&mut NoHost, "id", &[]).is_err());
    assert!(inst.invoke(&mut NoHost, "id", &[Value::I64(3)]).is_err());
    assert!(inst.invoke(&mut NoHost, "nope", &[]).is_err());
    assert!(inst.invoke(&mut NoHost, "id", &[Value::I32(3)]).is_ok());
}

#[test]
fn nested_blocks_with_values() {
    // block (result i32) { 1 + block (result i32) { 2 + block { br 1 } ... } }
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::Block(BlockType::Value(ValType::I32)),
                Instr::LocalGet(0),
                Instr::If(BlockType::Value(ValType::I32)),
                Instr::I32Const(11),
                Instr::Br(1), // carries 11 out of the outer block
                Instr::Else,
                Instr::I32Const(22),
                Instr::End,
                Instr::I32Const(100),
                Instr::I32Add,
                Instr::End,
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    assert_eq!(
        run_both(&m, "f", &[Value::I32(1)]).unwrap(),
        vec![Value::I32(11)]
    );
    assert_eq!(
        run_both(&m, "f", &[Value::I32(0)]).unwrap(),
        vec![Value::I32(122)]
    );
}

#[test]
fn select_picks_correctly() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::F64]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::F64Const(1.25),
                Instr::F64Const(-9.5),
                Instr::LocalGet(0),
                Instr::Select,
                Instr::End,
            ],
        );
        b.export_func("sel", f);
    });
    assert_eq!(
        run_both(&m, "sel", &[Value::I32(1)]).unwrap(),
        vec![Value::F64(1.25)]
    );
    assert_eq!(
        run_both(&m, "sel", &[Value::I32(0)]).unwrap(),
        vec![Value::F64(-9.5)]
    );
}

#[test]
fn shift_masking() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I32Shl,
                Instr::End,
            ],
        );
        b.export_func("shl", f);
    });
    // Shift amounts are taken mod 32.
    assert_eq!(
        run_both(&m, "shl", &[Value::I32(1), Value::I32(33)]).unwrap(),
        vec![Value::I32(2)]
    );
}

#[test]
fn sign_extension_ops() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![Instr::LocalGet(0), Instr::I32Extend8S, Instr::End],
        );
        b.export_func("ext8", f);
    });
    assert_eq!(
        run_both(&m, "ext8", &[Value::I32(0x80)]).unwrap(),
        vec![Value::I32(-128)]
    );
    assert_eq!(
        run_both(&m, "ext8", &[Value::I32(0x7f)]).unwrap(),
        vec![Value::I32(127)]
    );
}

#[test]
fn reinterpret_bit_patterns() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::F64], &[ValType::I64]);
        let f = b.add_func(
            ty,
            &[],
            vec![Instr::LocalGet(0), Instr::I64ReinterpretF64, Instr::End],
        );
        b.export_func("bits", f);
    });
    assert_eq!(
        run_both(&m, "bits", &[Value::F64(1.0)]).unwrap(),
        vec![Value::I64(0x3ff0000000000000)]
    );
}

#[test]
fn multi_return_function() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32, ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::I32Const(1),
                Instr::I32Add,
                Instr::LocalGet(0),
                Instr::I32Const(1),
                Instr::I32Sub,
                Instr::End,
            ],
        );
        b.export_func("pm", f);
    });
    assert_eq!(
        run_both(&m, "pm", &[Value::I32(10)]).unwrap(),
        vec![Value::I32(11), Value::I32(9)]
    );
}

#[test]
fn early_return_from_nested_control() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::Block(BlockType::Empty),
                Instr::Loop(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::If(BlockType::Empty),
                Instr::I32Const(77),
                Instr::Return,
                Instr::End,
                Instr::Br(1),
                Instr::End,
                Instr::End,
                Instr::I32Const(-1),
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    assert_eq!(
        run_both(&m, "f", &[Value::I32(1)]).unwrap(),
        vec![Value::I32(77)]
    );
}

#[test]
fn data_segments_initialize_memory() {
    let m = build(|b| {
        b.add_memory(1, None);
        b.add_data(16, b"\x2a\x00\x00\x00");
        let ty = b.add_type(&[], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::I32Const(16),
                Instr::I32Load(MemArg::align(2)),
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    assert_eq!(run_both(&m, "f", &[]).unwrap(), vec![Value::I32(42)]);
}

#[test]
fn oob_data_segment_fails_instantiation() {
    let m = build(|b| {
        b.add_memory(1, Some(1));
        b.add_data(65534, b"overruns");
        let ty = b.add_type(&[], &[]);
        let f = b.add_func(ty, &[], vec![Instr::End]);
        b.export_func("f", f);
    });
    assert!(matches!(
        Instance::instantiate(&m, ExecMode::Aot, &mut NoHost),
        Err(Trap::Instantiation(_))
    ));
}

#[test]
fn rotate_ops() {
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I32Rotl,
                Instr::End,
            ],
        );
        b.export_func("rotl", f);
    });
    assert_eq!(
        run_both(
            &m,
            "rotl",
            &[Value::I32(0x8000_0001u32 as i32), Value::I32(1)]
        )
        .unwrap(),
        vec![Value::I32(3)]
    );
}

#[test]
fn loop_with_result_via_block_param_style() {
    // A loop that accumulates and exits with br_if carrying a block value.
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32],
            vec![
                Instr::Block(BlockType::Value(ValType::I32)),
                Instr::Loop(BlockType::Empty),
                Instr::LocalGet(1),
                Instr::I32Const(2),
                Instr::I32Add,
                Instr::LocalTee(1),
                Instr::LocalGet(0),
                Instr::I32GeS,
                Instr::If(BlockType::Empty),
                Instr::LocalGet(1),
                Instr::Br(2),
                Instr::End,
                Instr::Br(0),
                Instr::End,
                Instr::Unreachable,
                Instr::End,
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    assert_eq!(
        run_both(&m, "f", &[Value::I32(7)]).unwrap(),
        vec![Value::I32(8)]
    );
}

// ---- the register engine's per-thread frame stack ------------------------

/// `fill(x)` writes `x` to its 64 declared locals and to 16 operand slots,
/// leaving them on this thread's frame stack.
fn filling_module() -> Module {
    build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let mut code = Vec::new();
        for l in 1..=64 {
            code.extend([Instr::LocalGet(0), Instr::LocalSet(l)]);
        }
        for _ in 0..16 {
            code.extend([Instr::LocalGet(0), Instr::I32Const(1), Instr::I32Add]);
        }
        code.extend(std::iter::repeat_n(Instr::I32Add, 15));
        code.push(Instr::End);
        let f = b.add_func(ty, &[ValType::I32; 64], code);
        b.export_func("fill", f);
    })
}

#[test]
fn locals_read_before_written_are_zero_after_another_instance_filled_the_stack() {
    // `fresh()` sums its 65 declared locals without writing one: every
    // invoke zeroes the entry's locals, whatever an earlier invoke of
    // another instance left in the same slots of this thread's stack.
    let fresh = build(|b| {
        let ty = b.add_type(&[], &[ValType::I32]);
        let mut code = vec![Instr::LocalGet(0)];
        for l in 1..65 {
            code.extend([Instr::LocalGet(l), Instr::I32Add]);
        }
        code.push(Instr::End);
        let f = b.add_func(ty, &[ValType::I32; 65], code);
        b.export_func("fresh", f);
    });
    let filling = filling_module();
    for mode in [ExecMode::Aot, ExecMode::Interpreted] {
        let mut a = Instance::instantiate(&filling, mode, &mut NoHost).unwrap();
        let mut b = Instance::instantiate(&fresh, mode, &mut NoHost).unwrap();
        for x in [-1, 0x5a5a_5a5a] {
            assert_eq!(
                a.invoke(&mut NoHost, "fill", &[Value::I32(x)]),
                Ok(vec![Value::I32(x.wrapping_add(1).wrapping_mul(16))]),
                "{mode:?}"
            );
            assert_eq!(
                b.invoke(&mut NoHost, "fresh", &[]),
                Ok(vec![Value::I32(0)]),
                "{mode:?}: a stale slot read as a local"
            );
        }
    }
}

/// A host whose `env.nested` import invokes another instance's `inner`.
struct Nested {
    inner: Instance,
}

impl HostEnv for Nested {
    fn call(
        &mut self,
        _module: &str,
        _name: &str,
        _memory: &mut Memory,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        self.inner.invoke(&mut NoHost, "inner", args)
    }
}

#[test]
fn a_host_import_that_invokes_another_instance_mid_call() {
    // `outer(x)` keeps `3x` and `x + 5` in locals and `3x` on its operand
    // stack across the import, which runs `inner(x) = 7x + 100` of a
    // second instance, through 32 locals of its own, on the same thread.
    // The nested invoke runs on a frame stack of its own: had it shared
    // the outer one, its frame would overwrite the outer frame's slots.
    let inner = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let mut code = Vec::new();
        for l in 1..=32 {
            code.extend([Instr::LocalGet(0), Instr::I32Const(l), Instr::I32Add]);
            code.push(Instr::LocalSet(l as u32));
        }
        code.extend([
            Instr::LocalGet(0),
            Instr::I32Const(7),
            Instr::I32Mul,
            Instr::I32Const(100),
            Instr::I32Add,
            Instr::End,
        ]);
        let f = b.add_func(ty, &[ValType::I32; 32], code);
        b.export_func("inner", f);
    });
    let outer = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let nested = b.import_func("env", "nested", ty);
        let f = b.add_func(
            ty,
            &[ValType::I32, ValType::I32],
            vec![
                Instr::LocalGet(0),
                Instr::I32Const(3),
                Instr::I32Mul,
                Instr::LocalSet(1),
                Instr::LocalGet(0),
                Instr::I32Const(5),
                Instr::I32Add,
                Instr::LocalSet(2),
                Instr::LocalGet(1),
                Instr::LocalGet(0),
                Instr::Call(nested),
                Instr::I32Add,
                Instr::LocalGet(2),
                Instr::I32Add,
                Instr::End,
            ],
        );
        b.export_func("outer", f);
    });
    for mode in [ExecMode::Aot, ExecMode::Interpreted] {
        let mut host = Nested {
            inner: Instance::instantiate(&inner, mode, &mut NoHost).unwrap(),
        };
        let mut inst = Instance::instantiate(&outer, mode, &mut host).unwrap();
        for x in [0, 9, -4] {
            assert_eq!(
                inst.invoke(&mut host, "outer", &[Value::I32(x)]),
                Ok(vec![Value::I32(11 * x + 105)]),
                "{mode:?}: outer({x})"
            );
            // Each instance still runs on its own afterwards.
            assert_eq!(
                host.inner.invoke(&mut NoHost, "inner", &[Value::I32(x)]),
                Ok(vec![Value::I32(7 * x + 100)]),
                "{mode:?}: inner({x})"
            );
        }
    }
}

#[test]
fn deep_recursion_over_large_frames_grows_the_stack_then_exhausts_it() {
    // `f(n) = n == 0 ? 0 : f(n - 1) + 1` over 2000 declared locals: 150
    // calls deep, the frames span more than the two windows a thread's
    // stack starts with, so it grows mid-call; unbounded, the recursion
    // traps at the call-depth limit on both executors.
    let m = build(|b| {
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32; 2000],
            vec![
                Instr::LocalGet(0),
                Instr::I32Eqz,
                Instr::If(BlockType::Value(ValType::I32)),
                Instr::LocalGet(2000),
                Instr::Else,
                Instr::LocalGet(0),
                Instr::I32Const(1),
                Instr::I32Sub,
                Instr::Call(0),
                Instr::I32Const(1),
                Instr::I32Add,
                Instr::End,
                Instr::End,
            ],
        );
        b.export_func("f", f);
    });
    assert_eq!(
        run_both(&m, "f", &[Value::I32(150)]),
        Ok(vec![Value::I32(150)])
    );
    assert_eq!(
        run_both(&m, "f", &[Value::I32(-1)]),
        Err(Trap::CallStackExhausted)
    );
}
