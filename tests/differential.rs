//! Differential testing of the two executors: for every PolyBench kernel
//! in the suite — and for two corpora of randomized MiniC kernels — the
//! tree-walking interpreter (`ExecMode::Interpreted`, the oracle) and the
//! register engine must agree bit-for-bit, fused and unfused, with
//! counting off and on; traps must
//! be reported identically and both must retire the same instruction
//! count. The last test is the same property across launches: a relaunch
//! from the runtime's resident artifact is the first launch again, and so
//! is a second instance of one artifact under every engine configuration.

use std::sync::Arc;

use watz::runtime::{AppConfig, WatzRuntime};
use watz::wasm::exec::{ExecMode, Instance, NoHost, Value};
use watz::wasm::{Artifact, EngineConfig, ProfileMode};

const N: i32 = 12;

/// Every register-engine configuration a case runs under: fused/unfused ×
/// counting off/on, each behind the IR verifier as a hard instantiation
/// gate.
fn engine_matrix() -> Vec<(String, EngineConfig)> {
    let mut out = Vec::new();
    for fuse in [true, false] {
        for profile in [ProfileMode::Off, ProfileMode::Count] {
            let cfg = EngineConfig {
                fuse,
                verify: true,
                profile,
            };
            out.push((format!("{cfg:?}"), cfg));
        }
    }
    out
}

/// Runs an export on the oracle plus the register engine in every
/// [`engine_matrix`] configuration, returning `(label, outcome)` pairs
/// (trap text on failure, so both results and traps participate in the
/// parity assertion).
///
/// Counting runs also assert the retired-guest-instruction invariant:
/// both executors must retire the same instret for the same input —
/// including on traps, where the count runs up to and including the
/// trapping instruction.
fn run_matrix(
    module: &watz::wasm::Module,
    name: &str,
    args: &[Value],
) -> Vec<(String, Result<Vec<Value>, String>)> {
    let run = |inst: &mut Instance| {
        inst.invoke(&mut NoHost, name, args)
            .map_err(|e| e.to_string())
    };
    let mut interp = Instance::instantiate(module, ExecMode::Interpreted, &mut NoHost).unwrap();
    let mut out = vec![("oracle".to_string(), run(&mut interp))];
    let counting = EngineConfig {
        profile: ProfileMode::Count,
        ..EngineConfig::default()
    };
    let mut counted =
        Instance::instantiate_with(module, ExecMode::Interpreted, counting, &mut NoHost).unwrap();
    assert_eq!(
        out[0].1,
        run(&mut counted),
        "oracle diverges with profiling on"
    );
    let oracle = *counted.profile().expect("counting instance profiles");
    assert_eq!(
        oracle.traps,
        u64::from(out[0].1.is_err()),
        "oracle trap count"
    );
    for (label, cfg) in engine_matrix() {
        let mut inst = Instance::instantiate_with(module, ExecMode::Aot, cfg, &mut NoHost)
            .unwrap_or_else(|e| panic!("{label}: IR verification rejected a lowered module: {e}"));
        assert!(
            inst.reg_stats().is_some(),
            "{label}: fell back to the interpreter"
        );
        let vs = inst.verify_stats().expect("verification ran");
        assert!(vs.funcs > 0, "{label}: nothing verified");
        let outcome = run(&mut inst);
        if let Some(p) = inst.profile() {
            assert_eq!(p.traps, u64::from(outcome.is_err()), "{label} trap count");
            assert_eq!(
                p.instret, oracle.instret,
                "instret parity broken: oracle retired {} but {label} retired {}",
                oracle.instret, p.instret
            );
        }
        out.push((label, outcome));
    }
    out
}

#[test]
fn all_polybench_kernels_agree_across_engines() {
    for kernel in watz::bench_workloads::polybench::suite() {
        let wasm = watz::compiler::compile(kernel.minic)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e:?}", kernel.name));
        let module = watz::wasm::load(&wasm).unwrap();
        let outcomes = run_matrix(&module, "kernel", &[Value::I32(N)]);
        let oracle = outcomes[0]
            .1
            .as_ref()
            .unwrap_or_else(|e| panic!("{} trapped on the oracle: {e}", kernel.name));
        for (label, outcome) in &outcomes[1..] {
            assert_eq!(
                Ok(oracle),
                outcome.as_ref(),
                "kernel {} diverges between oracle and {label} engine",
                kernel.name
            );
        }
        // Every engine must also produce a finite checksum.
        match oracle[0] {
            Value::F64(v) => assert!(v.is_finite(), "kernel {} non-finite", kernel.name),
            ref other => panic!("kernel {} returned {other:?}", kernel.name),
        }
    }
}

#[test]
fn every_corpus_module_gets_a_register_program() {
    // `Aot` refuses a frame past the u16 slot encoding; no module of any
    // benchmark or test corpus may come near it.
    let mut corpus: Vec<(String, String)> = watz::bench_workloads::polybench::suite()
        .into_iter()
        .map(|k| (k.name.to_string(), k.minic.to_string()))
        .collect();
    corpus.push((
        "minisql".into(),
        watz::bench_workloads::speedtest::MINISQL_GUEST.into(),
    ));
    corpus.push((
        "genann".into(),
        watz::bench_workloads::genann_guest::source(),
    ));
    let mut rng = XorShift(0x5eed_cafe_f00d_d00d);
    for case in 0..40 {
        corpus.push((format!("random {case}"), gen_kernel(&mut rng)));
    }
    let mut rng = XorShift(0xf05e_d00d_5eed_0001);
    for case in 0..24 {
        corpus.push((format!("fusable {case}"), gen_fusable_kernel(&mut rng)));
    }
    for (name, src) in corpus {
        let wasm = watz::compiler::compile(&src)
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e:?}"));
        let module = watz::wasm::load(&wasm).unwrap();
        let inst = Instance::instantiate_with(
            &module,
            ExecMode::Aot,
            EngineConfig::default(),
            &mut NoHost,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            inst.reg_stats().is_some(),
            "{name} fell back to the interpreter"
        );
    }
}

#[test]
fn trap_parity_across_exec_modes() {
    // A guest that traps (integer division by zero) must fail identically
    // in both modes: same Err, same trap message.
    let rt = WatzRuntime::new_device(b"trap-parity").unwrap();
    let wasm = watz::compiler::compile("int div(int a, int b) { return a / b; }").unwrap();
    let mut errors = Vec::new();
    for mode in [ExecMode::Aot, ExecMode::Interpreted] {
        let mut app = rt
            .load(
                &wasm,
                &AppConfig {
                    heap_bytes: 4 << 20,
                    mode,
                },
            )
            .unwrap();
        // Sanity: the same guest succeeds on well-defined input...
        assert_eq!(
            app.invoke("div", &[Value::I32(6), Value::I32(3)]).unwrap(),
            vec![Value::I32(2)]
        );
        // ...and traps on division by zero.
        let err = app
            .invoke("div", &[Value::I32(1), Value::I32(0)])
            .expect_err("division by zero must trap");
        errors.push(format!("{err}"));
    }
    assert_eq!(errors[0], errors[1], "trap reports differ between modes");
    assert!(
        errors[0].contains("division by zero"),
        "unexpected trap: {}",
        errors[0]
    );
}

// ---------------------------------------------------------------------------
// Randomized-kernel property test: a deterministic xorshift64 generator
// emits MiniC programs (arithmetic, bitwise ops, shifts, comparisons,
// if/else, bounded loops, including trap-prone division/remainder), each
// compiled once and executed in both modes. The tree interpreter is the
// oracle: the register engine must produce identical results AND
// identical traps for every program.
// ---------------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emits a random integer expression over variables `v0..v{nv}` and the
/// loop counters visible at `loop_depth`.
fn gen_expr(rng: &mut XorShift, depth: usize, nv: usize, loop_depth: usize) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => format!("v{}", rng.below(nv as u64)),
            1 if loop_depth > 0 => format!("l{}", rng.below(loop_depth as u64)),
            _ => format!("{}", rng.below(64) as i64 - 16),
        };
    }
    let ops = [
        "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "<", "<=", ">", ">=", "==", "!=",
    ];
    let op = ops[rng.below(ops.len() as u64) as usize];
    let lhs = gen_expr(rng, depth - 1, nv, loop_depth);
    let rhs = gen_expr(rng, depth - 1, nv, loop_depth);
    format!("({lhs} {op} {rhs})")
}

/// Emits a random statement (assignment, if/else, or a bounded for loop
/// driven by a reserved counter the body never writes).
fn gen_stmt(rng: &mut XorShift, depth: usize, nv: usize, loop_depth: usize, out: &mut String) {
    match rng.below(if depth == 0 { 1 } else { 4 }) {
        0 => {
            let v = rng.below(nv as u64);
            let d = 2 + rng.below(2) as usize;
            let e = gen_expr(rng, d, nv, loop_depth);
            out.push_str(&format!("v{v} = {e};\n"));
        }
        1 => {
            let c = gen_expr(rng, 2, nv, loop_depth);
            out.push_str(&format!("if ({c}) {{\n"));
            gen_stmt(rng, depth - 1, nv, loop_depth, out);
            if rng.below(2) == 0 {
                out.push_str("} else {\n");
                gen_stmt(rng, depth - 1, nv, loop_depth, out);
            }
            out.push_str("}\n");
        }
        _ if loop_depth < 2 => {
            let bound = 1 + rng.below(6);
            let l = loop_depth;
            out.push_str(&format!(
                "for (l{l} = 0; l{l} < {bound}; l{l} = l{l} + 1) {{\n"
            ));
            gen_stmt(rng, depth - 1, nv, loop_depth + 1, out);
            gen_stmt(rng, depth - 1, nv, loop_depth + 1, out);
            out.push_str("}\n");
        }
        _ => {
            let v = rng.below(nv as u64);
            let e = gen_expr(rng, 2, nv, loop_depth);
            out.push_str(&format!("v{v} = v{v} + {e};\n"));
        }
    }
}

fn gen_kernel(rng: &mut XorShift) -> String {
    let nv = 4;
    let mut src = String::from("int kernel(int a, int b) {\n");
    src.push_str("int v0 = a; int v1 = b;\n");
    src.push_str(&format!(
        "int v2 = {}; int v3 = {};\n",
        rng.below(100) as i64 - 50,
        rng.below(100)
    ));
    src.push_str("int l0 = 0; int l1 = 0;\n");
    let n_stmts = 3 + rng.below(5);
    for _ in 0..n_stmts {
        gen_stmt(rng, 2, nv, 0, &mut src);
    }
    src.push_str("return ((v0 ^ v1) + (v2 * 31)) ^ v3;\n}\n");
    src
}

// ---------------------------------------------------------------------------
// Fusable-shape corpus: generators biased toward the exact adjacent-op
// shapes the register pass's fusion rules join — tight local arithmetic
// loops, 1-D and 2-D array load/compute/store kernels, pointer derefs and
// truthy while-loops. Every program runs on the oracle and the register
// engine, fused and unfused (results + traps must be identical), and the
// aggregated `FusionStats` must show every rule applied at least once
// across the corpus.
// ---------------------------------------------------------------------------

/// Emits one kernel covering every fusion rule, with randomized
/// constants, operators and filler statements for variety.
fn gen_fusable_kernel(rng: &mut XorShift) -> String {
    let ops = ["+", "-", "*", "&", "|", "^"];
    let pick = |rng: &mut XorShift| ops[rng.below(ops.len() as u64) as usize];
    let (o1, o2, o3, o4) = (pick(rng), pick(rng), pick(rng), pick(rng));
    let k1 = rng.below(31) as i64 + 1;
    let k2 = rng.below(15) as i64 + 1;
    let bound = 8 + rng.below(9);
    let mut src = format!(
        "int kernel(int a, int b) {{\n\
         int n = {bound};\n\
         int* A = (int*)alloc(n * 4);\n\
         int* B = (int*)alloc(n * 4);\n\
         int v0 = a; int v1 = b;\n\
         int v2 = {}; int v3 = {};\n\
         int i = 0; int j = 0; int t = 0;\n",
        rng.below(100) as i64 - 50,
        rng.below(100) as i64 + 1,
    );
    // Array store of a plain local (forwarded, no rule), binop_set loop
    // step with the constant inline, an i32 sum stored (no rule: the store
    // sink takes only an f64 sum).
    src.push_str("for (i = 0; i < n; i = i + 1) { A[i] = v0; B[i] = v1 + i; }\n");
    // binop_store: the `D[i] = D[i] + x` f64 accumulation, read back.
    src.push_str("double* D = (double*)alloc(n * 8);\n");
    src.push_str("for (i = 0; i < n; i = i + 1) { D[i] = (double)(i & 7); }\n");
    src.push_str("for (i = 0; i < n; i = i + 1) { D[i] = D[i] + D[(i + 1) & (n - 1)]; }\n");
    src.push_str("v2 = v2 + (int)D[v3 & (n - 1)];\n");
    // idx_load (1-D tail), cmp_br (loop exits), stack-left operands.
    src.push_str(&format!(
        "for (i = 0; i < n; i = i + 1) {{ A[i] = A[i] {o1} B[i]; v0 = v0 {o2} A[(i + j) & (n - 1)]; }}\n"
    ));
    // 2-D row-column addressing: idx_addr + idx_load on both sides.
    src.push_str(&format!(
        "for (i = 0; i < 4; i = i + 1) {{\n\
         for (j = 0; j < 4; j = j + 1) {{\n\
         A[(i * 4 + j) & (n - 1)] = A[(i * 4 + j) & (n - 1)] {o3} v1;\n\
         }}\n}}\n"
    ));
    // The row rules over a runtime width: a 2-D f64 grid read through
    // `G[i*w + j]` (idx_load at the row multiply), its row index kept
    // (mul_add into a local), and a 3-D `(i*w + j)*w + t` whose inner row
    // is a pushed mul_add.
    src.push_str(&format!(
        "int w = {};\n\
         double* G = (double*)alloc(w * w * w * 8);\n\
         for (i = 0; i < w * w * w; i = i + 1) {{ G[i] = (double)(i {o4} v1); }}\n\
         for (i = 0; i < w; i = i + 1) {{\n\
         for (j = 0; j < w; j = j + 1) {{\n\
         v2 = v2 + (int)G[i * w + j];\n\
         t = i * w + j;\n\
         v0 = v0 ^ (int)G[(i * w + j) * w + (t & 1)];\n\
         }}\n}}\n",
        2 + rng.below(4)
    ));
    // Load / store through a pointer deref (the address forwarded).
    src.push_str(&format!(
        "int* p = A + (v3 & {k2});\nv2 = v2 {o4} *p;\n*p = v2;\n"
    ));
    // add_load: a shift-scaled byte offset added to the base, no
    // `const; i32.mul` for an address tail to take.
    src.push_str("v2 = v2 + *(int*)((int)A + ((v3 & 3) << 2));\n");
    // eqz_br (truthy while), binop_set from the stack, a local-to-local
    // copy, binop_k, operands from two locals.
    src.push_str("t = 5;\nwhile (t) { t = t - 1; v3 = (v0 * v1) + v3; }\n");
    src.push_str("v1 = v0;\n");
    src.push_str(&format!("v0 = (v0 + v1) - (v2 {o1} v3);\n"));
    src.push_str(&format!("v2 = (v0 * {k1}) + v1;\n"));
    src.push_str(&format!("v3 = (v1 {o2} v2) * {k2} + (v3 {o3} v0);\n"));
    // Trap-prone division through the fused paths (may divide by zero or
    // overflow depending on the random inputs — parity either way).
    src.push_str(&format!("v0 = (v0 + A[v1 & {k2}]) / (v2 & 3);\n"));
    src.push_str(&format!("v1 = v1 % ((v3 & {k1}) - 1);\n"));
    // Random filler statements from the general generator (which uses the
    // reserved loop counters l0/l1).
    src.push_str("int l0 = 0; int l1 = 0;\n");
    let n_stmts = 1 + rng.below(3);
    for _ in 0..n_stmts {
        gen_stmt(rng, 2, 4, 0, &mut src);
    }
    src.push_str("return ((v0 ^ v1) + (v2 * 31)) ^ v3;\n}\n");
    src
}

#[test]
fn fusable_corpus_covers_every_superinstruction_with_parity() {
    let mut rng = XorShift(0xf05e_d00d_5eed_0001);
    let mut total = watz::wasm::FusionStats::default();
    let mut reg_total = watz::wasm::RegStats::default();
    let mut traps = 0usize;
    const PROGRAMS: usize = 24;
    for case in 0..PROGRAMS {
        let src = gen_fusable_kernel(&mut rng);
        let wasm = watz::compiler::compile(&src)
            .unwrap_or_else(|e| panic!("case {case} failed to compile: {e:?}\n{src}"));
        let module = watz::wasm::load(&wasm).unwrap();
        let args = [Value::I32(rng.next() as i32), Value::I32(rng.next() as i32)];
        // Parity (results, traps, instret) across the whole matrix, then
        // the pass counters from the production configuration.
        let outcomes = run_matrix(&module, "kernel", &args);
        for (label, outcome) in &outcomes[1..] {
            assert_eq!(
                &outcomes[0].1, outcome,
                "case {case}: {label} diverges from oracle:\n{src}"
            );
        }
        if outcomes[0].1.is_err() {
            traps += 1;
        }
        let instantiate = |fuse| {
            let cfg = EngineConfig {
                fuse,
                ..EngineConfig::default()
            };
            Instance::instantiate_with(&module, ExecMode::Aot, cfg, &mut NoHost).unwrap()
        };
        let fused = instantiate(true);
        total.merge(&fused.fusion_stats().expect("Aot instance reports stats"));
        reg_total.merge(&fused.reg_stats().expect("register instance reports stats"));
        let unfused = instantiate(false).fusion_stats().expect("stats");
        assert_eq!(unfused.total(), 0, "case {case}: unfused instance fused");
    }
    // The corpus must actually exercise the pass: every fusion rule and
    // every register counter fires at least once, and not every program
    // traps.
    for (name, count) in total.counts() {
        assert!(
            count > 0,
            "superinstruction '{name}' never emitted by the fusable corpus"
        );
    }
    for (name, count) in reg_total.counts() {
        assert!(
            count > 0,
            "register counter '{name}' stayed zero across the fusable corpus"
        );
    }
    assert!(traps < PROGRAMS, "fusable corpus produced only traps");
}

#[test]
fn trap_edges_agree_across_engines() {
    // MiniC-level pins for the edge semantics fusion or register
    // allocation could silently break: signed division overflow,
    // division/remainder by zero, and the INT_MIN % -1 == 0 non-trap,
    // each driven through compiled guests across the oracle and the whole
    // register-engine matrix (these shapes become superinstructions with
    // register operands).
    let rt = WatzRuntime::new_device(b"trap-edges").unwrap();
    let sources = [
        ("div", "int div(int a, int b) { return a / b; }"),
        ("rem", "int rem(int a, int b) { return a % b; }"),
    ];
    let cases = [
        (i32::MIN, -1),
        (i32::MIN, 0),
        (1, 0),
        (i32::MIN, 1),
        (7, -2),
        (-7, 2),
    ];
    for (name, src) in sources {
        let wasm = watz::compiler::compile(src).unwrap();
        let module = watz::wasm::load(&wasm).unwrap();
        for (a, b) in cases {
            let outcomes = run_matrix(&module, name, &[Value::I32(a), Value::I32(b)]);
            for (label, outcome) in &outcomes[1..] {
                assert_eq!(
                    &outcomes[0].1, outcome,
                    "{name}({a},{b}) diverges between oracle and {label} engine"
                );
            }
        }
    }
    // Pin the specific semantics, not just parity.
    let wasm = watz::compiler::compile(sources[1].1).unwrap();
    let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
    assert_eq!(
        app.invoke("rem", &[Value::I32(i32::MIN), Value::I32(-1)])
            .unwrap(),
        vec![Value::I32(0)],
        "INT_MIN % -1 must be 0, not a trap"
    );
}

#[test]
fn randomized_minic_kernels_agree_across_engines() {
    let mut rng = XorShift(0x5eed_cafe_f00d_d00d);
    let mut traps = 0usize;
    const PROGRAMS: usize = 40;
    for case in 0..PROGRAMS {
        let src = gen_kernel(&mut rng);
        let wasm = watz::compiler::compile(&src)
            .unwrap_or_else(|e| panic!("case {case} failed to compile: {e:?}\n{src}"));
        let module = watz::wasm::load(&wasm).unwrap();
        let arg_a = rng.next() as i32;
        let arg_b = rng.next() as i32;
        // Results on success, trap text on failure: both must match
        // across the oracle and the whole register-engine matrix.
        let outcomes = run_matrix(&module, "kernel", &[Value::I32(arg_a), Value::I32(arg_b)]);
        if outcomes[0].1.is_err() {
            traps += 1;
        }
        for (label, outcome) in &outcomes[1..] {
            assert_eq!(
                &outcomes[0].1, outcome,
                "case {case} diverges between oracle and {label} engine:\n{src}"
            );
        }
    }
    // The corpus must exercise both outcomes, or the trap-parity half of
    // the property is vacuous.
    assert!(traps > 0, "corpus produced no trapping programs");
    assert!(traps < PROGRAMS, "corpus produced only trapping programs");
}

/// The control shapes the tree oracle resolves through its side table and
/// walks by reference (a `br_table` is borrowed, not cloned), each a
/// hand-built export `f` with its argument rows and expected outcomes;
/// result, trap kind and instret must agree on every configuration.
#[test]
fn control_shapes_agree_across_engines() {
    use watz::wasm::builder::ModuleBuilder;
    use watz::wasm::instr::Instr as I;
    use watz::wasm::types::{BlockType, ValType};

    let i32_ = ValType::I32;
    let e = BlockType::Empty;
    let v = BlockType::Value(i32_);
    // acc (local 1) += k
    let add = |k| [I::LocalGet(1), I::I32Const(k), I::I32Add, I::LocalSet(1)];
    /// Arguments, and the result or a part of the trap message.
    type Row = (Vec<i32>, Result<i32, &'static str>);
    let mut shapes: Vec<(&str, ModuleBuilder, Vec<Row>)> = Vec::new();

    // A `br_table` in a loop, its targets mixing block and loop depths:
    // 0 and 3 leave the inner block (acc += 11), 1 the outer one
    // (acc += 10), 2 re-enters the loop and the default (i % 5 == 4)
    // leaves it.
    let mut b = ModuleBuilder::new();
    let ty = b.add_type(&[i32_], &[i32_]);
    let mut code = vec![I::Block(e), I::Loop(e)];
    code.extend([
        I::LocalGet(0),
        I::I32Const(1),
        I::I32Sub,
        I::LocalTee(0),
        I::I32Const(0),
        I::I32LtS,
        I::BrIf(1),
        I::Block(e),
        I::Block(e),
        I::LocalGet(0),
        I::I32Const(5),
        I::I32RemU,
        I::BrTable {
            targets: vec![0, 1, 2, 0],
            default: 3,
        },
        I::End,
    ]);
    code.extend(add(1));
    code.push(I::End);
    code.extend(add(10));
    code.extend([I::Br(0), I::End, I::End, I::LocalGet(1), I::End]);
    let f = b.add_func(ty, &[i32_], code);
    b.export_func("f", f);
    shapes.push((
        "br_table in a loop",
        b,
        vec![
            (vec![0], Ok(0)),
            (vec![3], Ok(21)),
            (vec![4], Ok(32)),
            (vec![5], Ok(0)),
            (vec![23], Ok(21)),
        ],
    ));

    // A two-value `if` with params and no `else`: a false condition passes
    // its params through.
    let mut b = ModuleBuilder::new();
    let ty = b.add_type(&[i32_, i32_, i32_], &[i32_]);
    let pair = b.add_type(&[i32_, i32_], &[i32_, i32_]);
    let f = b.add_func(
        ty,
        &[],
        vec![
            I::LocalGet(0),
            I::LocalGet(1),
            I::LocalGet(2),
            I::If(BlockType::Func(pair)),
            I::I32Add,
            I::I32Const(3),
            I::End,
            I::I32Sub,
            I::End,
        ],
    );
    b.export_func("f", f);
    shapes.push((
        "multi-value if without else",
        b,
        vec![(vec![7, 2, 1], Ok(6)), (vec![7, 2, 0], Ok(5))],
    ));

    // An `if` whose then-branch, a block left by `br_if` or by falling
    // out, falls through into its `else`, which jumps to the `end`.
    let mut b = ModuleBuilder::new();
    let ty = b.add_type(&[i32_, i32_], &[i32_]);
    let f = b.add_func(
        ty,
        &[],
        vec![
            I::LocalGet(0),
            I::If(v),
            I::Block(v),
            I::I32Const(5),
            I::LocalGet(1),
            I::BrIf(0),
            I::Drop,
            I::I32Const(6),
            I::End,
            I::I32Const(1),
            I::I32Add,
            I::Else,
            I::I32Const(9),
            I::End,
            I::End,
        ],
    );
    b.export_func("f", f);
    shapes.push((
        "else reached by fall-through",
        b,
        vec![
            (vec![1, 1], Ok(6)),
            (vec![1, 0], Ok(7)),
            (vec![0, 1], Ok(9)),
        ],
    ));

    // A trap inside a nested `if`: 100 / (a - 1) when a and b are set.
    let mut b = ModuleBuilder::new();
    let ty = b.add_type(&[i32_, i32_], &[i32_]);
    let f = b.add_func(
        ty,
        &[],
        vec![
            I::LocalGet(0),
            I::If(v),
            I::LocalGet(1),
            I::If(v),
            I::I32Const(100),
            I::LocalGet(0),
            I::I32Const(1),
            I::I32Sub,
            I::I32DivU,
            I::Else,
            I::I32Const(2),
            I::End,
            I::Else,
            I::I32Const(3),
            I::End,
            I::End,
        ],
    );
    b.export_func("f", f);
    shapes.push((
        "trap inside a nested if",
        b,
        vec![
            (vec![1, 1], Err("integer division by zero")),
            (vec![3, 1], Ok(50)),
            (vec![5, 0], Ok(2)),
            (vec![0, 9], Ok(3)),
        ],
    ));

    for (shape, b, rows) in shapes {
        let module = watz::wasm::load(&b.build()).unwrap_or_else(|e| panic!("{shape}: {e}"));
        for (args, want) in rows {
            let args: Vec<Value> = args.into_iter().map(Value::I32).collect();
            let outcomes = run_matrix(&module, "f", &args);
            for (label, outcome) in &outcomes[1..] {
                assert_eq!(
                    &outcomes[0].1, outcome,
                    "{shape} {args:?}: {label} diverges from the oracle"
                );
            }
            match (&outcomes[0].1, want) {
                (Ok(got), Ok(w)) => assert_eq!(got, &vec![Value::I32(w)], "{shape} {args:?}"),
                (Err(got), Err(w)) => assert!(got.contains(w), "{shape} {args:?}: {got}"),
                (got, w) => panic!("{shape} {args:?}: got {got:?}, want {w:?}"),
            }
        }
    }
}

/// An export and its arguments.
type Call = (&'static str, Vec<Value>);

#[test]
fn relaunch_is_the_first_launch_again_on_every_corpus_module() {
    let n = |v| vec![Value::I32(v)];
    let mut corpus: Vec<(String, Vec<u8>, Vec<Call>)> = watz::bench_workloads::polybench::suite()
        .into_iter()
        .map(|k| {
            let wasm = watz::compiler::compile(k.minic).unwrap();
            (k.name.to_string(), wasm, vec![("kernel", n(N))])
        })
        .collect();
    let minisql = watz::compiler::compile_with_options(
        watz::bench_workloads::speedtest::MINISQL_GUEST,
        &watz::compiler::Options {
            min_pages: 256,
            max_pages: None,
        },
    )
    .unwrap();
    let mut sql_calls = vec![("setup", n(50))];
    for exp in watz::bench_workloads::speedtest::experiments() {
        sql_calls.push(("run_exp", vec![Value::I32(exp.id as i32), Value::I32(50)]));
    }
    corpus.push(("minisql".into(), minisql, sql_calls));
    let genann = watz::compiler::compile(&watz::bench_workloads::genann_guest::source()).unwrap();
    corpus.push(("genann".into(), genann, vec![("buf_alloc", n(4))]));
    let div = watz::compiler::compile("int div(int a, int b) { return a / b; }").unwrap();
    let args = |a, b| vec![Value::I32(a), Value::I32(b)];
    corpus.push((
        "div".into(),
        div,
        vec![
            ("div", args(7, 2)),
            ("div", args(1, 0)),
            ("div", args(i32::MIN, -1)),
            ("nope", vec![]),
        ],
    ));

    // One runtime, every module of the corpus launched twice: the second
    // launch finds the artifact resident and must be indistinguishable
    // from the first in everything but its start-up cost — results and
    // traps, and what was compiled: the default configuration, once.
    let rt = WatzRuntime::new_device(b"relaunch-parity").unwrap();
    let config = AppConfig {
        heap_bytes: watz::optee::TA_HEAP_CAP,
        mode: ExecMode::Aot,
    };
    let mut traps = 0;
    for (name, wasm, calls) in &corpus {
        let before = rt.os().exec_bytes_allocated();
        let mut first = rt.load(wasm, &config).unwrap();
        let resident = rt.os().exec_bytes_allocated();
        assert_eq!(resident, before + wasm.len(), "{name}");
        let mut again = rt.load(wasm, &config).unwrap();
        assert_eq!(rt.os().exec_bytes_allocated(), resident, "{name}");
        assert!(!first.startup_breakdown().cached, "{name}");
        assert!(again.startup_breakdown().cached, "{name}");
        assert_eq!(first.measurement(), again.measurement(), "{name}");
        assert!(
            Arc::ptr_eq(first.instance().artifact(), again.instance().artifact()),
            "{name}"
        );

        for (export, args) in calls {
            let a = first.invoke(export, args).map_err(|e| e.to_string());
            let b = again.invoke(export, args).map_err(|e| e.to_string());
            assert_eq!(a, b, "{name}: {export}{args:?}");
            traps += usize::from(a.is_err());
        }
        assert!(first.instance().profile().is_none(), "{name}: counting");
        let fused = first.fusion_stats().expect("Aot app");
        assert!(fused.total() > 0, "{name}: nothing fused");
        assert_eq!(again.fusion_stats(), Some(fused), "{name}");
        assert!(first.reg_stats().is_some(), "{name}: no register program");
        assert!(first.instance().verify_stats().is_none(), "{name}");
        // Asked, the verifier says the same of both instances.
        let v1 = first.instance().verify_ir().expect("Aot");
        let v2 = again.instance().verify_ir().expect("Aot");
        assert_eq!(v1, v2, "{name}");
        assert!(v1.expect("verifies").reg_ops > 0, "{name}");
    }
    assert_eq!(traps, 3, "the trapping calls trapped, on both launches");

    // The runtime launches the default configuration only; every other
    // one is checked on the artifact a relaunch starts from: two instances
    // of one artifact agree on results, traps, counters and the verifier's
    // verdict, and the artifact is what its configuration asked for.
    for (label, cfg) in engine_matrix() {
        let mut traps = 0;
        for (name, wasm, calls) in &corpus {
            let module = watz::wasm::load(wasm).unwrap();
            let artifact = Artifact::new(&module, ExecMode::Aot, cfg)
                .unwrap_or_else(|e| panic!("{label} {name}: {e}"));
            let artifact = Arc::new(artifact);
            let [mut first, mut again] = [(); 2]
                .map(|()| Instance::from_artifact(Arc::clone(&artifact), &mut NoHost).unwrap());
            for (export, args) in calls {
                let a = first.invoke(&mut NoHost, export, args);
                let b = again.invoke(&mut NoHost, export, args);
                assert_eq!(a, b, "{label} {name}: {export}{args:?}");
                traps += usize::from(a.is_err());
            }
            let (p1, p2) = (first.profile(), again.profile());
            assert_eq!(p1.is_some(), cfg.profile == ProfileMode::Count, "{label}");
            assert_eq!(p1, p2, "{label} {name}: counters differ");
            if let Some(p) = p1 {
                assert!(p.instret > 0, "{label} {name}: nothing counted");
            }
            let fused = first.fusion_stats().expect("Aot instance");
            assert_eq!(fused.total() == 0, !cfg.fuse, "{label} {name}");
            assert!(first.reg_stats().is_some(), "{label} {name}");
            // Verified before the first instance existed, and the verifier
            // says the same again of both instances.
            let verified = first.verify_stats().expect("verify is set");
            let v1 = first.verify_ir().expect("Aot").expect("verifies");
            let v2 = again.verify_ir().expect("Aot").expect("verifies");
            assert_eq!((v1, v2), (verified, verified), "{label} {name}");
        }
        assert_eq!(traps, 3, "{label}: the trapping calls trapped");
    }
}
