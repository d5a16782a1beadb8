//! MiniC: a small C-like language compiled to WebAssembly.
//!
//! The WaTZ paper compiles its guest workloads (PolyBench/C, SQLite, Genann)
//! from C to Wasm with WASI-SDK/Clang. That toolchain cannot run in this
//! offline reproduction environment, so MiniC fills the role: a compiler for
//! a C-like language that produces binaries for the [`watz_wasm`] engine.
//! The guest programs of the evaluation (all thirty PolyBench kernels, the
//! `minisql` database engine and the Genann neural network port) are written
//! in MiniC — see the `workloads` crate.
//!
//! # Language summary
//!
//! * Types: `int` (i32), `long` (i64), `float` (f32), `double` (f64),
//!   typed pointers `T*`, `void` (function returns only).
//! * Declarations: globals with constant initializers, functions (exported
//!   by name), `extern` function declarations (compiled to imports from the
//!   `env` module, resolved by the embedder — this is how guests reach WASI
//!   and WASI-RA).
//! * Statements: blocks, `if`/`else`, `while`, `for`, `break`, `continue`,
//!   `return`, declarations, expression statements.
//! * Expressions: the usual C operators with C-like implicit numeric
//!   promotion, short-circuit `&&`/`||`, casts, calls, pointer indexing
//!   `p[i]` and dereference `*p` (scaled by element size), string literals
//!   (placed in the data segment, valued as `int` addresses).
//! * Builtins: `alloc(n)` (bump allocator over linear memory, grows memory
//!   on demand), `sqrt`, `fabs`, `floor`, `ceil`, `trunc` (lowered to Wasm
//!   instructions), `__bits2d`/`__d2bits` (reinterpret casts used by the
//!   `libm` prelude), `sizeof(type)`.
//!
//! # Example
//!
//! ```
//! use watz_wasm::exec::{Instance, ExecMode, NoHost, Value};
//!
//! let wasm = minic::compile(r#"
//!     int add(int a, int b) { return a + b; }
//! "#).unwrap();
//! let module = watz_wasm::load(&wasm).unwrap();
//! let mut inst = Instance::instantiate(&module, ExecMode::Aot, &mut NoHost).unwrap();
//! let out = inst.invoke(&mut NoHost, "add", &[Value::I32(40), Value::I32(2)]).unwrap();
//! assert_eq!(out, vec![Value::I32(42)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod codegen;
mod lexer;
mod parser;

pub use codegen::CompileError;

/// Compilation options.
///
/// A module's initial memory is the pages its static data and heap base
/// need (one page for a program whose string literals fit in 64 KiB), as
/// wasm-ld sizes it; `alloc` grows the rest on demand. An embedder commits
/// and charges every declared page at instantiation, so a larger initial
/// size only costs launch time and memory the guest may never touch.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// A floor on the initial linear memory, in 64 KiB pages (0, the
    /// default, means no floor: the data alone sizes it).
    pub min_pages: u32,
    /// Maximum linear memory size in pages (None = engine default).
    pub max_pages: Option<u32>,
}

/// Compiles MiniC source to a Wasm binary with default options.
///
/// # Errors
///
/// Returns a [`CompileError`] with a line number and message.
pub fn compile(source: &str) -> Result<Vec<u8>, CompileError> {
    compile_with_options(source, &Options::default())
}

/// Compiles MiniC source to a Wasm binary.
///
/// # Errors
///
/// Returns a [`CompileError`] with a line number and message.
pub fn compile_with_options(source: &str, options: &Options) -> Result<Vec<u8>, CompileError> {
    let tokens = lexer::lex(source).map_err(|e| CompileError {
        line: e.line,
        message: e.message,
    })?;
    let program = parser::parse(&tokens).map_err(|e| CompileError {
        line: e.line,
        message: e.message,
    })?;
    codegen::compile_program(&program, options)
}

/// The MiniC `libm` prelude: `exp`, `log`, `pow` and `tanh` implemented in
/// MiniC itself (range reduction + polynomial, exponent assembled with the
/// `__bits2d` reinterpret builtin), mirroring how the paper's guests carry
/// their own libm compiled from C.
///
/// Concatenate in front of guest source that needs these functions.
pub const LIBM_PRELUDE: &str = r#"
// --- MiniC libm prelude ---------------------------------------------------
double __exp2i(int n) {
    // 2^n for |n| <= 1023 via direct exponent-field construction.
    if (n < -1022) { return 0.0; }
    if (n > 1023) { return 1.0 / 0.0; }
    return __bits2d(((long)(n + 1023)) << 52);
}

double exp(double x) {
    if (x > 709.0) { return 1.0 / 0.0; }
    if (x < -745.0) { return 0.0; }
    // n = round(x / ln 2)
    double log2e = 1.4426950408889634;
    double ln2_hi = 0.6931471805599453;
    int n = (int)(x * log2e + (x < 0.0 ? -0.5 : 0.5));
    double r = x - (double)n * ln2_hi;
    // exp(r) by 13-term Taylor series; |r| <= ln2/2 so this converges fast.
    double term = 1.0;
    double sum = 1.0;
    int i;
    for (i = 1; i <= 13; i = i + 1) {
        term = term * r / (double)i;
        sum = sum + term;
    }
    return sum * __exp2i(n);
}

double log(double x) {
    if (x <= 0.0) { return -1.0 / 0.0; }
    // Decompose x = m * 2^e with m in [1, 2).
    long bits = __d2bits(x);
    int e = (int)((bits >> 52) & 2047) - 1023;
    double m = __bits2d((bits & 4503599627370495) | 4607182418800017408);
    // log(m) via atanh identity: log(m) = 2 atanh((m-1)/(m+1)).
    double t = (m - 1.0) / (m + 1.0);
    double t2 = t * t;
    double p = 0.0;
    int k;
    for (k = 13; k >= 0; k = k - 1) {
        p = p * t2 + 2.0 / (double)(2 * k + 1);
    }
    return p * t + (double)e * 0.6931471805599453;
}

double pow(double base, double ex) {
    if (ex == 0.0) { return 1.0; }
    if (base == 0.0) { return 0.0; }
    return exp(ex * log(base));
}

double tanh(double x) {
    if (x > 20.0) { return 1.0; }
    if (x < -20.0) { return -1.0; }
    double e2 = exp(2.0 * x);
    return (e2 - 1.0) / (e2 + 1.0);
}

double sigmoid(double x) {
    if (x < -45.0) { return 0.0; }
    if (x > 45.0) { return 1.0; }
    return 1.0 / (1.0 + exp(0.0 - x));
}
// --- end libm prelude ------------------------------------------------------
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};

    fn run(src: &str, func: &str, args: &[Value]) -> Vec<Value> {
        let wasm = compile(src).expect("compile");
        let module = watz_wasm::load(&wasm).expect("load");
        let mut inst = Instance::instantiate(&module, ExecMode::Aot, &mut NoHost).expect("inst");
        inst.invoke(&mut NoHost, func, args).expect("run")
    }

    #[test]
    fn arithmetic() {
        let out = run(
            "int f(int a, int b) { return (a + b) * (a - b) / 2; }",
            "f",
            &[Value::I32(10), Value::I32(4)],
        );
        assert_eq!(out, vec![Value::I32(42)]);
    }

    #[test]
    fn while_loop() {
        let out = run(
            r#"
            int sum(int n) {
                int acc = 0;
                int i = 0;
                while (i < n) { acc = acc + i; i = i + 1; }
                return acc;
            }"#,
            "sum",
            &[Value::I32(100)],
        );
        assert_eq!(out, vec![Value::I32(4950)]);
    }

    #[test]
    fn for_loop_with_break_continue() {
        let out = run(
            r#"
            int f(int n) {
                int acc = 0;
                int i;
                for (i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { continue; }
                    if (i > 10) { break; }
                    acc = acc + i;
                }
                return acc;
            }"#,
            "f",
            &[Value::I32(100)],
        );
        // 1 + 3 + 5 + 7 + 9 = 25
        assert_eq!(out, vec![Value::I32(25)]);
    }

    #[test]
    fn recursion() {
        let out = run(
            "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }",
            "fib",
            &[Value::I32(20)],
        );
        assert_eq!(out, vec![Value::I32(6765)]);
    }

    #[test]
    fn pointers_and_alloc() {
        let out = run(
            r#"
            int f(int n) {
                int* a = (int*)alloc(n * 4);
                int i;
                for (i = 0; i < n; i = i + 1) { a[i] = i * i; }
                int acc = 0;
                for (i = 0; i < n; i = i + 1) { acc = acc + a[i]; }
                return acc;
            }"#,
            "f",
            &[Value::I32(10)],
        );
        assert_eq!(out, vec![Value::I32(285)]);
    }

    #[test]
    fn doubles_and_promotion() {
        let out = run(
            "double f(int n) { double x = 1; return x / 2 + n; }",
            "f",
            &[Value::I32(3)],
        );
        assert_eq!(out, vec![Value::F64(3.5)]);
    }

    #[test]
    fn globals() {
        let out = run(
            r#"
            int counter = 100;
            int bump() { counter = counter + 1; return counter; }
            int twice() { bump(); return bump(); }
            "#,
            "twice",
            &[],
        );
        assert_eq!(out, vec![Value::I32(102)]);
    }

    #[test]
    fn string_literal_in_data() {
        let out = run(
            r#"
            int first_byte() {
                int s = "Wasm";
                char_unused(); // exercise multiple functions
                return *(int*)s & 255;
            }
            void char_unused() { }
            "#,
            "first_byte",
            &[],
        );
        assert_eq!(out, vec![Value::I32(i32::from(b'W'))]);
    }

    #[test]
    fn sqrt_builtin() {
        let out = run(
            "double f(double x) { return sqrt(x); }",
            "f",
            &[Value::F64(2.25)],
        );
        assert_eq!(out, vec![Value::F64(1.5)]);
    }

    #[test]
    fn casts() {
        let out = run(
            "int f(double x) { return (int)(x * 2.0); }",
            "f",
            &[Value::F64(3.7)],
        );
        assert_eq!(out, vec![Value::I32(7)]);
        let out = run(
            "long f(int x) { return (long)x * 1000000000; }",
            "f",
            &[Value::I32(5)],
        );
        assert_eq!(out, vec![Value::I64(5_000_000_000)]);
    }

    #[test]
    fn short_circuit_logic() {
        // Division by zero on the right side must not execute.
        let out = run(
            "int f(int a) { return a != 0 && 10 / a > 1; }",
            "f",
            &[Value::I32(0)],
        );
        assert_eq!(out, vec![Value::I32(0)]);
        let out = run(
            "int f(int a) { return a == 0 || 10 / a > 1; }",
            "f",
            &[Value::I32(0)],
        );
        assert_eq!(out, vec![Value::I32(1)]);
    }

    #[test]
    fn ternary() {
        let out = run(
            "int f(int a) { return a > 0 ? a : 0 - a; }",
            "f",
            &[Value::I32(-5)],
        );
        assert_eq!(out, vec![Value::I32(5)]);
    }

    #[test]
    fn double_array_stencil() {
        // A miniature polybench-style kernel.
        let out = run(
            r#"
            double kernel(int n) {
                double* a = (double*)alloc(n * 8);
                int i;
                for (i = 0; i < n; i = i + 1) { a[i] = (double)i; }
                double acc = 0.0;
                for (i = 1; i < n - 1; i = i + 1) {
                    acc = acc + 0.33333 * (a[i-1] + a[i] + a[i+1]);
                }
                return acc;
            }"#,
            "kernel",
            &[Value::I32(100)],
        );
        match out[0] {
            Value::F64(v) => assert!((v - 4851.0 * 0.99999).abs() < 5.0, "got {v}"),
            _ => panic!("expected f64"),
        }
    }

    #[test]
    fn libm_exp_accuracy() {
        let src = format!("{}\ndouble f(double x) {{ return exp(x); }}", LIBM_PRELUDE);
        for x in [-10.0, -1.0, 0.0, 0.5, 1.0, 5.0, 20.0] {
            let out = run(&src, "f", &[Value::F64(x)]);
            match out[0] {
                Value::F64(v) => {
                    let expect = f64::exp(x);
                    let rel = ((v - expect) / expect).abs();
                    assert!(rel < 1e-9, "exp({x}) = {v}, expected {expect}");
                }
                _ => panic!("expected f64"),
            }
        }
    }

    #[test]
    fn libm_log_accuracy() {
        let src = format!("{}\ndouble f(double x) {{ return log(x); }}", LIBM_PRELUDE);
        for x in [0.1, 0.5, 1.0, 2.0, 10.0, 12345.0] {
            let out = run(&src, "f", &[Value::F64(x)]);
            match out[0] {
                Value::F64(v) => {
                    let expect = f64::ln(x);
                    assert!(
                        (v - expect).abs() < 1e-9,
                        "log({x}) = {v}, expected {expect}"
                    );
                }
                _ => panic!("expected f64"),
            }
        }
    }

    #[test]
    fn libm_sigmoid() {
        let src = format!(
            "{}\ndouble f(double x) {{ return sigmoid(x); }}",
            LIBM_PRELUDE
        );
        let out = run(&src, "f", &[Value::F64(0.0)]);
        assert_eq!(out, vec![Value::F64(0.5)]);
    }

    #[test]
    fn extern_import_generated() {
        let wasm = compile(
            r#"
            extern long clock_ns();
            long f() { return clock_ns() + 1; }
            "#,
        )
        .unwrap();
        let module = watz_wasm::load(&wasm).unwrap();
        assert_eq!(module.func_imports.len(), 1);
        assert_eq!(module.func_imports[0].module, "env");
        assert_eq!(module.func_imports[0].name, "clock_ns");
    }

    #[test]
    fn parse_error_reports_line() {
        let err = compile("int f( { return 0; }").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn type_error_detected() {
        // Pointer multiplication is not a thing.
        assert!(compile("int f(int* p) { return p * 2; }").is_err());
        // Bitwise ops require integral operands.
        assert!(compile("int f() { return 1.5 & 2; }").is_err());
    }

    #[test]
    fn undefined_variable_detected() {
        let err = compile("int f() { return nope; }").unwrap_err();
        assert!(err.message.contains("nope"));
    }

    #[test]
    fn undefined_function_detected() {
        let err = compile("int f() { return g(); }").unwrap_err();
        assert!(err.message.contains('g'));
    }

    #[test]
    fn sizeof_builtin() {
        let out = run(
            "int f() { return sizeof(double) + sizeof(int*); }",
            "f",
            &[],
        );
        assert_eq!(out, vec![Value::I32(12)]);
    }

    #[test]
    fn nested_loops_matrix_multiply() {
        let out = run(
            r#"
            int matmul_check(int n) {
                double* a = (double*)alloc(n * n * 8);
                double* b = (double*)alloc(n * n * 8);
                double* c = (double*)alloc(n * n * 8);
                int i; int j; int k;
                for (i = 0; i < n; i = i + 1) {
                    for (j = 0; j < n; j = j + 1) {
                        a[i*n+j] = (double)(i + j);
                        b[i*n+j] = (double)(i - j);
                        c[i*n+j] = 0.0;
                    }
                }
                for (i = 0; i < n; i = i + 1) {
                    for (j = 0; j < n; j = j + 1) {
                        for (k = 0; k < n; k = k + 1) {
                            c[i*n+j] = c[i*n+j] + a[i*n+k] * b[k*n+j];
                        }
                    }
                }
                return (int)c[1*n+2];
            }"#,
            "matmul_check",
            &[Value::I32(4)],
        );
        // c[1][2] = sum_k (1+k)(k-2) = (1)(-2)+(2)(-1)+(3)(0)+(4)(1) = 0
        assert_eq!(out, vec![Value::I32(0)]);
    }

    #[test]
    fn memory_grows_for_large_alloc() {
        // Allocating beyond the initial pages must grow memory, not trap.
        let out = run(
            r#"
            int f() {
                int* a = (int*)alloc(4 * 1024 * 1024); // 4 MiB > the 1 initial page
                a[1000000] = 42;
                return a[1000000];
            }"#,
            "f",
            &[],
        );
        assert_eq!(out, vec![Value::I32(42)]);
    }

    #[test]
    fn initial_memory_is_the_pages_the_data_needs() {
        let pages = |wasm: Vec<u8>| {
            let module = watz_wasm::load(&wasm).expect("load");
            let inst = Instance::instantiate(&module, ExecMode::Aot, &mut NoHost).expect("inst");
            inst.memory().data().len() / watz_wasm::PAGE_SIZE
        };
        let nop = "int f() { return 0; }";
        assert_eq!(pages(compile(nop).expect("compile")), 1);
        // 16 guard bytes, then 150 000 bytes of string and its NUL padded
        // to 8: the heap base is 150 024, in the third page.
        let big = format!(
            "int f() {{ int s = \"{}\"; return s; }}",
            "x".repeat(150_000)
        );
        assert_eq!(pages(compile(&big).expect("compile")), 3);
        let floor = Options {
            min_pages: 4,
            max_pages: None,
        };
        assert_eq!(
            pages(compile_with_options(nop, &floor).expect("compile")),
            4
        );
    }
}
