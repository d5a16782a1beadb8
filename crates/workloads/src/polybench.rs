//! The 30 PolyBench/C kernels (v4.2 suite), used by the paper's Fig 5
//! micro-benchmark.
//!
//! Each kernel exists twice with identical arithmetic:
//! * a **native Rust** implementation (the paper's `Native: REE`/`TEE`
//!   baselines), and
//! * a **MiniC** implementation compiled to Wasm (the `Wasm: REE (WAMR)` /
//!   `TEE (WaTZ)` configurations).
//!
//! Every kernel takes a problem size `n` and returns a floating checksum of
//! its output data, so native and Wasm runs are differentially comparable.
//! Initialisation formulas use exact integer arithmetic so both languages
//! produce bit-identical inputs.
//!
//! Iterative stencils run a fixed `TSTEPS = 4` time steps; the benchmark
//! harness scales `n` instead (the paper uses the suite's "medium" dataset,
//! bounded by OP-TEE's memory ceiling).

/// Time steps for the iterative stencil kernels.
const TSTEPS: usize = 4;

/// A PolyBench kernel: name, MiniC source, native implementation.
pub struct Kernel {
    /// Kernel name (paper's Fig 5 abbreviations in parentheses).
    pub name: &'static str,
    /// MiniC source exporting `double kernel(int n)`.
    pub minic: &'static str,
    /// Native implementation.
    pub native: fn(usize) -> f64,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({})", self.name)
    }
}

// ---------------------------------------------------------------------------
// Helpers (native side)
// ---------------------------------------------------------------------------

fn init_2d(n: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let mut m = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            m[i * n + j] = f(i, j);
        }
    }
    m
}

fn checksum(v: &[f64]) -> f64 {
    v.iter().sum()
}

// Shared init formulas (must match the MiniC sources exactly).
fn fa(i: usize, j: usize, n: usize) -> f64 {
    ((i * j + 1) % n) as f64 / n as f64
}
fn fb(i: usize, j: usize, n: usize) -> f64 {
    ((i * (j + 1)) % n) as f64 / n as f64
}
fn fv(i: usize, n: usize) -> f64 {
    (i % n) as f64 / n as f64 + 0.5
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

fn native_gemm(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n));
    let b = init_2d(n, |i, j| fb(i, j, n));
    let mut c = init_2d(n, |i, j| ((i + j) % n) as f64 / n as f64);
    let (alpha, beta) = (1.5, 1.2);
    for i in 0..n {
        for j in 0..n {
            c[i * n + j] *= beta;
        }
        for k in 0..n {
            for j in 0..n {
                c[i * n + j] += alpha * a[i * n + k] * b[k * n + j];
            }
        }
    }
    checksum(&c)
}

const MINIC_PRELUDE: &str = r#"
double fa(int i, int j, int n) { return (double)((i * j + 1) % n) / (double)n; }
double fb(int i, int j, int n) { return (double)((i * (j + 1)) % n) / (double)n; }
double fv(int i, int n) { return (double)(i % n) / (double)n + 0.5; }
double* mat(int n) { return (double*)alloc(n * n * 8); }
double* vec(int n) { return (double*)alloc(n * 8); }
double sum2(double* m, int n) {
    double s = 0.0; int i;
    for (i = 0; i < n * n; i = i + 1) { s = s + m[i]; }
    return s;
}
double sum1(double* v, int n) {
    double s = 0.0; int i;
    for (i = 0; i < n; i = i + 1) { s = s + v[i]; }
    return s;
}
"#;

macro_rules! minic_kernel {
    ($body:expr) => {
        concat!(
            r#"
double fa(int i, int j, int n) { return (double)((i * j + 1) % n) / (double)n; }
double fb(int i, int j, int n) { return (double)((i * (j + 1)) % n) / (double)n; }
double fv(int i, int n) { return (double)(i % n) / (double)n + 0.5; }
double* mat(int n) { return (double*)alloc(n * n * 8); }
double* vec(int n) { return (double*)alloc(n * 8); }
double sum2(double* m, int n) {
    double s = 0.0; int i;
    for (i = 0; i < n * n; i = i + 1) { s = s + m[i]; }
    return s;
}
double sum1(double* v, int n) {
    double s = 0.0; int i;
    for (i = 0; i < n; i = i + 1) { s = s + v[i]; }
    return s;
}
"#,
            $body
        )
    };
}

const GEMM_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* b = mat(n); double* c = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            a[i*n+j] = fa(i, j, n);
            b[i*n+j] = fb(i, j, n);
            c[i*n+j] = (double)((i + j) % n) / (double)n;
        }
    }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) { c[i*n+j] = c[i*n+j] * 1.2; }
        for (k = 0; k < n; k = k + 1) {
            for (j = 0; j < n; j = j + 1) {
                c[i*n+j] = c[i*n+j] + 1.5 * a[i*n+k] * b[k*n+j];
            }
        }
    }
    return sum2(c, n);
}
"#
);

fn native_two_mm(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n));
    let b = init_2d(n, |i, j| fb(i, j, n));
    let c = init_2d(n, |i, j| ((i + j) % n) as f64 / n as f64);
    let mut tmp = vec![0.0; n * n];
    let mut d = init_2d(n, |i, j| ((i * 2 + j) % n) as f64 / n as f64);
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            tmp[i * n + j] = 1.5 * acc;
        }
    }
    for i in 0..n {
        for j in 0..n {
            d[i * n + j] *= 1.2;
            for k in 0..n {
                d[i * n + j] += tmp[i * n + k] * c[k * n + j];
            }
        }
    }
    checksum(&d)
}

const TWO_MM_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* b = mat(n); double* c = mat(n);
    double* tmp = mat(n); double* d = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            a[i*n+j] = fa(i, j, n);
            b[i*n+j] = fb(i, j, n);
            c[i*n+j] = (double)((i + j) % n) / (double)n;
            d[i*n+j] = (double)((i * 2 + j) % n) / (double)n;
        }
    }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            double acc = 0.0;
            for (k = 0; k < n; k = k + 1) { acc = acc + a[i*n+k] * b[k*n+j]; }
            tmp[i*n+j] = 1.5 * acc;
        }
    }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            d[i*n+j] = d[i*n+j] * 1.2;
            for (k = 0; k < n; k = k + 1) {
                d[i*n+j] = d[i*n+j] + tmp[i*n+k] * c[k*n+j];
            }
        }
    }
    return sum2(d, n);
}
"#
);

fn native_three_mm(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n));
    let b = init_2d(n, |i, j| fb(i, j, n));
    let c = init_2d(n, |i, j| ((i + j) % n) as f64 / n as f64);
    let d = init_2d(n, |i, j| ((i * 2 + j) % n) as f64 / n as f64);
    let mut e = vec![0.0; n * n];
    let mut f = vec![0.0; n * n];
    let mut g = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                e[i * n + j] += a[i * n + k] * b[k * n + j];
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                f[i * n + j] += c[i * n + k] * d[k * n + j];
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                g[i * n + j] += e[i * n + k] * f[k * n + j];
            }
        }
    }
    checksum(&g)
}

const THREE_MM_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* b = mat(n); double* c = mat(n); double* d = mat(n);
    double* e = mat(n); double* f = mat(n); double* g = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            a[i*n+j] = fa(i, j, n); b[i*n+j] = fb(i, j, n);
            c[i*n+j] = (double)((i + j) % n) / (double)n;
            d[i*n+j] = (double)((i * 2 + j) % n) / (double)n;
            e[i*n+j] = 0.0; f[i*n+j] = 0.0; g[i*n+j] = 0.0;
        }
    }
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) { for (k = 0; k < n; k = k + 1) {
        e[i*n+j] = e[i*n+j] + a[i*n+k] * b[k*n+j]; } } }
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) { for (k = 0; k < n; k = k + 1) {
        f[i*n+j] = f[i*n+j] + c[i*n+k] * d[k*n+j]; } } }
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) { for (k = 0; k < n; k = k + 1) {
        g[i*n+j] = g[i*n+j] + e[i*n+k] * f[k*n+j]; } } }
    return sum2(g, n);
}
"#
);

fn native_atax(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n));
    let x: Vec<f64> = (0..n).map(|i| fv(i, n)).collect();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut tmp = 0.0;
        for j in 0..n {
            tmp += a[i * n + j] * x[j];
        }
        for j in 0..n {
            y[j] += a[i * n + j] * tmp;
        }
    }
    checksum(&y)
}

const ATAX_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* x = vec(n); double* y = vec(n);
    int i; int j;
    for (i = 0; i < n; i = i + 1) {
        x[i] = fv(i, n); y[i] = 0.0;
        for (j = 0; j < n; j = j + 1) { a[i*n+j] = fa(i, j, n); }
    }
    for (i = 0; i < n; i = i + 1) {
        double tmp = 0.0;
        for (j = 0; j < n; j = j + 1) { tmp = tmp + a[i*n+j] * x[j]; }
        for (j = 0; j < n; j = j + 1) { y[j] = y[j] + a[i*n+j] * tmp; }
    }
    return sum1(y, n);
}
"#
);

fn native_bicg(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n));
    let p: Vec<f64> = (0..n).map(|i| fv(i, n)).collect();
    let r: Vec<f64> = (0..n).map(|i| fv(i + 1, n)).collect();
    let mut s = vec![0.0; n];
    let mut q = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            s[j] += r[i] * a[i * n + j];
            q[i] += a[i * n + j] * p[j];
        }
    }
    checksum(&s) + checksum(&q)
}

const BICG_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* p = vec(n); double* r = vec(n);
    double* s = vec(n); double* q = vec(n);
    int i; int j;
    for (i = 0; i < n; i = i + 1) {
        p[i] = fv(i, n); r[i] = fv(i + 1, n); s[i] = 0.0; q[i] = 0.0;
        for (j = 0; j < n; j = j + 1) { a[i*n+j] = fa(i, j, n); }
    }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            s[j] = s[j] + r[i] * a[i*n+j];
            q[i] = q[i] + a[i*n+j] * p[j];
        }
    }
    return sum1(s, n) + sum1(q, n);
}
"#
);

fn native_mvt(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n));
    let y1: Vec<f64> = (0..n).map(|i| fv(i, n)).collect();
    let y2: Vec<f64> = (0..n).map(|i| fv(i + 3, n)).collect();
    let mut x1: Vec<f64> = (0..n).map(|i| fv(i + 1, n)).collect();
    let mut x2: Vec<f64> = (0..n).map(|i| fv(i + 2, n)).collect();
    for i in 0..n {
        for j in 0..n {
            x1[i] += a[i * n + j] * y1[j];
        }
    }
    for i in 0..n {
        for j in 0..n {
            x2[i] += a[j * n + i] * y2[j];
        }
    }
    checksum(&x1) + checksum(&x2)
}

const MVT_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* x1 = vec(n); double* x2 = vec(n);
    double* y1 = vec(n); double* y2 = vec(n);
    int i; int j;
    for (i = 0; i < n; i = i + 1) {
        x1[i] = fv(i + 1, n); x2[i] = fv(i + 2, n);
        y1[i] = fv(i, n); y2[i] = fv(i + 3, n);
        for (j = 0; j < n; j = j + 1) { a[i*n+j] = fa(i, j, n); }
    }
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        x1[i] = x1[i] + a[i*n+j] * y1[j]; } }
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        x2[i] = x2[i] + a[j*n+i] * y2[j]; } }
    return sum1(x1, n) + sum1(x2, n);
}
"#
);

fn native_gesummv(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n));
    let b = init_2d(n, |i, j| fb(i, j, n));
    let x: Vec<f64> = (0..n).map(|i| fv(i, n)).collect();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut tmp = 0.0;
        let mut yv = 0.0;
        for j in 0..n {
            tmp += a[i * n + j] * x[j];
            yv += b[i * n + j] * x[j];
        }
        y[i] = 1.5 * tmp + 1.2 * yv;
    }
    checksum(&y)
}

const GESUMMV_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* b = mat(n); double* x = vec(n); double* y = vec(n);
    int i; int j;
    for (i = 0; i < n; i = i + 1) {
        x[i] = fv(i, n);
        for (j = 0; j < n; j = j + 1) { a[i*n+j] = fa(i, j, n); b[i*n+j] = fb(i, j, n); }
    }
    for (i = 0; i < n; i = i + 1) {
        double tmp = 0.0; double yv = 0.0;
        for (j = 0; j < n; j = j + 1) {
            tmp = tmp + a[i*n+j] * x[j];
            yv = yv + b[i*n+j] * x[j];
        }
        y[i] = 1.5 * tmp + 1.2 * yv;
    }
    return sum1(y, n);
}
"#
);

fn native_gemver(n: usize) -> f64 {
    let mut a = init_2d(n, |i, j| fa(i, j, n));
    let u1: Vec<f64> = (0..n).map(|i| fv(i, n)).collect();
    let v1: Vec<f64> = (0..n).map(|i| fv(i + 1, n)).collect();
    let u2: Vec<f64> = (0..n).map(|i| fv(i + 2, n)).collect();
    let v2: Vec<f64> = (0..n).map(|i| fv(i + 3, n)).collect();
    let y: Vec<f64> = (0..n).map(|i| fv(i + 4, n)).collect();
    let z: Vec<f64> = (0..n).map(|i| fv(i + 5, n)).collect();
    let mut x = vec![0.0; n];
    let mut w = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] += u1[i] * v1[j] + u2[i] * v2[j];
        }
    }
    for i in 0..n {
        for j in 0..n {
            x[i] += 1.2 * a[j * n + i] * y[j];
        }
    }
    for i in 0..n {
        x[i] += z[i];
    }
    for i in 0..n {
        for j in 0..n {
            w[i] += 1.5 * a[i * n + j] * x[j];
        }
    }
    checksum(&w)
}

const GEMVER_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n);
    double* u1 = vec(n); double* v1 = vec(n); double* u2 = vec(n); double* v2 = vec(n);
    double* y = vec(n); double* z = vec(n); double* x = vec(n); double* w = vec(n);
    int i; int j;
    for (i = 0; i < n; i = i + 1) {
        u1[i] = fv(i, n); v1[i] = fv(i + 1, n); u2[i] = fv(i + 2, n); v2[i] = fv(i + 3, n);
        y[i] = fv(i + 4, n); z[i] = fv(i + 5, n); x[i] = 0.0; w[i] = 0.0;
        for (j = 0; j < n; j = j + 1) { a[i*n+j] = fa(i, j, n); }
    }
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        a[i*n+j] = a[i*n+j] + u1[i] * v1[j] + u2[i] * v2[j]; } }
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        x[i] = x[i] + 1.2 * a[j*n+i] * y[j]; } }
    for (i = 0; i < n; i = i + 1) { x[i] = x[i] + z[i]; }
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        w[i] = w[i] + 1.5 * a[i*n+j] * x[j]; } }
    return sum1(w, n);
}
"#
);

fn native_syrk(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n));
    let mut c = init_2d(n, |i, j| fb(i, j, n));
    for i in 0..n {
        for j in 0..=i {
            c[i * n + j] *= 1.2;
        }
        for k in 0..n {
            for j in 0..=i {
                c[i * n + j] += 1.5 * a[i * n + k] * a[j * n + k];
            }
        }
    }
    checksum(&c)
}

const SYRK_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* c = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        a[i*n+j] = fa(i, j, n); c[i*n+j] = fb(i, j, n); } }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j <= i; j = j + 1) { c[i*n+j] = c[i*n+j] * 1.2; }
        for (k = 0; k < n; k = k + 1) {
            for (j = 0; j <= i; j = j + 1) {
                c[i*n+j] = c[i*n+j] + 1.5 * a[i*n+k] * a[j*n+k];
            }
        }
    }
    return sum2(c, n);
}
"#
);

fn native_syr2k(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n));
    let b = init_2d(n, |i, j| fb(i, j, n));
    let mut c = init_2d(n, |i, j| ((i + 2 * j) % n) as f64 / n as f64);
    for i in 0..n {
        for j in 0..=i {
            c[i * n + j] *= 1.2;
        }
        for k in 0..n {
            for j in 0..=i {
                c[i * n + j] +=
                    a[j * n + k] * 1.5 * b[i * n + k] + b[j * n + k] * 1.5 * a[i * n + k];
            }
        }
    }
    checksum(&c)
}

const SYR2K_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* b = mat(n); double* c = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        a[i*n+j] = fa(i, j, n); b[i*n+j] = fb(i, j, n);
        c[i*n+j] = (double)((i + 2 * j) % n) / (double)n; } }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j <= i; j = j + 1) { c[i*n+j] = c[i*n+j] * 1.2; }
        for (k = 0; k < n; k = k + 1) {
            for (j = 0; j <= i; j = j + 1) {
                c[i*n+j] = c[i*n+j] + a[j*n+k] * 1.5 * b[i*n+k] + b[j*n+k] * 1.5 * a[i*n+k];
            }
        }
    }
    return sum2(c, n);
}
"#
);

fn native_symm(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n)); // symmetric-by-convention
    let b = init_2d(n, |i, j| fb(i, j, n));
    let mut c = init_2d(n, |i, j| ((3 * i + j) % n) as f64 / n as f64);
    for i in 0..n {
        for j in 0..n {
            let mut temp2 = 0.0;
            for k in 0..i {
                c[k * n + j] += 1.5 * b[i * n + j] * a[i * n + k];
                temp2 += b[k * n + j] * a[i * n + k];
            }
            c[i * n + j] = 1.2 * c[i * n + j] + 1.5 * b[i * n + j] * a[i * n + i] + 1.5 * temp2;
        }
    }
    checksum(&c)
}

const SYMM_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* b = mat(n); double* c = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        a[i*n+j] = fa(i, j, n); b[i*n+j] = fb(i, j, n);
        c[i*n+j] = (double)((3 * i + j) % n) / (double)n; } }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            double temp2 = 0.0;
            for (k = 0; k < i; k = k + 1) {
                c[k*n+j] = c[k*n+j] + 1.5 * b[i*n+j] * a[i*n+k];
                temp2 = temp2 + b[k*n+j] * a[i*n+k];
            }
            c[i*n+j] = 1.2 * c[i*n+j] + 1.5 * b[i*n+j] * a[i*n+i] + 1.5 * temp2;
        }
    }
    return sum2(c, n);
}
"#
);

fn native_trmm(n: usize) -> f64 {
    let a = init_2d(n, |i, j| fa(i, j, n));
    let mut b = init_2d(n, |i, j| fb(i, j, n));
    for i in 0..n {
        for j in 0..n {
            for k in i + 1..n {
                b[i * n + j] += a[k * n + i] * b[k * n + j];
            }
            b[i * n + j] *= 1.5;
        }
    }
    checksum(&b)
}

const TRMM_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* b = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        a[i*n+j] = fa(i, j, n); b[i*n+j] = fb(i, j, n); } }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            for (k = i + 1; k < n; k = k + 1) {
                b[i*n+j] = b[i*n+j] + a[k*n+i] * b[k*n+j];
            }
            b[i*n+j] = b[i*n+j] * 1.5;
        }
    }
    return sum2(b, n);
}
"#
);

fn native_trisolv(n: usize) -> f64 {
    let l = init_2d(n, |i, j| if j <= i { fa(i, j, n) + 1.0 } else { 0.0 });
    let b: Vec<f64> = (0..n).map(|i| fv(i, n)).collect();
    let mut x = vec![0.0; n];
    for i in 0..n {
        x[i] = b[i];
        for j in 0..i {
            x[i] -= l[i * n + j] * x[j];
        }
        x[i] /= l[i * n + i];
    }
    checksum(&x)
}

const TRISOLV_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* l = mat(n); double* b = vec(n); double* x = vec(n);
    int i; int j;
    for (i = 0; i < n; i = i + 1) {
        b[i] = fv(i, n);
        for (j = 0; j < n; j = j + 1) {
            l[i*n+j] = j <= i ? fa(i, j, n) + 1.0 : 0.0;
        }
    }
    for (i = 0; i < n; i = i + 1) {
        x[i] = b[i];
        for (j = 0; j < i; j = j + 1) { x[i] = x[i] - l[i*n+j] * x[j]; }
        x[i] = x[i] / l[i*n+i];
    }
    return sum1(x, n);
}
"#
);

fn native_lu(n: usize) -> f64 {
    // Diagonally dominant init keeps the factorisation stable.
    let mut a = init_2d(n, |i, j| if i == j { n as f64 } else { fa(i, j, n) });
    for i in 0..n {
        for j in 0..i {
            for k in 0..j {
                a[i * n + j] -= a[i * n + k] * a[k * n + j];
            }
            a[i * n + j] /= a[j * n + j];
        }
        for j in i..n {
            for k in 0..i {
                a[i * n + j] -= a[i * n + k] * a[k * n + j];
            }
        }
    }
    checksum(&a)
}

const LU_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        a[i*n+j] = i == j ? (double)n : fa(i, j, n); } }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < i; j = j + 1) {
            for (k = 0; k < j; k = k + 1) { a[i*n+j] = a[i*n+j] - a[i*n+k] * a[k*n+j]; }
            a[i*n+j] = a[i*n+j] / a[j*n+j];
        }
        for (j = i; j < n; j = j + 1) {
            for (k = 0; k < i; k = k + 1) { a[i*n+j] = a[i*n+j] - a[i*n+k] * a[k*n+j]; }
        }
    }
    return sum2(a, n);
}
"#
);

fn native_ludcmp(n: usize) -> f64 {
    let mut a = init_2d(n, |i, j| if i == j { n as f64 } else { fa(i, j, n) });
    let b: Vec<f64> = (0..n).map(|i| fv(i, n)).collect();
    let mut y = vec![0.0; n];
    let mut x = vec![0.0; n];
    // LU factorisation (as native_lu) ...
    for i in 0..n {
        for j in 0..i {
            for k in 0..j {
                a[i * n + j] -= a[i * n + k] * a[k * n + j];
            }
            a[i * n + j] /= a[j * n + j];
        }
        for j in i..n {
            for k in 0..i {
                a[i * n + j] -= a[i * n + k] * a[k * n + j];
            }
        }
    }
    // ... plus forward/back substitution.
    for i in 0..n {
        y[i] = b[i];
        for j in 0..i {
            y[i] -= a[i * n + j] * y[j];
        }
    }
    for i in (0..n).rev() {
        x[i] = y[i];
        for j in i + 1..n {
            x[i] -= a[i * n + j] * x[j];
        }
        x[i] /= a[i * n + i];
    }
    checksum(&x)
}

const LUDCMP_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* b = vec(n); double* y = vec(n); double* x = vec(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) {
        b[i] = fv(i, n);
        for (j = 0; j < n; j = j + 1) { a[i*n+j] = i == j ? (double)n : fa(i, j, n); }
    }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < i; j = j + 1) {
            for (k = 0; k < j; k = k + 1) { a[i*n+j] = a[i*n+j] - a[i*n+k] * a[k*n+j]; }
            a[i*n+j] = a[i*n+j] / a[j*n+j];
        }
        for (j = i; j < n; j = j + 1) {
            for (k = 0; k < i; k = k + 1) { a[i*n+j] = a[i*n+j] - a[i*n+k] * a[k*n+j]; }
        }
    }
    for (i = 0; i < n; i = i + 1) {
        y[i] = b[i];
        for (j = 0; j < i; j = j + 1) { y[i] = y[i] - a[i*n+j] * y[j]; }
    }
    for (i = n - 1; i >= 0; i = i - 1) {
        x[i] = y[i];
        for (j = i + 1; j < n; j = j + 1) { x[i] = x[i] - a[i*n+j] * x[j]; }
        x[i] = x[i] / a[i*n+i];
    }
    return sum1(x, n);
}
"#
);

fn native_cholesky(n: usize) -> f64 {
    // SPD-ish matrix: diagonal dominance.
    let mut a = init_2d(n, |i, j| {
        if i == j {
            n as f64 + 1.0
        } else {
            fa(i.min(j), i.max(j), n)
        }
    });
    for i in 0..n {
        for j in 0..i {
            for k in 0..j {
                a[i * n + j] -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] /= a[j * n + j];
        }
        for k in 0..i {
            a[i * n + i] -= a[i * n + k] * a[i * n + k];
        }
        a[i * n + i] = a[i * n + i].sqrt();
    }
    checksum(&a)
}

const CHOLESKY_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        int lo = i < j ? i : j;
        int hi = i < j ? j : i;
        a[i*n+j] = i == j ? (double)n + 1.0 : fa(lo, hi, n);
    } }
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < i; j = j + 1) {
            for (k = 0; k < j; k = k + 1) { a[i*n+j] = a[i*n+j] - a[i*n+k] * a[j*n+k]; }
            a[i*n+j] = a[i*n+j] / a[j*n+j];
        }
        for (k = 0; k < i; k = k + 1) { a[i*n+i] = a[i*n+i] - a[i*n+k] * a[i*n+k]; }
        a[i*n+i] = sqrt(a[i*n+i]);
    }
    return sum2(a, n);
}
"#
);

fn native_gramschmidt(n: usize) -> f64 {
    let mut a = init_2d(n, |i, j| fa(i, j, n) + if i == j { 1.0 } else { 0.0 });
    let mut r = vec![0.0; n * n];
    let mut q = vec![0.0; n * n];
    for k in 0..n {
        let mut nrm = 0.0;
        for i in 0..n {
            nrm += a[i * n + k] * a[i * n + k];
        }
        r[k * n + k] = nrm.sqrt();
        for i in 0..n {
            q[i * n + k] = a[i * n + k] / r[k * n + k];
        }
        for j in k + 1..n {
            r[k * n + j] = 0.0;
            for i in 0..n {
                r[k * n + j] += q[i * n + k] * a[i * n + j];
            }
            for i in 0..n {
                a[i * n + j] -= q[i * n + k] * r[k * n + j];
            }
        }
    }
    checksum(&r) + checksum(&q)
}

const GRAMSCHMIDT_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* r = mat(n); double* q = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        a[i*n+j] = fa(i, j, n) + (i == j ? 1.0 : 0.0);
        r[i*n+j] = 0.0; q[i*n+j] = 0.0; } }
    for (k = 0; k < n; k = k + 1) {
        double nrm = 0.0;
        for (i = 0; i < n; i = i + 1) { nrm = nrm + a[i*n+k] * a[i*n+k]; }
        r[k*n+k] = sqrt(nrm);
        for (i = 0; i < n; i = i + 1) { q[i*n+k] = a[i*n+k] / r[k*n+k]; }
        for (j = k + 1; j < n; j = j + 1) {
            r[k*n+j] = 0.0;
            for (i = 0; i < n; i = i + 1) { r[k*n+j] = r[k*n+j] + q[i*n+k] * a[i*n+j]; }
            for (i = 0; i < n; i = i + 1) { a[i*n+j] = a[i*n+j] - q[i*n+k] * r[k*n+j]; }
        }
    }
    return sum2(r, n) + sum2(q, n);
}
"#
);

fn native_durbin(n: usize) -> f64 {
    let r: Vec<f64> = (0..n).map(|i| fv(i + 1, n)).collect();
    let mut y = vec![0.0; n];
    let mut z = vec![0.0; n];
    y[0] = -r[0];
    let mut beta = 1.0;
    let mut alpha = -r[0];
    for k in 1..n {
        beta *= 1.0 - alpha * alpha;
        let mut s = 0.0;
        for i in 0..k {
            s += r[k - i - 1] * y[i];
        }
        alpha = -(r[k] + s) / beta;
        for i in 0..k {
            z[i] = y[i] + alpha * y[k - i - 1];
        }
        y[..k].copy_from_slice(&z[..k]);
        y[k] = alpha;
    }
    checksum(&y)
}

const DURBIN_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* r = vec(n); double* y = vec(n); double* z = vec(n);
    int i; int k;
    for (i = 0; i < n; i = i + 1) { r[i] = fv(i + 1, n); y[i] = 0.0; z[i] = 0.0; }
    y[0] = 0.0 - r[0];
    double beta = 1.0;
    double alpha = 0.0 - r[0];
    for (k = 1; k < n; k = k + 1) {
        beta = (1.0 - alpha * alpha) * beta;
        double s = 0.0;
        for (i = 0; i < k; i = i + 1) { s = s + r[k - i - 1] * y[i]; }
        alpha = (0.0 - (r[k] + s)) / beta;
        for (i = 0; i < k; i = i + 1) { z[i] = y[i] + alpha * y[k - i - 1]; }
        for (i = 0; i < k; i = i + 1) { y[i] = z[i]; }
        y[k] = alpha;
    }
    return sum1(y, n);
}
"#
);

fn native_jacobi1d(n: usize) -> f64 {
    let mut a: Vec<f64> = (0..n).map(|i| (i as f64 + 2.0) / n as f64).collect();
    let mut b: Vec<f64> = (0..n).map(|i| (i as f64 + 3.0) / n as f64).collect();
    for _ in 0..TSTEPS {
        for i in 1..n - 1 {
            b[i] = 0.33333 * (a[i - 1] + a[i] + a[i + 1]);
        }
        for i in 1..n - 1 {
            a[i] = 0.33333 * (b[i - 1] + b[i] + b[i + 1]);
        }
    }
    checksum(&a)
}

const JACOBI1D_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = vec(n); double* b = vec(n);
    int i; int t;
    for (i = 0; i < n; i = i + 1) {
        a[i] = ((double)i + 2.0) / (double)n;
        b[i] = ((double)i + 3.0) / (double)n;
    }
    for (t = 0; t < 4; t = t + 1) {
        for (i = 1; i < n - 1; i = i + 1) { b[i] = 0.33333 * (a[i-1] + a[i] + a[i+1]); }
        for (i = 1; i < n - 1; i = i + 1) { a[i] = 0.33333 * (b[i-1] + b[i] + b[i+1]); }
    }
    return sum1(a, n);
}
"#
);

fn native_jacobi2d(n: usize) -> f64 {
    let mut a = init_2d(n, |i, j| fa(i, j, n));
    let mut b = init_2d(n, |i, j| fb(i, j, n));
    for _ in 0..TSTEPS {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                b[i * n + j] = 0.2
                    * (a[i * n + j]
                        + a[i * n + j - 1]
                        + a[i * n + j + 1]
                        + a[(i + 1) * n + j]
                        + a[(i - 1) * n + j]);
            }
        }
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                a[i * n + j] = 0.2
                    * (b[i * n + j]
                        + b[i * n + j - 1]
                        + b[i * n + j + 1]
                        + b[(i + 1) * n + j]
                        + b[(i - 1) * n + j]);
            }
        }
    }
    checksum(&a)
}

const JACOBI2D_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n); double* b = mat(n);
    int i; int j; int t;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        a[i*n+j] = fa(i, j, n); b[i*n+j] = fb(i, j, n); } }
    for (t = 0; t < 4; t = t + 1) {
        for (i = 1; i < n - 1; i = i + 1) { for (j = 1; j < n - 1; j = j + 1) {
            b[i*n+j] = 0.2 * (a[i*n+j] + a[i*n+j-1] + a[i*n+j+1] + a[(i+1)*n+j] + a[(i-1)*n+j]); } }
        for (i = 1; i < n - 1; i = i + 1) { for (j = 1; j < n - 1; j = j + 1) {
            a[i*n+j] = 0.2 * (b[i*n+j] + b[i*n+j-1] + b[i*n+j+1] + b[(i+1)*n+j] + b[(i-1)*n+j]); } }
    }
    return sum2(a, n);
}
"#
);

fn native_seidel2d(n: usize) -> f64 {
    let mut a = init_2d(n, |i, j| fa(i, j, n));
    for _ in 0..TSTEPS {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                a[i * n + j] = (a[(i - 1) * n + j - 1]
                    + a[(i - 1) * n + j]
                    + a[(i - 1) * n + j + 1]
                    + a[i * n + j - 1]
                    + a[i * n + j]
                    + a[i * n + j + 1]
                    + a[(i + 1) * n + j - 1]
                    + a[(i + 1) * n + j]
                    + a[(i + 1) * n + j + 1])
                    / 9.0;
            }
        }
    }
    checksum(&a)
}

const SEIDEL2D_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = mat(n);
    int i; int j; int t;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) { a[i*n+j] = fa(i, j, n); } }
    for (t = 0; t < 4; t = t + 1) {
        for (i = 1; i < n - 1; i = i + 1) { for (j = 1; j < n - 1; j = j + 1) {
            a[i*n+j] = (a[(i-1)*n+j-1] + a[(i-1)*n+j] + a[(i-1)*n+j+1]
                      + a[i*n+j-1] + a[i*n+j] + a[i*n+j+1]
                      + a[(i+1)*n+j-1] + a[(i+1)*n+j] + a[(i+1)*n+j+1]) / 9.0; } }
    }
    return sum2(a, n);
}
"#
);

fn native_fdtd2d(n: usize) -> f64 {
    let mut ex = init_2d(n, |i, j| fa(i, j, n));
    let mut ey = init_2d(n, |i, j| fb(i, j, n));
    let mut hz = init_2d(n, |i, j| ((i + j + 2) % n) as f64 / n as f64);
    for t in 0..TSTEPS {
        for e in ey.iter_mut().take(n) {
            *e = t as f64;
        }
        for i in 1..n {
            for j in 0..n {
                ey[i * n + j] -= 0.5 * (hz[i * n + j] - hz[(i - 1) * n + j]);
            }
        }
        for i in 0..n {
            for j in 1..n {
                ex[i * n + j] -= 0.5 * (hz[i * n + j] - hz[i * n + j - 1]);
            }
        }
        for i in 0..n - 1 {
            for j in 0..n - 1 {
                hz[i * n + j] -=
                    0.7 * (ex[i * n + j + 1] - ex[i * n + j] + ey[(i + 1) * n + j] - ey[i * n + j]);
            }
        }
    }
    checksum(&hz)
}

const FDTD2D_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* ex = mat(n); double* ey = mat(n); double* hz = mat(n);
    int i; int j; int t;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        ex[i*n+j] = fa(i, j, n); ey[i*n+j] = fb(i, j, n);
        hz[i*n+j] = (double)((i + j + 2) % n) / (double)n; } }
    for (t = 0; t < 4; t = t + 1) {
        for (j = 0; j < n; j = j + 1) { ey[j] = (double)t; }
        for (i = 1; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
            ey[i*n+j] = ey[i*n+j] - 0.5 * (hz[i*n+j] - hz[(i-1)*n+j]); } }
        for (i = 0; i < n; i = i + 1) { for (j = 1; j < n; j = j + 1) {
            ex[i*n+j] = ex[i*n+j] - 0.5 * (hz[i*n+j] - hz[i*n+j-1]); } }
        for (i = 0; i < n - 1; i = i + 1) { for (j = 0; j < n - 1; j = j + 1) {
            hz[i*n+j] = hz[i*n+j] - 0.7 * (ex[i*n+j+1] - ex[i*n+j] + ey[(i+1)*n+j] - ey[i*n+j]); } }
    }
    return sum2(hz, n);
}
"#
);

fn native_heat3d(n: usize) -> f64 {
    // n is the edge of a cube; keep it modest in benches.
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
    let mut a = vec![0.0; n * n * n];
    let mut b = vec![0.0; n * n * n];
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                a[idx(i, j, k)] = ((i + j + (n - k)) * 10) as f64 / n as f64;
                b[idx(i, j, k)] = a[idx(i, j, k)];
            }
        }
    }
    for _ in 0..TSTEPS {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                for k in 1..n - 1 {
                    b[idx(i, j, k)] = 0.125
                        * (a[idx(i + 1, j, k)] - 2.0 * a[idx(i, j, k)] + a[idx(i - 1, j, k)])
                        + 0.125
                            * (a[idx(i, j + 1, k)] - 2.0 * a[idx(i, j, k)] + a[idx(i, j - 1, k)])
                        + 0.125
                            * (a[idx(i, j, k + 1)] - 2.0 * a[idx(i, j, k)] + a[idx(i, j, k - 1)])
                        + a[idx(i, j, k)];
                }
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    checksum(&a)
}

const HEAT3D_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = (double*)alloc(n * n * n * 8);
    double* b = (double*)alloc(n * n * n * 8);
    int i; int j; int k; int t;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) { for (k = 0; k < n; k = k + 1) {
        a[(i*n+j)*n+k] = (double)((i + j + (n - k)) * 10) / (double)n;
        b[(i*n+j)*n+k] = a[(i*n+j)*n+k]; } } }
    for (t = 0; t < 4; t = t + 1) {
        for (i = 1; i < n - 1; i = i + 1) { for (j = 1; j < n - 1; j = j + 1) {
            for (k = 1; k < n - 1; k = k + 1) {
                b[(i*n+j)*n+k] = 0.125 * (a[((i+1)*n+j)*n+k] - 2.0 * a[(i*n+j)*n+k] + a[((i-1)*n+j)*n+k])
                    + 0.125 * (a[(i*n+j+1)*n+k] - 2.0 * a[(i*n+j)*n+k] + a[(i*n+j-1)*n+k])
                    + 0.125 * (a[(i*n+j)*n+k+1] - 2.0 * a[(i*n+j)*n+k] + a[(i*n+j)*n+k-1])
                    + a[(i*n+j)*n+k];
            } } }
        double* tmp = a; a = b; b = tmp;
    }
    double s = 0.0;
    for (i = 0; i < n * n * n; i = i + 1) { s = s + a[i]; }
    return s;
}
"#
);

fn native_adi(n: usize) -> f64 {
    // Simplified alternating-direction sweeps (row pass then column pass),
    // preserving the kernel's memory-access structure.
    let mut u = init_2d(n, |i, j| fa(i, j, n));
    let mut v = vec![0.0; n * n];
    for _ in 0..TSTEPS {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                v[i * n + j] = 0.25 * (u[i * n + j - 1] + 2.0 * u[i * n + j] + u[i * n + j + 1]);
            }
        }
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                u[i * n + j] =
                    0.25 * (v[(i - 1) * n + j] + 2.0 * v[i * n + j] + v[(i + 1) * n + j]);
            }
        }
    }
    checksum(&u)
}

const ADI_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* u = mat(n); double* v = mat(n);
    int i; int j; int t;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        u[i*n+j] = fa(i, j, n); v[i*n+j] = 0.0; } }
    for (t = 0; t < 4; t = t + 1) {
        for (i = 1; i < n - 1; i = i + 1) { for (j = 1; j < n - 1; j = j + 1) {
            v[i*n+j] = 0.25 * (u[i*n+j-1] + 2.0 * u[i*n+j] + u[i*n+j+1]); } }
        for (i = 1; i < n - 1; i = i + 1) { for (j = 1; j < n - 1; j = j + 1) {
            u[i*n+j] = 0.25 * (v[(i-1)*n+j] + 2.0 * v[i*n+j] + v[(i+1)*n+j]); } }
    }
    return sum2(u, n);
}
"#
);

fn native_correlation(n: usize) -> f64 {
    let data = init_2d(n, |i, j| fa(i, j, n) + fb(j, i, n));
    let mut mean = vec![0.0; n];
    let mut stddev = vec![0.0; n];
    let mut corr = init_2d(n, |i, j| if i == j { 1.0 } else { 0.0 });
    for j in 0..n {
        for i in 0..n {
            mean[j] += data[i * n + j];
        }
        mean[j] /= n as f64;
    }
    for j in 0..n {
        for i in 0..n {
            let d = data[i * n + j] - mean[j];
            stddev[j] += d * d;
        }
        stddev[j] = (stddev[j] / n as f64).sqrt();
        if stddev[j] <= 0.1 {
            stddev[j] = 1.0;
        }
    }
    for i in 0..n - 1 {
        for j in i + 1..n {
            let mut c = 0.0;
            for k in 0..n {
                c += (data[k * n + i] - mean[i]) * (data[k * n + j] - mean[j]);
            }
            c /= n as f64 * stddev[i] * stddev[j];
            corr[i * n + j] = c;
            corr[j * n + i] = c;
        }
    }
    checksum(&corr)
}

const CORRELATION_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* data = mat(n); double* mean = vec(n); double* stddev = vec(n); double* corr = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        data[i*n+j] = fa(i, j, n) + fb(j, i, n);
        corr[i*n+j] = i == j ? 1.0 : 0.0; } }
    for (j = 0; j < n; j = j + 1) {
        mean[j] = 0.0;
        for (i = 0; i < n; i = i + 1) { mean[j] = mean[j] + data[i*n+j]; }
        mean[j] = mean[j] / (double)n;
    }
    for (j = 0; j < n; j = j + 1) {
        stddev[j] = 0.0;
        for (i = 0; i < n; i = i + 1) {
            double d = data[i*n+j] - mean[j];
            stddev[j] = stddev[j] + d * d;
        }
        stddev[j] = sqrt(stddev[j] / (double)n);
        if (stddev[j] <= 0.1) { stddev[j] = 1.0; }
    }
    for (i = 0; i < n - 1; i = i + 1) {
        for (j = i + 1; j < n; j = j + 1) {
            double c = 0.0;
            for (k = 0; k < n; k = k + 1) {
                c = c + (data[k*n+i] - mean[i]) * (data[k*n+j] - mean[j]);
            }
            c = c / ((double)n * stddev[i] * stddev[j]);
            corr[i*n+j] = c;
            corr[j*n+i] = c;
        }
    }
    return sum2(corr, n);
}
"#
);

fn native_covariance(n: usize) -> f64 {
    let data = init_2d(n, |i, j| fa(i, j, n) + fb(j, i, n));
    let mut mean = vec![0.0; n];
    let mut cov = vec![0.0; n * n];
    for j in 0..n {
        for i in 0..n {
            mean[j] += data[i * n + j];
        }
        mean[j] /= n as f64;
    }
    for i in 0..n {
        for j in i..n {
            let mut c = 0.0;
            for k in 0..n {
                c += (data[k * n + i] - mean[i]) * (data[k * n + j] - mean[j]);
            }
            c /= (n - 1) as f64;
            cov[i * n + j] = c;
            cov[j * n + i] = c;
        }
    }
    checksum(&cov)
}

const COVARIANCE_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* data = mat(n); double* mean = vec(n); double* cov = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        data[i*n+j] = fa(i, j, n) + fb(j, i, n); cov[i*n+j] = 0.0; } }
    for (j = 0; j < n; j = j + 1) {
        mean[j] = 0.0;
        for (i = 0; i < n; i = i + 1) { mean[j] = mean[j] + data[i*n+j]; }
        mean[j] = mean[j] / (double)n;
    }
    for (i = 0; i < n; i = i + 1) {
        for (j = i; j < n; j = j + 1) {
            double c = 0.0;
            for (k = 0; k < n; k = k + 1) {
                c = c + (data[k*n+i] - mean[i]) * (data[k*n+j] - mean[j]);
            }
            c = c / (double)(n - 1);
            cov[i*n+j] = c;
            cov[j*n+i] = c;
        }
    }
    return sum2(cov, n);
}
"#
);

fn native_doitgen(n: usize) -> f64 {
    // A[r][q][p], C4[p][p]; n plays NR=NQ=NP.
    let mut a = vec![0.0; n * n * n];
    let c4 = init_2d(n, |i, j| fa(i, j, n));
    let mut sum = vec![0.0; n];
    for r in 0..n {
        for q in 0..n {
            for p in 0..n {
                a[(r * n + q) * n + p] = ((r * q + p) % n) as f64 / n as f64;
            }
        }
    }
    for r in 0..n {
        for q in 0..n {
            for p in 0..n {
                sum[p] = 0.0;
                for s in 0..n {
                    sum[p] += a[(r * n + q) * n + s] * c4[s * n + p];
                }
            }
            for p in 0..n {
                a[(r * n + q) * n + p] = sum[p];
            }
        }
    }
    checksum(&a)
}

const DOITGEN_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* a = (double*)alloc(n * n * n * 8);
    double* c4 = mat(n); double* sum = vec(n);
    int r; int q; int p; int s;
    for (r = 0; r < n; r = r + 1) { for (q = 0; q < n; q = q + 1) { for (p = 0; p < n; p = p + 1) {
        a[(r*n+q)*n+p] = (double)((r * q + p) % n) / (double)n; } } }
    for (r = 0; r < n; r = r + 1) { for (q = 0; q < n; q = q + 1) {
        c4[r*n+q] = fa(r, q, n); } }
    for (r = 0; r < n; r = r + 1) {
        for (q = 0; q < n; q = q + 1) {
            for (p = 0; p < n; p = p + 1) {
                sum[p] = 0.0;
                for (s = 0; s < n; s = s + 1) { sum[p] = sum[p] + a[(r*n+q)*n+s] * c4[s*n+p]; }
            }
            for (p = 0; p < n; p = p + 1) { a[(r*n+q)*n+p] = sum[p]; }
        }
    }
    double total = 0.0;
    for (r = 0; r < n * n * n; r = r + 1) { total = total + a[r]; }
    return total;
}
"#
);

fn native_floyd_warshall(n: usize) -> f64 {
    let mut path = init_2d(n, |i, j| {
        if i == j {
            0.0
        } else {
            ((i * j) % 7 + 1) as f64 + if (i + j) % 13 == 0 { 100.0 } else { 0.0 }
        }
    });
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = path[i * n + k] + path[k * n + j];
                if via < path[i * n + j] {
                    path[i * n + j] = via;
                }
            }
        }
    }
    checksum(&path)
}

const FLOYD_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* path = mat(n);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        path[i*n+j] = i == j ? 0.0
            : (double)((i * j) % 7 + 1) + ((i + j) % 13 == 0 ? 100.0 : 0.0); } }
    for (k = 0; k < n; k = k + 1) {
        for (i = 0; i < n; i = i + 1) {
            for (j = 0; j < n; j = j + 1) {
                double via = path[i*n+k] + path[k*n+j];
                if (via < path[i*n+j]) { path[i*n+j] = via; }
            }
        }
    }
    return sum2(path, n);
}
"#
);

fn native_nussinov(n: usize) -> f64 {
    // RNA base-pair DP over a synthetic sequence.
    let seq: Vec<i64> = (0..n).map(|i| i as i64 % 4).collect();
    let mut table = vec![0.0f64; n * n];
    let matches = |a: i64, b: i64| i64::from(a + b == 3);
    for i in (0..n).rev() {
        for j in i + 1..n {
            let mut best = table[i * n + j];
            if j >= 1 {
                best = best.max(table[i * n + j - 1]);
            }
            if i + 1 < n {
                best = best.max(table[(i + 1) * n + j]);
            }
            if i + 1 < n && j >= 1 {
                let diag = table[(i + 1) * n + j - 1]
                    + if i < j {
                        matches(seq[i], seq[j]) as f64
                    } else {
                        0.0
                    };
                best = best.max(diag);
            }
            for k in i + 1..j {
                best = best.max(table[i * n + k] + table[(k + 1) * n + j]);
            }
            table[i * n + j] = best;
        }
    }
    table[n - 1]
}

const NUSSINOV_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* table = mat(n);
    int* seq = (int*)alloc(n * 4);
    int i; int j; int k;
    for (i = 0; i < n; i = i + 1) { seq[i] = i % 4; }
    for (i = 0; i < n * n; i = i + 1) { table[i] = 0.0; }
    for (i = n - 1; i >= 0; i = i - 1) {
        for (j = i + 1; j < n; j = j + 1) {
            double best = table[i*n+j];
            if (j >= 1) { if (table[i*n+j-1] > best) { best = table[i*n+j-1]; } }
            if (i + 1 < n) { if (table[(i+1)*n+j] > best) { best = table[(i+1)*n+j]; } }
            if (i + 1 < n && j >= 1) {
                double diag = table[(i+1)*n+j-1] + (i < j && seq[i] + seq[j] == 3 ? 1.0 : 0.0);
                if (diag > best) { best = diag; }
            }
            for (k = i + 1; k < j; k = k + 1) {
                double split = table[i*n+k] + table[(k+1)*n+j];
                if (split > best) { best = split; }
            }
            table[i*n+j] = best;
        }
    }
    return table[n - 1];
}
"#
);

fn native_deriche(n: usize) -> f64 {
    // Horizontal then vertical 2-tap IIR passes over an n x n image
    // (structure of the Deriche edge detector's recursive filters).
    let img = init_2d(n, |i, j| fa(i, j, n));
    let mut y1 = vec![0.0; n * n];
    let mut y2 = vec![0.0; n * n];
    let (a1, a2, b1) = (0.25, 0.5, 0.6);
    for i in 0..n {
        let mut ym1 = 0.0;
        let mut xm1 = 0.0;
        for j in 0..n {
            y1[i * n + j] = a1 * img[i * n + j] + a2 * xm1 + b1 * ym1;
            xm1 = img[i * n + j];
            ym1 = y1[i * n + j];
        }
    }
    for j in 0..n {
        let mut ym1 = 0.0;
        for i in 0..n {
            y2[i * n + j] = a1 * y1[i * n + j] + b1 * ym1;
            ym1 = y2[i * n + j];
        }
    }
    checksum(&y2)
}

const DERICHE_MC: &str = minic_kernel!(
    r#"
double kernel(int n) {
    double* img = mat(n); double* y1 = mat(n); double* y2 = mat(n);
    int i; int j;
    for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) {
        img[i*n+j] = fa(i, j, n); } }
    for (i = 0; i < n; i = i + 1) {
        double ym1 = 0.0; double xm1 = 0.0;
        for (j = 0; j < n; j = j + 1) {
            y1[i*n+j] = 0.25 * img[i*n+j] + 0.5 * xm1 + 0.6 * ym1;
            xm1 = img[i*n+j];
            ym1 = y1[i*n+j];
        }
    }
    for (j = 0; j < n; j = j + 1) {
        double ym1 = 0.0;
        for (i = 0; i < n; i = i + 1) {
            y2[i*n+j] = 0.25 * y1[i*n+j] + 0.6 * ym1;
            ym1 = y2[i*n+j];
        }
    }
    return sum2(y2, n);
}
"#
);

/// The full 30-kernel suite, in the paper's Fig 5 order.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn suite() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "2mm",
            minic: TWO_MM_MC,
            native: native_two_mm,
        },
        Kernel {
            name: "3mm",
            minic: THREE_MM_MC,
            native: native_three_mm,
        },
        Kernel {
            name: "adi",
            minic: ADI_MC,
            native: native_adi,
        },
        Kernel {
            name: "atax",
            minic: ATAX_MC,
            native: native_atax,
        },
        Kernel {
            name: "bicg",
            minic: BICG_MC,
            native: native_bicg,
        },
        Kernel {
            name: "cholesky",
            minic: CHOLESKY_MC,
            native: native_cholesky,
        },
        Kernel {
            name: "correlation",
            minic: CORRELATION_MC,
            native: native_correlation,
        },
        Kernel {
            name: "covariance",
            minic: COVARIANCE_MC,
            native: native_covariance,
        },
        Kernel {
            name: "deriche",
            minic: DERICHE_MC,
            native: native_deriche,
        },
        Kernel {
            name: "doitgen",
            minic: DOITGEN_MC,
            native: native_doitgen,
        },
        Kernel {
            name: "durbin",
            minic: DURBIN_MC,
            native: native_durbin,
        },
        Kernel {
            name: "fdtd-2d",
            minic: FDTD2D_MC,
            native: native_fdtd2d,
        },
        Kernel {
            name: "floyd-warshall",
            minic: FLOYD_MC,
            native: native_floyd_warshall,
        },
        Kernel {
            name: "gemm",
            minic: GEMM_MC,
            native: native_gemm,
        },
        Kernel {
            name: "gesummv",
            minic: GESUMMV_MC,
            native: native_gesummv,
        },
        Kernel {
            name: "gemver",
            minic: GEMVER_MC,
            native: native_gemver,
        },
        Kernel {
            name: "gramschmidt",
            minic: GRAMSCHMIDT_MC,
            native: native_gramschmidt,
        },
        Kernel {
            name: "heat-3d",
            minic: HEAT3D_MC,
            native: native_heat3d,
        },
        Kernel {
            name: "jacobi-1d",
            minic: JACOBI1D_MC,
            native: native_jacobi1d,
        },
        Kernel {
            name: "jacobi-2d",
            minic: JACOBI2D_MC,
            native: native_jacobi2d,
        },
        Kernel {
            name: "lu",
            minic: LU_MC,
            native: native_lu,
        },
        Kernel {
            name: "ludcmp",
            minic: LUDCMP_MC,
            native: native_ludcmp,
        },
        Kernel {
            name: "mvt",
            minic: MVT_MC,
            native: native_mvt,
        },
        Kernel {
            name: "nussinov",
            minic: NUSSINOV_MC,
            native: native_nussinov,
        },
        Kernel {
            name: "seidel-2d",
            minic: SEIDEL2D_MC,
            native: native_seidel2d,
        },
        Kernel {
            name: "symm",
            minic: SYMM_MC,
            native: native_symm,
        },
        Kernel {
            name: "syr2k",
            minic: SYR2K_MC,
            native: native_syr2k,
        },
        Kernel {
            name: "syrk",
            minic: SYRK_MC,
            native: native_syrk,
        },
        Kernel {
            name: "trisolv",
            minic: TRISOLV_MC,
            native: native_trisolv,
        },
        Kernel {
            name: "trmm",
            minic: TRMM_MC,
            native: native_trmm,
        },
    ]
}

/// Looks up a kernel by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Kernel> {
    suite().into_iter().find(|k| k.name == name)
}

// Keep the standalone prelude constant referenced (it documents the shared
// MiniC helpers used by every kernel source).
const _: &str = MINIC_PRELUDE;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_minic_kernel;
    use watz_wasm::exec::ExecMode;

    #[test]
    fn suite_has_thirty_kernels() {
        let s = suite();
        assert_eq!(s.len(), 30);
        let mut names: Vec<&str> = s.iter().map(|k| k.name).collect();
        names.dedup();
        assert_eq!(names.len(), 30, "kernel names must be unique");
    }

    #[test]
    fn all_minic_kernels_compile() {
        for k in suite() {
            minic::compile(k.minic).unwrap_or_else(|e| panic!("{} failed to compile: {e}", k.name));
        }
    }

    /// Differential check: every kernel's Wasm checksum must match the
    /// native checksum (small n to keep test time sane).
    #[test]
    fn native_and_wasm_agree() {
        let n = 14;
        for k in suite() {
            let native = (k.native)(n);
            let wasm = run_minic_kernel(k.minic, n as i32, ExecMode::Aot);
            let diff = (native - wasm).abs();
            let tolerance = native.abs().max(1.0) * 1e-9;
            assert!(
                diff <= tolerance,
                "{}: native {native} vs wasm {wasm}",
                k.name
            );
        }
    }

    #[test]
    fn interp_and_aot_agree_on_a_sample() {
        for name in ["gemm", "jacobi-2d", "nussinov", "cholesky"] {
            let k = by_name(name).unwrap();
            let a = run_minic_kernel(k.minic, 12, ExecMode::Aot);
            let b = run_minic_kernel(k.minic, 12, ExecMode::Interpreted);
            assert_eq!(a.to_bits(), b.to_bits(), "{name}");
        }
    }

    #[test]
    fn checksums_are_finite_and_nonzero() {
        for k in suite() {
            let v = (k.native)(10);
            assert!(v.is_finite(), "{} produced {v}", k.name);
            assert!(v.abs() > 1e-12, "{} produced a zero checksum", k.name);
        }
    }
}
