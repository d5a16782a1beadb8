//! Seeded input generation. Everything a workload feeds the system is a
//! pure function of `--seed`, so the same seed reproduces the same bytes.

use watz_wasm::builder::ModuleBuilder;
use watz_wasm::instr::Instr;
use watz_wasm::types::ValType;
use workloads::polybench;

/// splitmix64: small, fast and good enough to shuffle and fill buffers.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so adding a stream
    /// never shifts the numbers another stream sees.
    #[must_use]
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// A module to launch: its bytes, the export to call first and what that
/// returns.
#[derive(Debug, Clone)]
pub struct GuestModule {
    /// Row label in reports.
    pub name: &'static str,
    /// The Wasm binary.
    pub wasm: Vec<u8>,
    /// Export invoked right after load.
    pub entry: String,
    /// Argument of the entry point, if it takes one.
    pub arg: Option<i32>,
    /// The known answer of that first invoke.
    pub expect: Expect,
}

/// The known answer of an invoke.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// Exact 32-bit integer.
    I32(i32),
    /// Exact 64-bit integer.
    I64(i64),
    /// Floating checksum, compared with the tolerance of
    /// `tests/differential.rs` (1e-9 relative, floor 1.0).
    F64(f64),
}

/// Straight-line code only, the generator behind Fig 4: `funcs` functions
/// of 1200 unrolled `i64.const; i64.add` pairs (~4.7 KB each; 100 of them
/// make the figure's "1 MB" point, 474 KB on disk). The seed picks each
/// function's first constant.
#[must_use]
pub fn large_unrolled(seed: u64, funcs: usize) -> GuestModule {
    const PAIRS: i64 = 1200;
    let mut rng = Rng::new(seed, "large_unrolled");
    let mut b = ModuleBuilder::new();
    let ty = b.add_type(&[], &[ValType::I64]);
    let mut main = 0;
    let mut first = 0;
    for _ in 0..funcs.max(1) {
        // 0..64 keeps the LEB128 constant one byte, so size ignores the seed.
        first = rng.below(64) as i64;
        let mut code = Vec::with_capacity(PAIRS as usize * 2 + 2);
        code.push(Instr::I64Const(first));
        for k in 0..PAIRS {
            code.push(Instr::I64Const(k));
            code.push(Instr::I64Add);
        }
        code.push(Instr::End);
        main = b.add_func(ty, &[], code);
    }
    b.export_func("main", main);
    b.add_memory(1, None);
    GuestModule {
        name: "large_unrolled",
        wasm: b.build(),
        entry: "main".to_string(),
        arg: None,
        expect: Expect::I64(first + PAIRS * (PAIRS - 1) / 2),
    }
}

const RESERVED: [&str; 26] = [
    "int", "long", "float", "double", "void", "if", "else", "while", "for", "return", "break",
    "continue", "extern", "sizeof", "alloc", "sqrt", "fabs", "floor", "ceil", "trunc", "__bits2d",
    "__d2bits", "lb", "sb", "memcopy", "memfill",
];

/// Appends `suffix` to every identifier of a MiniC source that is not a
/// keyword or builtin, so several sources can share one module.
#[must_use]
pub fn suffix_identifiers(src: &str, suffix: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len() * 2);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let end = src[i..].find('\n').map_or(bytes.len(), |n| i + n);
            out.push_str(&src[i..end]);
            i = end;
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let end = src[i..]
                .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                .map_or(bytes.len(), |n| i + n);
            let word = &src[i..end];
            out.push_str(word);
            if !RESERVED.contains(&word) {
                out.push_str(suffix);
            }
            i = end;
        } else if c.is_ascii_digit() {
            // A numeric literal, exponent and suffix letters included.
            let end = src[i..]
                .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '.'))
                .map_or(bytes.len(), |n| i + n);
            out.push_str(&src[i..end]);
            i = end;
        } else {
            out.push(c as char);
            i += 1;
        }
    }
    out
}

/// MiniC source of the loop-heavy large module: `cycles` seeded
/// permutations of the 30 PolyBench kernel sources, identifiers suffixed,
/// concatenated. Whole permutations keep the kernel mix (and so the
/// compile cost) the same for every seed; the seed sets the order.
/// Returns the source, the native twin of the kernel instance that comes
/// first, and that instance's export name.
#[must_use]
pub fn large_loopy_source(seed: u64, cycles: usize) -> (String, fn(usize) -> f64, String) {
    let mut rng = Rng::new(seed, "large_loopy");
    let suite = polybench::suite();
    let mut src = String::new();
    let mut first = None;
    for cycle in 0..cycles.max(1) {
        let mut order: Vec<usize> = (0..suite.len()).collect();
        rng.shuffle(&mut order);
        for idx in order {
            let suffix = format!("_c{cycle}k{idx}");
            if first.is_none() {
                first = Some((suite[idx].native, format!("kernel{suffix}")));
            }
            src.push_str(&suffix_identifiers(suite[idx].minic, &suffix));
        }
    }
    let (native, entry) = first.expect("at least one cycle");
    (src, native, entry)
}

/// Problem size of a launched kernel's first invoke: small, so a launch
/// times loading and not the loop nest.
pub const LAUNCH_N: i32 = 6;

/// Compiles [`large_loopy_source`]; its first invoke runs the first
/// kernel instance at [`LAUNCH_N`], whose native twin gives the answer.
///
/// # Panics
///
/// Panics if the concatenated source does not compile: the kernel sources
/// are fixed, so that is a bug in the renaming above.
#[must_use]
pub fn large_loopy(seed: u64, cycles: usize) -> GuestModule {
    let (src, native, entry) = large_loopy_source(seed, cycles);
    let wasm = minic::compile(&src).expect("concatenated kernels compile");
    GuestModule {
        name: "large_loopy",
        wasm,
        entry,
        arg: Some(LAUNCH_N),
        expect: Expect::F64(native(LAUNCH_N as usize)),
    }
}

/// Device kinds of the fleet, in the seeded order sessions visit them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Endorsed key, trusted measurement, current version: gets the secret.
    Endorsed,
    /// Key the verifier never endorsed: rejected.
    Rogue,
    /// Endorsed key, outdated runtime version: rejected.
    Stale,
}

/// A seeded shuffle of `endorsed + rogue + stale` device kinds.
#[must_use]
pub fn device_order(seed: u64, endorsed: usize, rogue: usize, stale: usize) -> Vec<DeviceKind> {
    let mut kinds: Vec<DeviceKind> = std::iter::repeat_n(DeviceKind::Endorsed, endorsed)
        .chain(std::iter::repeat_n(DeviceKind::Rogue, rogue))
        .chain(std::iter::repeat_n(DeviceKind::Stale, stale))
        .collect();
    Rng::new(seed, "device_order").shuffle(&mut kinds);
    kinds
}

/// Open-loop arrival schedule: for each session, the offset from the start
/// at which it is due and the device (an index into the owning thread's
/// set) that opens it. Arrivals are evenly spaced at `rate_per_s`; the
/// seed picks the devices.
#[must_use]
pub fn arrival_schedule(
    seed: u64,
    sessions: usize,
    rate_per_s: f64,
    devices_per_thread: usize,
) -> Vec<(std::time::Duration, usize)> {
    let mut rng = Rng::new(seed, "arrivals");
    (0..sessions)
        .map(|i| {
            (
                std::time::Duration::from_secs_f64(i as f64 / rate_per_s),
                rng.below(devices_per_thread.max(1) as u64) as usize,
            )
        })
        .collect()
}
