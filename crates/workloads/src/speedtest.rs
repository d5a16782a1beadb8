//! The Speedtest1-style database experiment suite (Fig 6).
//!
//! SQLite's Speedtest1 is a sequence of numbered experiments, each stressing
//! one engine aspect. The paper runs it at 60 % size to fit OP-TEE's memory
//! ceiling. We reproduce the same *structure*: the experiment ids shown in
//! Fig 6, the read/write split the paper analyses (reads ≈2.04x, writes
//! ≈2.23x slowdown under Wasm), and four configurations (native/Wasm ×
//! REE/TEE).
//!
//! The native side runs SQL on [`microdb`]; the Wasm side runs the
//! [`MINISQL_GUEST`] MiniC program, which implements the same logical
//! operations (indexed tables, point/range queries, updates, deletes) over
//! its own storage. The paper compiled the *same* SQLite for both sides;
//! we cannot compile Rust to Wasm offline, so the guest is a re-
//! implementation: it preserves the structure above, not SQLite's code
//! paths. README.md's "Paper figure / table ↔ bench mapping" names the
//! bench that runs it.

use microdb::Database;

/// Workload classification, following §VI-D's read/write analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-dominated (paper: ~2.04x Wasm slowdown).
    Read,
    /// Write-dominated (paper: ~2.23x Wasm slowdown).
    Write,
    /// Schema / maintenance operations.
    Schema,
}

/// One numbered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The Speedtest1-style experiment number (Fig 6 x-axis).
    pub id: u32,
    /// Read/write classification.
    pub kind: Kind,
    /// What the experiment exercises.
    pub description: &'static str,
}

/// The experiment set shown in Fig 6 (31 experiments).
#[must_use]
pub fn experiments() -> Vec<Experiment> {
    use Kind::{Read, Schema, Write};
    vec![
        Experiment {
            id: 100,
            kind: Write,
            description: "inserts into unindexed table",
        },
        Experiment {
            id: 110,
            kind: Write,
            description: "inserts into indexed table",
        },
        Experiment {
            id: 120,
            kind: Write,
            description: "ordered inserts into indexed table",
        },
        Experiment {
            id: 130,
            kind: Read,
            description: "range counts over unindexed table",
        },
        Experiment {
            id: 140,
            kind: Read,
            description: "range selects with text filter",
        },
        Experiment {
            id: 142,
            kind: Read,
            description: "range selects with LIKE prefix",
        },
        Experiment {
            id: 145,
            kind: Read,
            description: "range selects via index",
        },
        Experiment {
            id: 150,
            kind: Schema,
            description: "create index over populated table",
        },
        Experiment {
            id: 160,
            kind: Read,
            description: "point selects by key",
        },
        Experiment {
            id: 161,
            kind: Read,
            description: "point selects by secondary index",
        },
        Experiment {
            id: 170,
            kind: Read,
            description: "point selects by text prefix",
        },
        Experiment {
            id: 180,
            kind: Write,
            description: "range updates, unindexed column",
        },
        Experiment {
            id: 190,
            kind: Write,
            description: "range updates, indexed column",
        },
        Experiment {
            id: 210,
            kind: Write,
            description: "text updates via index",
        },
        Experiment {
            id: 230,
            kind: Write,
            description: "narrow range updates",
        },
        Experiment {
            id: 240,
            kind: Write,
            description: "full-table update",
        },
        Experiment {
            id: 250,
            kind: Read,
            description: "one large range aggregate",
        },
        Experiment {
            id: 260,
            kind: Read,
            description: "order-by on indexed column with limit",
        },
        Experiment {
            id: 270,
            kind: Read,
            description: "order-by on unindexed column with limit",
        },
        Experiment {
            id: 280,
            kind: Read,
            description: "count + min/max aggregates",
        },
        Experiment {
            id: 290,
            kind: Write,
            description: "delete range then refill",
        },
        Experiment {
            id: 300,
            kind: Write,
            description: "bulk delete of half the table",
        },
        Experiment {
            id: 310,
            kind: Read,
            description: "LIKE prefix count over whole table",
        },
        Experiment {
            id: 320,
            kind: Read,
            description: "conditional sum over whole table",
        },
        Experiment {
            id: 400,
            kind: Write,
            description: "scattered point updates via index",
        },
        Experiment {
            id: 410,
            kind: Read,
            description: "scattered point selects via index",
        },
        Experiment {
            id: 500,
            kind: Write,
            description: "bulk copy between tables",
        },
        Experiment {
            id: 510,
            kind: Read,
            description: "alternating point selects on two tables",
        },
        Experiment {
            id: 520,
            kind: Read,
            description: "full-table verification scans",
        },
        Experiment {
            id: 980,
            kind: Schema,
            description: "build extra index (schema change)",
        },
        Experiment {
            id: 990,
            kind: Schema,
            description: "drop, recreate and refill table",
        },
    ]
}

/// Deterministic pseudo-random key sequence shared by both implementations.
fn prng_next(state: &mut i64) -> i64 {
    // Must match the MiniC guest's `rnd` exactly (i64 wrap-around).
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33).abs()
}

/// Creates and populates the experiment tables (`t1` unindexed, `t2`
/// indexed) with `n` rows each.
///
/// # Panics
///
/// Panics on SQL errors (programmer error in the fixed scripts).
pub fn setup_native(db: &mut Database, n: usize) {
    db.execute("CREATE TABLE t1(a INT, b INT, c TEXT)").unwrap();
    db.execute("CREATE TABLE t2(a INT, b INT, c TEXT)").unwrap();
    db.execute("CREATE INDEX t2b ON t2(b)").unwrap();
    let mut state = 42i64;
    db.execute("BEGIN").unwrap();
    for i in 0..n {
        let r = prng_next(&mut state) % (n as i64 * 10);
        db.execute(&format!(
            "INSERT INTO t1 VALUES ({i}, {r}, 'record number {r}')"
        ))
        .unwrap();
        db.execute(&format!(
            "INSERT INTO t2 VALUES ({i}, {r}, 'record number {r}')"
        ))
        .unwrap();
    }
    db.execute("COMMIT").unwrap();
}

/// Runs one experiment against a prepared database; returns a checksum so
/// the work cannot be optimised away.
///
/// # Panics
///
/// Panics on SQL errors or unknown experiment ids.
#[allow(clippy::too_many_lines)]
pub fn run_native(db: &mut Database, id: u32, n: usize) -> i64 {
    let n_i = n as i64;
    let mut check = 0i64;
    let mut state = 777i64;
    let count_of = |r: &microdb::QueryResult| -> i64 {
        match r.rows.first().and_then(|row| row.first()) {
            Some(microdb::Value::Int(v)) => *v,
            Some(microdb::Value::Real(v)) => *v as i64,
            _ => 0,
        }
    };
    match id {
        100 => {
            for i in 0..n {
                let r = prng_next(&mut state);
                db.execute(&format!(
                    "INSERT INTO t1 VALUES ({}, {r}, 'fresh {r}')",
                    i + n
                ))
                .unwrap();
            }
            check = db.row_count("t1").unwrap() as i64;
        }
        110 => {
            for i in 0..n {
                let r = prng_next(&mut state);
                db.execute(&format!(
                    "INSERT INTO t2 VALUES ({}, {r}, 'fresh {r}')",
                    i + n
                ))
                .unwrap();
            }
            check = db.row_count("t2").unwrap() as i64;
        }
        120 => {
            for i in 0..n {
                db.execute(&format!(
                    "INSERT INTO t2 VALUES ({}, {}, 'sorted {i}')",
                    i + 2 * n,
                    n_i * 10 + i as i64
                ))
                .unwrap();
            }
            check = db.row_count("t2").unwrap() as i64;
        }
        130 => {
            for k in 0..25 {
                let lo = k * (n_i * 10 / 25);
                let r = db
                    .execute(&format!(
                        "SELECT COUNT(*) FROM t1 WHERE b BETWEEN {lo} AND {}",
                        lo + n_i
                    ))
                    .unwrap();
                check += count_of(&r);
            }
        }
        140 | 142 => {
            for k in 0..10 {
                let r = db
                    .execute(&format!(
                        "SELECT COUNT(*) FROM t1 WHERE c LIKE 'record number {k}%'"
                    ))
                    .unwrap();
                check += count_of(&r);
            }
        }
        145 => {
            for k in 0..10 {
                let lo = k * (n_i / 2);
                let r = db
                    .execute(&format!(
                        "SELECT COUNT(*) FROM t2 WHERE b BETWEEN {lo} AND {}",
                        lo + n_i
                    ))
                    .unwrap();
                check += count_of(&r);
            }
        }
        150 => {
            db.execute("CREATE INDEX t1b ON t1(b)").unwrap();
            check = db.row_count("t1").unwrap() as i64;
        }
        160 => {
            for _ in 0..n / 5 {
                let k = prng_next(&mut state) % n_i;
                let r = db
                    .execute(&format!("SELECT b FROM t1 WHERE a = {k}"))
                    .unwrap();
                check += count_of(&r);
            }
        }
        161 | 410 => {
            for _ in 0..n / 5 {
                let k = prng_next(&mut state) % (n_i * 10);
                let r = db
                    .execute(&format!("SELECT COUNT(*) FROM t2 WHERE b = {k}"))
                    .unwrap();
                check += count_of(&r);
            }
        }
        170 => {
            for k in 0..n / 20 {
                let r = db
                    .execute(&format!(
                        "SELECT COUNT(*) FROM t2 WHERE c LIKE 'record number {}%'",
                        k % 10
                    ))
                    .unwrap();
                check += count_of(&r);
            }
        }
        180 => {
            for k in 0..n / 5 {
                let lo = (k as i64 * 97) % (n_i * 10);
                let r = db
                    .execute(&format!(
                        "UPDATE t1 SET b = b + 1 WHERE b BETWEEN {lo} AND {}",
                        lo + 50
                    ))
                    .unwrap();
                check += r.affected as i64;
            }
        }
        190 | 230 => {
            for k in 0..n / 5 {
                let lo = (k as i64 * 89) % (n_i * 10);
                let r = db
                    .execute(&format!(
                        "UPDATE t2 SET b = b + 1 WHERE b BETWEEN {lo} AND {}",
                        lo + 20
                    ))
                    .unwrap();
                check += r.affected as i64;
            }
        }
        210 => {
            for k in 0..n / 5 {
                let key = prng_next(&mut state) % n_i;
                let r = db
                    .execute(&format!(
                        "UPDATE t2 SET c = 'updated text {k}' WHERE a = {key}"
                    ))
                    .unwrap();
                check += r.affected as i64;
            }
        }
        240 => {
            let r = db.execute("UPDATE t1 SET b = b + 7").unwrap();
            check = r.affected as i64;
        }
        250 => {
            let r = db
                .execute(&format!(
                    "SELECT SUM(b) FROM t1 WHERE b BETWEEN 0 AND {}",
                    n_i * 5
                ))
                .unwrap();
            check = count_of(&r);
        }
        260 => {
            let r = db
                .execute("SELECT b FROM t2 WHERE b >= 0 ORDER BY b LIMIT 10")
                .unwrap();
            check = r.rows.len() as i64;
        }
        270 => {
            let r = db
                .execute("SELECT a FROM t1 WHERE b >= 0 ORDER BY c LIMIT 10")
                .unwrap();
            check = r.rows.len() as i64;
        }
        280 => {
            let r = db
                .execute("SELECT COUNT(*), MIN(b), MAX(b) FROM t1")
                .unwrap();
            check = count_of(&r);
        }
        290 => {
            let r = db
                .execute(&format!("DELETE FROM t2 WHERE a < {}", n_i / 10))
                .unwrap();
            check = r.affected as i64;
            for i in 0..n / 10 {
                db.execute(&format!(
                    "INSERT INTO t2 VALUES ({i}, {}, 'refilled {i}')",
                    prng_next(&mut state) % (n_i * 10)
                ))
                .unwrap();
            }
        }
        300 => {
            let r = db
                .execute(&format!("DELETE FROM t1 WHERE a >= {}", n_i / 2))
                .unwrap();
            check = r.affected as i64;
        }
        310 => {
            let r = db
                .execute("SELECT COUNT(*) FROM t1 WHERE c LIKE 'record%'")
                .unwrap();
            check = count_of(&r);
        }
        320 => {
            let r = db
                .execute(&format!("SELECT SUM(b) FROM t2 WHERE b > {}", n_i * 5))
                .unwrap();
            check = count_of(&r);
        }
        400 => {
            for _ in 0..n / 5 {
                let k = prng_next(&mut state) % n_i;
                let r = db
                    .execute(&format!("UPDATE t2 SET b = b + 3 WHERE a = {k}"))
                    .unwrap();
                check += r.affected as i64;
            }
        }
        500 => {
            let rows = db
                .execute(&format!("SELECT a, b FROM t1 WHERE a < {}", n_i / 4))
                .unwrap();
            for row in &rows.rows {
                let (microdb::Value::Int(a), microdb::Value::Int(b)) = (&row[0], &row[1]) else {
                    continue;
                };
                db.execute(&format!(
                    "INSERT INTO t2 VALUES ({}, {b}, 'copy')",
                    a + 5 * n_i
                ))
                .unwrap();
            }
            check = rows.rows.len() as i64;
        }
        510 => {
            for k in 0..n / 5 {
                let table = if k % 2 == 0 { "t1" } else { "t2" };
                let key = prng_next(&mut state) % n_i;
                let r = db
                    .execute(&format!("SELECT COUNT(*) FROM {table} WHERE a = {key}"))
                    .unwrap();
                check += count_of(&r);
            }
        }
        520 => {
            for _ in 0..3 {
                let r = db.execute("SELECT COUNT(*) FROM t1").unwrap();
                check += count_of(&r);
                let r = db.execute("SELECT COUNT(*) FROM t2").unwrap();
                check += count_of(&r);
            }
        }
        980 => {
            db.execute("CREATE INDEX t2a ON t2(a)").unwrap();
            check = db.row_count("t2").unwrap() as i64;
        }
        990 => {
            db.execute("DROP TABLE t1").unwrap();
            db.execute("CREATE TABLE t1(a INT, b INT, c TEXT)").unwrap();
            for i in 0..n / 10 {
                db.execute(&format!("INSERT INTO t1 VALUES ({i}, {i}, 'renew')"))
                    .unwrap();
            }
            check = db.row_count("t1").unwrap() as i64;
        }
        other => panic!("unknown experiment {other}"),
    }
    check
}

/// The `minisql` MiniC guest: equivalent operations implemented over flat
/// arrays with a sorted secondary index (binary search + insertion-shift
/// maintenance). Exports `setup(n)` and `run_exp(id, n) -> long`.
pub const MINISQL_GUEST: &str = r#"
// minisql: a storage-engine-level port of the speedtest workload.
// Table layout: parallel arrays. 'c' text column is represented by a
// 64-bit tag (hash of the would-be string), which preserves the byte
// traffic of comparisons without a string heap.

int cap = 0;
// table t1 (unindexed)
int* t1a = 0; long* t1b = 0; long* t1c = 0; int* t1live = 0; int t1n = 0;
// table t2 (indexed on b)
int* t2a = 0; long* t2b = 0; long* t2c = 0; int* t2live = 0; int t2n = 0;
// sorted index over t2.b: parallel arrays (key, rowid)
long* idxkey = 0; int* idxrow = 0; int idxn = 0;
// optional index over t1.b built by exp 150
long* i1key = 0; int* i1row = 0; int i1n = 0;

long prng_state = 0;
long rnd() {
    prng_state = prng_state * 6364136223846793005 + 1442695040888963407;
    long v = prng_state >> 33;
    if (v < 0) { v = 0 - v; }
    return v;
}

long text_tag(long r) { return r * 2654435761 + 97; }

int idx_lower_bound(long key) {
    int lo = 0; int hi = idxn;
    while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (idxkey[mid] < key) { lo = mid + 1; } else { hi = mid; }
    }
    return lo;
}

void idx_insert(long key, int row) {
    int pos = idx_lower_bound(key);
    int i;
    for (i = idxn; i > pos; i = i - 1) {
        idxkey[i] = idxkey[i-1];
        idxrow[i] = idxrow[i-1];
    }
    idxkey[pos] = key;
    idxrow[pos] = row;
    idxn = idxn + 1;
}

void idx_remove(long key, int row) {
    int pos = idx_lower_bound(key);
    while (pos < idxn && idxkey[pos] == key) {
        if (idxrow[pos] == row) {
            int i;
            for (i = pos; i < idxn - 1; i = i + 1) {
                idxkey[i] = idxkey[i+1];
                idxrow[i] = idxrow[i+1];
            }
            idxn = idxn - 1;
            return;
        }
        pos = pos + 1;
    }
}

void t1_insert(int a, long b, long c) {
    t1a[t1n] = a; t1b[t1n] = b; t1c[t1n] = c; t1live[t1n] = 1; t1n = t1n + 1;
}

void t2_insert(int a, long b, long c) {
    t2a[t2n] = a; t2b[t2n] = b; t2c[t2n] = c; t2live[t2n] = 1;
    idx_insert(b, t2n);
    t2n = t2n + 1;
}

int setup(int n) {
    cap = n * 16 + 1024;
    t1a = (int*)alloc(cap * 4); t1b = (long*)alloc(cap * 8);
    t1c = (long*)alloc(cap * 8); t1live = (int*)alloc(cap * 4);
    t2a = (int*)alloc(cap * 4); t2b = (long*)alloc(cap * 8);
    t2c = (long*)alloc(cap * 8); t2live = (int*)alloc(cap * 4);
    idxkey = (long*)alloc(cap * 8); idxrow = (int*)alloc(cap * 4);
    i1key = (long*)alloc(cap * 8); i1row = (int*)alloc(cap * 4);
    t1n = 0; t2n = 0; idxn = 0; i1n = 0;
    prng_state = 42;
    int i;
    for (i = 0; i < n; i = i + 1) {
        long r = rnd() % ((long)n * 10);
        t1_insert(i, r, text_tag(r));
        t2_insert(i, r, text_tag(r));
    }
    return t1n + t2n;
}

long count_t1_range(long lo, long hi) {
    long count = 0; int i;
    for (i = 0; i < t1n; i = i + 1) {
        if (t1live[i] && t1b[i] >= lo && t1b[i] <= hi) { count = count + 1; }
    }
    return count;
}

long count_t2_range_idx(long lo, long hi) {
    long count = 0;
    int pos = idx_lower_bound(lo);
    while (pos < idxn && idxkey[pos] <= hi) {
        if (t2live[idxrow[pos]]) { count = count + 1; }
        pos = pos + 1;
    }
    return count;
}

long run_exp(int id, int n) {
    long check = 0;
    long nl = (long)n;
    prng_state = 777;
    int i; int k;
    if (id == 100) {
        for (i = 0; i < n; i = i + 1) {
            long r = rnd();
            t1_insert(i + n, r, text_tag(r));
        }
        check = (long)t1n;
    } else if (id == 110) {
        for (i = 0; i < n; i = i + 1) {
            long r = rnd();
            t2_insert(i + n, r, text_tag(r));
        }
        check = (long)t2n;
    } else if (id == 120) {
        for (i = 0; i < n; i = i + 1) {
            t2_insert(i + 2 * n, nl * 10 + (long)i, text_tag((long)i));
        }
        check = (long)t2n;
    } else if (id == 130) {
        for (k = 0; k < 25; k = k + 1) {
            long lo = (long)k * (nl * 10 / 25);
            check = check + count_t1_range(lo, lo + nl);
        }
    } else if (id == 140 || id == 142) {
        for (k = 0; k < 10; k = k + 1) {
            long tag = text_tag((long)k);
            for (i = 0; i < t1n; i = i + 1) {
                if (t1live[i] && t1c[i] == tag) { check = check + 1; }
            }
        }
    } else if (id == 145) {
        for (k = 0; k < 10; k = k + 1) {
            long lo = (long)k * (nl / 2);
            check = check + count_t2_range_idx(lo, lo + nl);
        }
    } else if (id == 150) {
        // Build the t1.b index: insertion into a sorted array.
        i1n = 0;
        for (i = 0; i < t1n; i = i + 1) {
            if (t1live[i]) {
                int lo = 0; int hi = i1n;
                while (lo < hi) {
                    int mid = (lo + hi) / 2;
                    if (i1key[mid] < t1b[i]) { lo = mid + 1; } else { hi = mid; }
                }
                int j;
                for (j = i1n; j > lo; j = j - 1) {
                    i1key[j] = i1key[j-1]; i1row[j] = i1row[j-1];
                }
                i1key[lo] = t1b[i]; i1row[lo] = i;
                i1n = i1n + 1;
            }
        }
        check = (long)i1n;
    } else if (id == 160) {
        for (k = 0; k < n / 5; k = k + 1) {
            long key = rnd() % nl;
            for (i = 0; i < t1n; i = i + 1) {
                if (t1live[i] && (long)t1a[i] == key) { check = check + t1b[i]; break; }
            }
        }
    } else if (id == 161 || id == 410) {
        for (k = 0; k < n / 5; k = k + 1) {
            long key = rnd() % (nl * 10);
            int pos = idx_lower_bound(key);
            while (pos < idxn && idxkey[pos] == key) {
                if (t2live[idxrow[pos]]) { check = check + 1; }
                pos = pos + 1;
            }
        }
    } else if (id == 170) {
        for (k = 0; k < n / 20; k = k + 1) {
            long tag = text_tag((long)(k % 10));
            for (i = 0; i < t2n; i = i + 1) {
                if (t2live[i] && t2c[i] == tag) { check = check + 1; }
            }
        }
    } else if (id == 180) {
        for (k = 0; k < n / 5; k = k + 1) {
            long lo = ((long)k * 97) % (nl * 10);
            for (i = 0; i < t1n; i = i + 1) {
                if (t1live[i] && t1b[i] >= lo && t1b[i] <= lo + 50) {
                    t1b[i] = t1b[i] + 1;
                    check = check + 1;
                }
            }
        }
    } else if (id == 190 || id == 230) {
        for (k = 0; k < n / 5; k = k + 1) {
            long lo = ((long)k * 89) % (nl * 10);
            int pos = idx_lower_bound(lo);
            // Collect matching rows first (index changes under update).
            int hits = 0;
            int* rows = (int*)alloc(256 * 4);
            while (pos < idxn && idxkey[pos] <= lo + 20 && hits < 256) {
                if (t2live[idxrow[pos]]) { rows[hits] = idxrow[pos]; hits = hits + 1; }
                pos = pos + 1;
            }
            for (i = 0; i < hits; i = i + 1) {
                int row = rows[i];
                idx_remove(t2b[row], row);
                t2b[row] = t2b[row] + 1;
                idx_insert(t2b[row], row);
                check = check + 1;
            }
        }
    } else if (id == 210) {
        for (k = 0; k < n / 5; k = k + 1) {
            long key = rnd() % nl;
            for (i = 0; i < t2n; i = i + 1) {
                if (t2live[i] && (long)t2a[i] == key) {
                    t2c[i] = text_tag((long)k + 1000);
                    check = check + 1;
                    break;
                }
            }
        }
    } else if (id == 240) {
        for (i = 0; i < t1n; i = i + 1) {
            if (t1live[i]) { t1b[i] = t1b[i] + 7; check = check + 1; }
        }
    } else if (id == 250) {
        for (i = 0; i < t1n; i = i + 1) {
            if (t1live[i] && t1b[i] >= 0 && t1b[i] <= nl * 5) { check = check + t1b[i]; }
        }
    } else if (id == 260) {
        // First 10 live rows in index order.
        int pos = 0; int taken = 0;
        while (pos < idxn && taken < 10) {
            if (t2live[idxrow[pos]]) { check = check + idxkey[pos]; taken = taken + 1; }
            pos = pos + 1;
        }
    } else if (id == 270) {
        // Top-10 by c tag: selection scan (no index on c).
        long last = 0 - 1;
        for (k = 0; k < 10; k = k + 1) {
            long best = 9223372036854775807; int found = 0;
            for (i = 0; i < t1n; i = i + 1) {
                if (t1live[i] && t1c[i] > last && t1c[i] < best) { best = t1c[i]; found = 1; }
            }
            if (!found) { break; }
            last = best;
            check = check + 1;
        }
    } else if (id == 280) {
        long count = 0; long mn = 9223372036854775807; long mx = 0 - 9223372036854775807;
        for (i = 0; i < t1n; i = i + 1) {
            if (t1live[i]) {
                count = count + 1;
                if (t1b[i] < mn) { mn = t1b[i]; }
                if (t1b[i] > mx) { mx = t1b[i]; }
            }
        }
        check = count;
    } else if (id == 290) {
        for (i = 0; i < t2n; i = i + 1) {
            if (t2live[i] && t2a[i] < n / 10) {
                t2live[i] = 0;
                idx_remove(t2b[i], i);
                check = check + 1;
            }
        }
        for (i = 0; i < n / 10; i = i + 1) {
            long r = rnd() % (nl * 10);
            t2_insert(i, r, text_tag(r));
        }
    } else if (id == 300) {
        for (i = 0; i < t1n; i = i + 1) {
            if (t1live[i] && t1a[i] >= n / 2) { t1live[i] = 0; check = check + 1; }
        }
    } else if (id == 310) {
        for (i = 0; i < t1n; i = i + 1) {
            if (t1live[i] && t1c[i] != 0) { check = check + 1; }
        }
    } else if (id == 320) {
        for (i = 0; i < t2n; i = i + 1) {
            if (t2live[i] && t2b[i] > nl * 5) { check = check + t2b[i]; }
        }
    } else if (id == 400) {
        for (k = 0; k < n / 5; k = k + 1) {
            long key = rnd() % nl;
            for (i = 0; i < t2n; i = i + 1) {
                if (t2live[i] && (long)t2a[i] == key) {
                    idx_remove(t2b[i], i);
                    t2b[i] = t2b[i] + 3;
                    idx_insert(t2b[i], i);
                    check = check + 1;
                    break;
                }
            }
        }
    } else if (id == 500) {
        for (i = 0; i < t1n; i = i + 1) {
            if (t1live[i] && t1a[i] < n / 4) {
                t2_insert(t1a[i] + 5 * n, t1b[i], text_tag(t1b[i]));
                check = check + 1;
            }
        }
    } else if (id == 510) {
        for (k = 0; k < n / 5; k = k + 1) {
            long key = rnd() % nl;
            if (k % 2 == 0) {
                for (i = 0; i < t1n; i = i + 1) {
                    if (t1live[i] && (long)t1a[i] == key) { check = check + 1; break; }
                }
            } else {
                for (i = 0; i < t2n; i = i + 1) {
                    if (t2live[i] && (long)t2a[i] == key) { check = check + 1; break; }
                }
            }
        }
    } else if (id == 520) {
        for (k = 0; k < 3; k = k + 1) {
            for (i = 0; i < t1n; i = i + 1) { if (t1live[i]) { check = check + 1; } }
            for (i = 0; i < t2n; i = i + 1) { if (t2live[i]) { check = check + 1; } }
        }
    } else if (id == 980) {
        // Extra index over t2.a.
        i1n = 0;
        for (i = 0; i < t2n; i = i + 1) {
            if (t2live[i]) {
                int lo = 0; int hi = i1n;
                while (lo < hi) {
                    int mid = (lo + hi) / 2;
                    if (i1key[mid] < (long)t2a[i]) { lo = mid + 1; } else { hi = mid; }
                }
                int j;
                for (j = i1n; j > lo; j = j - 1) {
                    i1key[j] = i1key[j-1]; i1row[j] = i1row[j-1];
                }
                i1key[lo] = (long)t2a[i]; i1row[lo] = i;
                i1n = i1n + 1;
            }
        }
        check = (long)i1n;
    } else if (id == 990) {
        t1n = 0;
        for (i = 0; i < n / 10; i = i + 1) {
            t1_insert(i, (long)i, text_tag((long)i));
        }
        check = (long)t1n;
    } else {
        check = 0 - 1;
    }
    return check;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};

    #[test]
    fn experiment_list_matches_fig6() {
        let exps = experiments();
        assert_eq!(exps.len(), 31);
        let reads = exps.iter().filter(|e| e.kind == Kind::Read).count();
        let writes = exps.iter().filter(|e| e.kind == Kind::Write).count();
        assert!(reads >= 12, "paper analyses a large read group");
        assert!(writes >= 10, "paper analyses a large write group");
    }

    #[test]
    fn all_native_experiments_run() {
        for exp in experiments() {
            let mut db = Database::new();
            setup_native(&mut db, 100);
            let check = run_native(&mut db, exp.id, 100);
            assert!(check >= 0, "experiment {} returned {check}", exp.id);
        }
    }

    #[test]
    fn minisql_guest_compiles_and_runs_all_experiments() {
        let wasm = minic::compile(MINISQL_GUEST).expect("minisql must compile");
        let module = watz_wasm::load(&wasm).expect("load");
        for exp in experiments() {
            let mut inst =
                Instance::instantiate(&module, ExecMode::Aot, &mut NoHost).expect("inst");
            let setup = inst
                .invoke(&mut NoHost, "setup", &[Value::I32(100)])
                .expect("setup");
            assert_eq!(setup, vec![Value::I32(200)]);
            let out = inst
                .invoke(
                    &mut NoHost,
                    "run_exp",
                    &[Value::I32(exp.id as i32), Value::I32(100)],
                )
                .unwrap_or_else(|e| panic!("experiment {} trapped: {e}", exp.id));
            match out[0] {
                Value::I64(v) => assert!(v >= 0, "experiment {} returned {v}", exp.id),
                ref other => panic!("unexpected return {other:?}"),
            }
        }
    }

    #[test]
    fn native_insert_experiments_grow_tables() {
        let mut db = Database::new();
        setup_native(&mut db, 50);
        assert_eq!(db.row_count("t1"), Some(50));
        run_native(&mut db, 100, 50);
        assert_eq!(db.row_count("t1"), Some(100));
        run_native(&mut db, 300, 50);
        assert!(db.row_count("t1").unwrap() < 100);
    }
}
