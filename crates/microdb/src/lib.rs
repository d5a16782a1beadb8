//! microdb: an embeddable, in-memory SQL database engine.
//!
//! The paper's macro-benchmark (Fig 6) runs SQLite's Speedtest1 suite with
//! in-memory databases inside and outside the TEE. SQLite itself cannot be
//! compiled here, so microdb fills the role: a compact SQL engine with the
//! feature set Speedtest1 exercises — tables, secondary indexes, `INSERT`,
//! point/range/`LIKE` `SELECT`s with `ORDER BY`/`LIMIT`, aggregate
//! `COUNT`/`SUM`/`AVG`/`MIN`/`MAX`, `UPDATE`, `DELETE`, and transactions as
//! no-ops (everything is in memory, like the paper's configuration).
//!
//! The same workloads run as a MiniC guest (`workloads::minisql`) on the
//! Wasm side of the experiment.
//!
//! # Example
//!
//! ```
//! use microdb::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE t1(a INT, b INT, c TEXT)").unwrap();
//! db.execute("CREATE INDEX i1 ON t1(b)").unwrap();
//! db.execute("INSERT INTO t1 VALUES (1, 100, 'one hundred')").unwrap();
//! db.execute("INSERT INTO t1 VALUES (2, 200, 'two hundred')").unwrap();
//! let r = db.execute("SELECT a, c FROM t1 WHERE b >= 150").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! assert_eq!(r.rows[0][0], microdb::Value::Int(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod parser;
mod storage;

pub use executor::QueryResult;
use parser::parse;
pub use storage::{ColumnType, Table, Value};

use std::collections::HashMap;

/// Errors from SQL execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// SQL syntax error.
    Syntax(String),
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// A table/index with that name already exists.
    AlreadyExists(String),
    /// Wrong number of values in an INSERT.
    ArityMismatch {
        /// Columns in the table.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// Type error in an expression or comparison.
    TypeError(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Syntax(msg) => write!(f, "syntax error: {msg}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::AlreadyExists(n) => write!(f, "already exists: {n}"),
            DbError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            DbError::TypeError(msg) => write!(f, "type error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

/// An in-memory database.
#[derive(Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
}

impl Database {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses and executes one SQL statement.
    ///
    /// # Errors
    ///
    /// Returns a [`DbError`] for syntax or execution failures.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        let stmt = parse(sql)?;
        executor::execute(self, &stmt)
    }

    /// Number of live rows in a table.
    #[must_use]
    pub fn row_count(&self, table: &str) -> Option<usize> {
        self.tables.get(table).map(Table::live_rows)
    }

    pub(crate) fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    pub(crate) fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    pub(crate) fn insert_table(&mut self, table: Table) -> Result<(), DbError> {
        if self.tables.contains_key(&table.name) {
            return Err(DbError::AlreadyExists(table.name));
        }
        self.tables.insert(table.name.clone(), table);
        Ok(())
    }

    pub(crate) fn drop_table(&mut self, name: &str) -> Result<(), DbError> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_data() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t(a INT, b INT, c TEXT)").unwrap();
        for i in 0..100 {
            db.execute(&format!(
                "INSERT INTO t VALUES ({i}, {}, 'row {i}')",
                i * 10
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn create_insert_select() {
        let mut db = db_with_data();
        let r = db.execute("SELECT a FROM t WHERE b = 500").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(50)]]);
    }

    #[test]
    fn count_star() {
        let mut db = db_with_data();
        let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(100)]]);
    }

    #[test]
    fn range_scan_with_order_and_limit() {
        let mut db = db_with_data();
        let r = db
            .execute("SELECT a FROM t WHERE b BETWEEN 100 AND 300 ORDER BY a DESC LIMIT 3")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(30)],
                vec![Value::Int(29)],
                vec![Value::Int(28)]
            ]
        );
    }

    #[test]
    fn update_and_delete() {
        let mut db = db_with_data();
        let r = db.execute("UPDATE t SET b = 0 WHERE a < 10").unwrap();
        assert_eq!(r.affected, 10);
        let r = db.execute("SELECT COUNT(*) FROM t WHERE b = 0").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(10)]]);
        let r = db.execute("DELETE FROM t WHERE a >= 50").unwrap();
        assert_eq!(r.affected, 50);
        assert_eq!(db.row_count("t"), Some(50));
    }

    #[test]
    fn like_prefix() {
        let mut db = db_with_data();
        let r = db
            .execute("SELECT COUNT(*) FROM t WHERE c LIKE 'row 1%'")
            .unwrap();
        // 'row 1', 'row 10'..'row 19' -> 11 rows.
        assert_eq!(r.rows, vec![vec![Value::Int(11)]]);
    }

    #[test]
    fn sum_and_avg() {
        let mut db = db_with_data();
        let r = db.execute("SELECT SUM(a) FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(4950)]]);
        let r = db.execute("SELECT MIN(b), MAX(b) FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0), Value::Int(990)]]);
    }

    #[test]
    fn index_used_for_point_query() {
        let mut db = db_with_data();
        db.execute("CREATE INDEX ib ON t(b)").unwrap();
        let r = db.execute("SELECT a FROM t WHERE b = 990").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(99)]]);
        // Index stays consistent across updates.
        db.execute("UPDATE t SET b = 991 WHERE a = 99").unwrap();
        let r = db.execute("SELECT a FROM t WHERE b = 991").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(99)]]);
        let r = db.execute("SELECT a FROM t WHERE b = 990").unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn transactions_are_accepted() {
        let mut db = Database::new();
        db.execute("BEGIN").unwrap();
        db.execute("CREATE TABLE x(a INT)").unwrap();
        db.execute("COMMIT").unwrap();
    }

    #[test]
    fn drop_table() {
        let mut db = db_with_data();
        db.execute("DROP TABLE t").unwrap();
        assert!(matches!(
            db.execute("SELECT a FROM t"),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn errors_are_reported() {
        let mut db = Database::new();
        assert!(matches!(
            db.execute("SELECT x FROM missing"),
            Err(DbError::NoSuchTable(_))
        ));
        db.execute("CREATE TABLE t(a INT)").unwrap();
        assert!(matches!(
            db.execute("SELECT nope FROM t"),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            db.execute("INSERT INTO t VALUES (1, 2)"),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.execute("FLY ME TO THE MOON"),
            Err(DbError::Syntax(_))
        ));
    }

    #[test]
    fn text_ordering() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t(c TEXT)").unwrap();
        for name in ["banana", "apple", "cherry"] {
            db.execute(&format!("INSERT INTO t VALUES ('{name}')"))
                .unwrap();
        }
        let r = db.execute("SELECT c FROM t ORDER BY c").unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Text("apple".into())],
                vec![Value::Text("banana".into())],
                vec![Value::Text("cherry".into())]
            ]
        );
    }

    #[test]
    fn prepared_statement_reuse() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t(a INT)").unwrap();
        let stmt = parse("INSERT INTO t VALUES (7)").unwrap();
        for _ in 0..10 {
            executor::execute(&mut db, &stmt).unwrap();
        }
        assert_eq!(db.row_count("t"), Some(10));
    }
}
