//! Storage layer: tables, rows, values and secondary indexes.

use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Real(f64),
    /// UTF-8 text.
    Text(String),
    /// NULL.
    Null,
}

impl Value {
    /// SQL-style comparison: numerics compare numerically across Int/Real,
    /// NULL compares less than everything, text compares lexicographically.
    #[must_use]
    pub fn compare(&self, other: &Value) -> Ordering {
        use Value::{Int, Null, Real, Text};
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Real(a), Real(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Real(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Real(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Text(a), Text(b)) => a.cmp(b),
            // Mixed text/number: numbers sort first (SQLite's type order).
            (Text(_), _) => Ordering::Greater,
            (_, Text(_)) => Ordering::Less,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// Total-ordered wrapper so values can key a `BTreeMap` index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKey(pub Value);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.compare(&other.0)
    }
}

/// Declared column types (affinity only; storage is dynamically typed,
/// like SQLite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Integer affinity.
    Int,
    /// Real affinity.
    Real,
    /// Text affinity.
    Text,
}

/// A secondary index on a single column.
#[derive(Debug)]
pub struct Index {
    /// Index name.
    pub name: String,
    /// Indexed column position.
    pub column: usize,
    /// Key -> row ids.
    pub map: BTreeMap<IndexKey, Vec<usize>>,
}

impl Index {
    fn insert(&mut self, key: Value, row_id: usize) {
        self.map.entry(IndexKey(key)).or_default().push(row_id);
    }

    fn remove(&mut self, key: &Value, row_id: usize) {
        if let Some(ids) = self.map.get_mut(&IndexKey(key.clone())) {
            ids.retain(|id| *id != row_id);
            if ids.is_empty() {
                self.map.remove(&IndexKey(key.clone()));
            }
        }
    }
}

/// A table: schema, row storage with tombstones, and indexes.
#[derive(Debug)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Column affinities.
    pub types: Vec<ColumnType>,
    /// Row storage; `None` marks deleted rows (tombstones).
    pub rows: Vec<Option<Vec<Value>>>,
    /// Secondary indexes.
    pub indexes: Vec<Index>,
    live: usize,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(name: String, columns: Vec<String>, types: Vec<ColumnType>) -> Self {
        Table {
            name,
            columns,
            types,
            rows: Vec::new(),
            indexes: Vec::new(),
            live: 0,
        }
    }

    /// Resolves a column name to its position.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Number of live (non-deleted) rows.
    #[must_use]
    pub fn live_rows(&self) -> usize {
        self.live
    }

    /// Appends a row, updating all indexes. Returns the row id.
    pub fn insert(&mut self, row: Vec<Value>) -> usize {
        let row_id = self.rows.len();
        for index in &mut self.indexes {
            index.insert(row[index.column].clone(), row_id);
        }
        self.rows.push(Some(row));
        self.live += 1;
        row_id
    }

    /// Deletes a row by id (idempotent).
    pub fn delete(&mut self, row_id: usize) {
        if let Some(slot) = self.rows.get_mut(row_id) {
            if let Some(row) = slot.take() {
                self.live -= 1;
                for index in &mut self.indexes {
                    index.remove(&row[index.column], row_id);
                }
            }
        }
    }

    /// Replaces a column value in a row, keeping indexes consistent.
    pub fn update_cell(&mut self, row_id: usize, column: usize, value: Value) {
        // Collect index maintenance first to appease the borrow checker.
        let old = match self.rows.get(row_id).and_then(Option::as_ref) {
            Some(row) => row[column].clone(),
            None => return,
        };
        for index in &mut self.indexes {
            if index.column == column {
                index.remove(&old, row_id);
                index.insert(value.clone(), row_id);
            }
        }
        if let Some(Some(row)) = self.rows.get_mut(row_id) {
            row[column] = value;
        }
    }

    /// Builds an index over `column`, covering existing rows.
    pub fn create_index(&mut self, name: String, column: usize) {
        let mut index = Index {
            name,
            column,
            map: BTreeMap::new(),
        };
        for (row_id, row) in self.rows.iter().enumerate() {
            if let Some(row) = row {
                index.insert(row[column].clone(), row_id);
            }
        }
        self.indexes.push(index);
    }

    /// Finds an index on `column`, if any.
    #[must_use]
    pub fn index_on(&self, column: usize) -> Option<&Index> {
        self.indexes.iter().find(|i| i.column == column)
    }

    /// Iterates live rows as `(row_id, row)`.
    pub fn iter_live(&self) -> impl Iterator<Item = (usize, &Vec<Value>)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(id, row)| row.as_ref().map(|r| (id, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t".into(),
            vec!["a".into(), "b".into()],
            vec![ColumnType::Int, ColumnType::Text],
        )
    }

    #[test]
    fn insert_delete_live_count() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::Text("x".into())]);
        t.insert(vec![Value::Int(2), Value::Text("y".into())]);
        assert_eq!(t.live_rows(), 2);
        t.delete(id);
        assert_eq!(t.live_rows(), 1);
        t.delete(id); // idempotent
        assert_eq!(t.live_rows(), 1);
    }

    #[test]
    fn index_tracks_updates() {
        let mut t = table();
        t.create_index("ia".into(), 0);
        let id = t.insert(vec![Value::Int(5), Value::Text("x".into())]);
        assert_eq!(t.index_on(0).unwrap().map.len(), 1);
        t.update_cell(id, 0, Value::Int(9));
        let idx = t.index_on(0).unwrap();
        assert!(idx.map.contains_key(&IndexKey(Value::Int(9))));
        assert!(!idx.map.contains_key(&IndexKey(Value::Int(5))));
        t.delete(id);
        assert!(t.index_on(0).unwrap().map.is_empty());
    }

    #[test]
    fn value_comparison_cross_type() {
        assert_eq!(Value::Int(2).compare(&Value::Real(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).compare(&Value::Real(2.5)), Ordering::Less);
        assert_eq!(Value::Null.compare(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(
            Value::Text("a".into()).compare(&Value::Int(999)),
            Ordering::Greater
        );
    }

    #[test]
    fn null_never_sql_equal() {
        // Equality as a predicate sees it: NULL equals nothing, itself
        // included, and an INT equals the REAL of the same value.
        let mut db = crate::Database::new();
        db.execute("CREATE TABLE t(a INT, r REAL)").unwrap();
        db.execute("INSERT INTO t VALUES (NULL, 3.0)").unwrap();
        db.execute("INSERT INTO t VALUES (0, 3.0)").unwrap();
        let mut rows = |sql: &str| db.execute(sql).unwrap().rows.len();
        assert_eq!(rows("SELECT a FROM t WHERE a = NULL"), 0);
        assert_eq!(rows("SELECT a FROM t WHERE a = 0"), 1);
        assert_eq!(rows("SELECT a FROM t WHERE r = 3"), 2);
    }
}
