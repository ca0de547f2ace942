//! Table schemas.

use crate::value::{Row, Value};
use sirep_common::DbError;

/// Column data types (the subset the workloads need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    Float,
    Text,
}

impl ColumnType {
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Text => "text",
        }
    }

    /// Whether `v` is acceptable for a column of this type. NULL is allowed
    /// everywhere (the workloads don't need NOT NULL) and ints widen to
    /// float columns.
    pub fn accepts(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_) | Value::Int(_))
                | (ColumnType::Text, Value::Text(_))
        )
    }
}

/// One column definition.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Column {
        Column { name: name.into(), ty }
    }
}

/// A table definition: named columns plus the primary-key column set.
#[derive(Debug, Clone)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<Column>,
    /// Indices into `columns` forming the primary key, in key order.
    pub pk: Vec<usize>,
}

impl TableSchema {
    /// Build a schema; `pk_cols` are column names.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<Column>,
        pk_cols: &[&str],
    ) -> Result<TableSchema, DbError> {
        let name = name.into();
        let mut pk = Vec::with_capacity(pk_cols.len());
        for pk_col in pk_cols {
            let idx = columns
                .iter()
                .position(|c| c.name == *pk_col)
                .ok_or_else(|| DbError::UnknownColumn((*pk_col).to_owned()))?;
            pk.push(idx);
        }
        assert!(!pk.is_empty(), "table {name} must have a primary key");
        Ok(TableSchema { name, columns, pk })
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Project a row's primary key.
    pub fn key_of(&self, row: &Row) -> crate::value::Key {
        crate::value::Key(self.pk.iter().map(|&i| row[i].clone()).collect())
    }

    /// Whether `row`'s primary key is `key`: [`TableSchema::key_of`]
    /// compared, without building the key.
    pub fn key_matches(&self, row: &Row, key: &crate::value::Key) -> bool {
        self.pk.len() == key.0.len() && self.pk.iter().zip(key.0.iter()).all(|(&i, v)| &row[i] == v)
    }

    /// Validate a full row against the schema (arity + per-column types,
    /// non-null PK).
    pub fn check_row(&self, row: &Row) -> Result<(), DbError> {
        if row.len() != self.columns.len() {
            return Err(DbError::Internal(format!(
                "row arity {} does not match table {} arity {}",
                row.len(),
                self.name,
                self.columns.len()
            )));
        }
        for (col, v) in self.columns.iter().zip(row) {
            if !col.ty.accepts(v) {
                return Err(DbError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty.name(),
                });
            }
        }
        for &i in &self.pk {
            if row[i].is_null() {
                return Err(DbError::TypeMismatch {
                    column: self.columns[i].name.clone(),
                    expected: "non-null primary key",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Key;

    fn item_schema() -> TableSchema {
        TableSchema::new(
            "item",
            vec![
                Column::new("i_id", ColumnType::Int),
                Column::new("i_title", ColumnType::Text),
                Column::new("i_cost", ColumnType::Float),
            ],
            &["i_id"],
        )
        .unwrap()
    }

    #[test]
    fn key_projection() {
        let s = item_schema();
        let row = vec![Value::Int(7), Value::Text("book".into()), Value::Float(9.99)];
        assert_eq!(s.key_of(&row), Key::single(7));
    }

    #[test]
    fn composite_pk() {
        let s = TableSchema::new(
            "order_line",
            vec![
                Column::new("ol_o_id", ColumnType::Int),
                Column::new("ol_id", ColumnType::Int),
                Column::new("ol_qty", ColumnType::Int),
            ],
            &["ol_o_id", "ol_id"],
        )
        .unwrap();
        let row = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(s.key_of(&row), Key::composite(vec![Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn unknown_pk_column_rejected() {
        let r = TableSchema::new("t", vec![Column::new("a", ColumnType::Int)], &["b"]);
        assert!(matches!(r, Err(DbError::UnknownColumn(_))));
    }

    #[test]
    fn row_validation() {
        let s = item_schema();
        assert!(s.check_row(&vec![Value::Int(1), Value::Text("x".into()), Value::Int(5)]).is_ok());
        // wrong arity
        assert!(s.check_row(&vec![Value::Int(1)]).is_err());
        // wrong type
        let bad = s.check_row(&vec![Value::Text("no".into()), Value::Null, Value::Null]);
        assert!(matches!(bad, Err(DbError::TypeMismatch { .. })));
        // null pk
        let badpk = s.check_row(&vec![Value::Null, Value::Null, Value::Null]);
        assert!(matches!(badpk, Err(DbError::TypeMismatch { .. })));
    }

    #[test]
    fn int_widens_to_float_column() {
        assert!(ColumnType::Float.accepts(&Value::Int(3)));
        assert!(!ColumnType::Int.accepts(&Value::Float(3.0)));
    }

    #[test]
    fn column_lookup() {
        let s = item_schema();
        assert_eq!(s.column_index("i_cost"), Some(2));
        assert_eq!(s.column_index("nope"), None);
        assert_eq!(s.arity(), 3);
    }
}
