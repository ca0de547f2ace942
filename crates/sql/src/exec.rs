//! Statement execution over a [`sirep_storage::TxnHandle`].
//!
//! A light planning step turns `WHERE` clauses that pin every primary-key
//! column with an equality literal into point reads; everything else is a
//! snapshot scan with a compiled predicate. This matters for fidelity, not
//! just speed: the cost model charges scans per visited row, so the planner
//! determines how much simulated I/O a statement consumes — mirroring the
//! indexed-vs-sequential distinction in the paper's PostgreSQL setup.

use crate::ast::*;
use crate::parser::parse;
use sirep_common::DbError;
use sirep_storage::{Database, Key, Row, TableSchema, TxnHandle, Value};
use std::cmp::Ordering;

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// SELECT: column names + rows.
    Rows { columns: Vec<String>, rows: Vec<Row> },
    /// INSERT/UPDATE/DELETE: affected row count.
    Affected(usize),
    /// CREATE TABLE.
    Created,
}

impl ExecResult {
    /// Rows, panicking if this was not a SELECT (test convenience).
    pub fn rows(&self) -> &[Row] {
        match self {
            ExecResult::Rows { rows, .. } => rows,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    pub fn affected(&self) -> usize {
        match self {
            ExecResult::Affected(n) => *n,
            other => panic!("expected affected count, got {other:?}"),
        }
    }
}

sirep_common::wire_codec!(enum ExecResult, "exec result tag" {
    0 => Rows { columns, rows },
    1 => Affected(n),
    2 => Created,
});

/// Parse and execute one SQL string inside `txn`.
pub fn execute_sql(db: &Database, txn: &TxnHandle, sql: &str) -> Result<ExecResult, DbError> {
    let stmt = parse(sql)?;
    execute(db, txn, &stmt)
}

/// Execute a parsed statement inside `txn`.
pub fn execute(db: &Database, txn: &TxnHandle, stmt: &Statement) -> Result<ExecResult, DbError> {
    db.cost_model().stmt_overhead();
    match stmt {
        Statement::CreateTable { name, columns, pk } => {
            let cols =
                columns.iter().map(|(n, t)| sirep_storage::Column::new(n.clone(), *t)).collect();
            let pk_refs: Vec<&str> = pk.iter().map(String::as_str).collect();
            let schema = TableSchema::new(name.clone(), cols, &pk_refs)?;
            db.create_table(schema)?;
            Ok(ExecResult::Created)
        }
        Statement::CreateIndex { table, column } => {
            db.create_index(table, column)?;
            Ok(ExecResult::Created)
        }
        Statement::Insert { table, columns, values } => {
            let schema =
                db.table_schema(table).ok_or_else(|| DbError::UnknownTable(table.clone()))?;
            let mut row = vec![Value::Null; schema.arity()];
            match columns {
                None => {
                    if values.len() != schema.arity() {
                        return Err(DbError::Parse(format!(
                            "INSERT arity {} does not match table {} arity {}",
                            values.len(),
                            table,
                            schema.arity()
                        )));
                    }
                    for (i, v) in values.iter().enumerate() {
                        row[i] = eval_const(v)?;
                    }
                }
                Some(cols) => {
                    if cols.len() != values.len() {
                        return Err(DbError::Parse(
                            "INSERT column list and VALUES arity differ".into(),
                        ));
                    }
                    for (c, v) in cols.iter().zip(values) {
                        let idx = schema
                            .column_index(c)
                            .ok_or_else(|| DbError::UnknownColumn(c.clone()))?;
                        row[idx] = eval_const(v)?;
                    }
                }
            }
            txn.insert(table, row)?;
            Ok(ExecResult::Affected(1))
        }
        Statement::Update { table, sets, predicate } => {
            let schema =
                db.table_schema(table).ok_or_else(|| DbError::UnknownTable(table.clone()))?;
            let compiled_sets: Vec<(usize, CExpr)> = sets
                .iter()
                .map(|(c, e)| {
                    let idx =
                        schema.column_index(c).ok_or_else(|| DbError::UnknownColumn(c.clone()))?;
                    Ok((idx, compile(e, &schema)?))
                })
                .collect::<Result<_, DbError>>()?;
            let matching = fetch_matching(txn, db, table, &schema, predicate.as_ref())?;
            let n = matching.len();
            for old in matching {
                let mut new = old.clone();
                for (idx, e) in &compiled_sets {
                    new[*idx] = eval(e, &old);
                }
                let key = schema.key_of(&old);
                txn.update_key(table, key, new)?;
            }
            Ok(ExecResult::Affected(n))
        }
        Statement::Delete { table, predicate } => {
            let schema =
                db.table_schema(table).ok_or_else(|| DbError::UnknownTable(table.clone()))?;
            let matching = fetch_matching(txn, db, table, &schema, predicate.as_ref())?;
            let n = matching.len();
            for row in matching {
                txn.delete_key(table, schema.key_of(&row))?;
            }
            Ok(ExecResult::Affected(n))
        }
        Statement::Select(sel) => select(db, txn, sel),
    }
}

/// Fetch all rows matching a predicate. Plan, in order of preference:
/// 1. **point read** when the predicate pins the full primary key;
/// 2. **secondary-index lookup** when an equality conjunct hits an indexed
///    column (candidates are re-checked against the full predicate);
/// 3. **full scan** otherwise.
fn fetch_matching(
    txn: &TxnHandle,
    db: &Database,
    table: &str,
    schema: &TableSchema,
    predicate: Option<&Expr>,
) -> Result<Vec<Row>, DbError> {
    match predicate {
        None => txn.scan(table, |_| true),
        Some(pred) => {
            let compiled = compile(pred, schema)?;
            if let Some(key) = point_key(pred, schema) {
                // Point read; re-check the full predicate (it may contain
                // more conjuncts than the key columns).
                return match txn.read(table, &key)? {
                    Some(row) if truthy(&eval(&compiled, &row)) => Ok(vec![row]),
                    _ => Ok(Vec::new()),
                };
            }
            // Secondary index: first equality conjunct on an indexed column.
            let indexed = db.indexed_columns(table);
            if !indexed.is_empty() {
                for conj in pred.conjuncts() {
                    let Some((col, value)) = conj.as_column_eq_literal() else {
                        continue;
                    };
                    let Some(idx) = schema.column_index(col) else {
                        continue;
                    };
                    if !indexed.contains(&idx) {
                        continue;
                    }
                    if let Some(candidates) = txn.index_lookup(table, idx, value)? {
                        return Ok(candidates
                            .into_iter()
                            .filter(|row| truthy(&eval(&compiled, row)))
                            .collect());
                    }
                }
            }
            txn.scan(table, |row| truthy(&eval(&compiled, row)))
        }
    }
}

/// If every PK column is pinned by `col = literal` in the top-level AND
/// conjunction, build the point-read key.
fn point_key(pred: &Expr, schema: &TableSchema) -> Option<Key> {
    let conjuncts = pred.conjuncts();
    let mut parts: Vec<Option<Value>> = vec![None; schema.pk.len()];
    for c in conjuncts {
        if let Some((col, v)) = c.as_column_eq_literal() {
            if let Some(pos) = schema.pk.iter().position(|&i| schema.columns[i].name == col) {
                parts[pos] = Some(v.clone());
            }
        }
    }
    parts.into_iter().collect::<Option<Vec<Value>>>().map(Key::composite)
}

fn select(db: &Database, txn: &TxnHandle, sel: &Select) -> Result<ExecResult, DbError> {
    let schema =
        db.table_schema(&sel.table).ok_or_else(|| DbError::UnknownTable(sel.table.clone()))?;
    let mut rows = fetch_matching(txn, db, &sel.table, &schema, sel.predicate.as_ref())?;

    // ORDER BY base-table columns.
    if !sel.order_by.is_empty() {
        let keys: Vec<(usize, OrderDir)> = sel
            .order_by
            .iter()
            .map(|(c, d)| {
                schema
                    .column_index(c)
                    .map(|i| (i, *d))
                    .ok_or_else(|| DbError::UnknownColumn(c.clone()))
            })
            .collect::<Result<_, DbError>>()?;
        rows.sort_by(|a, b| {
            for &(i, dir) in &keys {
                let ord = a[i].total_cmp(&b[i]);
                let ord = if dir == OrderDir::Desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let Some(limit) = sel.limit {
        rows.truncate(limit as usize);
    }

    let has_agg = sel.projection.iter().any(|p| matches!(p, SelectItem::Aggregate(..)));
    if has_agg {
        if !sel.projection.iter().all(|p| matches!(p, SelectItem::Aggregate(..))) {
            return Err(DbError::Unsupported(
                "mixing aggregates and scalar expressions requires GROUP BY (unsupported)".into(),
            ));
        }
        let mut columns = Vec::new();
        let mut out = Vec::new();
        for item in &sel.projection {
            let SelectItem::Aggregate(func, arg) = item else { unreachable!() };
            let (name, value) = aggregate(*func, arg, &schema, &rows)?;
            columns.push(name);
            out.push(value);
        }
        return Ok(ExecResult::Rows { columns, rows: vec![out] });
    }

    // Scalar projection.
    let mut columns = Vec::new();
    let mut compiled: Vec<ProjectedItem> = Vec::new();
    for item in &sel.projection {
        match item {
            SelectItem::Star => {
                for c in &schema.columns {
                    columns.push(c.name.clone());
                }
                compiled.push(ProjectedItem::Star);
            }
            SelectItem::Expr(e) => {
                columns.push(match e {
                    Expr::Column(c) => c.clone(),
                    _ => "expr".to_owned(),
                });
                compiled.push(ProjectedItem::Expr(compile(e, &schema)?));
            }
            SelectItem::Aggregate(..) => unreachable!("handled above"),
        }
    }
    let projected: Vec<Row> = rows
        .iter()
        .map(|row| {
            let mut out = Vec::with_capacity(columns.len());
            for item in &compiled {
                match item {
                    ProjectedItem::Star => out.extend(row.iter().cloned()),
                    ProjectedItem::Expr(e) => out.push(eval(e, row)),
                }
            }
            out
        })
        .collect();
    Ok(ExecResult::Rows { columns, rows: projected })
}

enum ProjectedItem {
    Star,
    Expr(CExpr),
}

fn aggregate(
    func: AggFunc,
    arg: &AggArg,
    schema: &TableSchema,
    rows: &[Row],
) -> Result<(String, Value), DbError> {
    let col_idx = match arg {
        AggArg::Star => None,
        AggArg::Column(c) => {
            Some(schema.column_index(c).ok_or_else(|| DbError::UnknownColumn(c.clone()))?)
        }
    };
    let non_null = |rows: &[Row]| -> Vec<Value> {
        let Some(i) = col_idx else { return Vec::new() };
        rows.iter().map(|r| r[i].clone()).filter(|v| !v.is_null()).collect()
    };
    let value = match func {
        AggFunc::Count => match col_idx {
            None => Value::Int(rows.len() as i64),
            Some(_) => Value::Int(non_null(rows).len() as i64),
        },
        AggFunc::Sum => {
            let vs = non_null(rows);
            if vs.is_empty() {
                Value::Null
            } else if vs.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(vs.iter().map(|v| v.as_int().unwrap()).sum())
            } else {
                Value::Float(vs.iter().filter_map(Value::as_float).sum())
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut vs = non_null(rows);
            vs.sort_by(Value::total_cmp);
            let v = if func == AggFunc::Min { vs.first() } else { vs.last() };
            v.cloned().unwrap_or(Value::Null)
        }
        AggFunc::Avg => {
            let vs = non_null(rows);
            if vs.is_empty() {
                Value::Null
            } else {
                let sum: f64 = vs.iter().filter_map(Value::as_float).sum();
                Value::Float(sum / vs.len() as f64)
            }
        }
    };
    let name = format!("{func:?}").to_ascii_lowercase();
    Ok((name, value))
}

// ---------------------------------------------------------------------------
// Compiled expressions: column names resolved to indices up front so scan
// predicates evaluate without lookups or allocation.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CExpr {
    Literal(Value),
    Column(usize),
    Binary { op: BinOp, left: Box<CExpr>, right: Box<CExpr> },
    Not(Box<CExpr>),
    IsNull(Box<CExpr>, bool),
}

fn compile(e: &Expr, schema: &TableSchema) -> Result<CExpr, DbError> {
    Ok(match e {
        Expr::Literal(v) => CExpr::Literal(v.clone()),
        Expr::Column(c) => {
            CExpr::Column(schema.column_index(c).ok_or_else(|| DbError::UnknownColumn(c.clone()))?)
        }
        Expr::Binary { op, left, right } => CExpr::Binary {
            op: *op,
            left: Box::new(compile(left, schema)?),
            right: Box::new(compile(right, schema)?),
        },
        Expr::Not(inner) => CExpr::Not(Box::new(compile(inner, schema)?)),
        Expr::IsNull(inner, neg) => CExpr::IsNull(Box::new(compile(inner, schema)?), *neg),
    })
}

/// Evaluate an INSERT value expression (no row context).
fn eval_const(e: &Expr) -> Result<Value, DbError> {
    match e {
        Expr::Column(c) => Err(DbError::Parse(format!("column reference '{c}' in VALUES"))),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, left, right } => {
            let l = eval_const(left)?;
            let r = eval_const(right)?;
            Ok(apply_binop(*op, &l, &r))
        }
        Expr::Not(inner) => {
            let v = eval_const(inner)?;
            Ok(bool_value(not3(as_bool3(&v))))
        }
        Expr::IsNull(inner, neg) => {
            let v = eval_const(inner)?;
            Ok(Value::Int((v.is_null() != *neg) as i64))
        }
    }
}

/// Evaluate a compiled expression against a row. Type errors yield NULL
/// (SQL's unknown), never abort the statement.
fn eval(e: &CExpr, row: &Row) -> Value {
    match e {
        CExpr::Literal(v) => v.clone(),
        CExpr::Column(i) => row.get(*i).cloned().unwrap_or(Value::Null),
        CExpr::Binary { op, left, right } => {
            let l = eval(left, row);
            let r = eval(right, row);
            apply_binop(*op, &l, &r)
        }
        CExpr::Not(inner) => bool_value(not3(as_bool3(&eval(inner, row)))),
        CExpr::IsNull(inner, neg) => Value::Int((eval(inner, row).is_null() != *neg) as i64),
    }
}

/// Booleans are represented as `Int(0/1)`; NULL is unknown.
fn bool_value(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Int(b as i64),
        None => Value::Null,
    }
}

fn as_bool3(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(*i != 0),
        Value::Float(f) => Some(*f != 0.0),
        Value::Text(_) => None,
    }
}

fn not3(b: Option<bool>) -> Option<bool> {
    b.map(|x| !x)
}

/// Three-valued truthiness used by WHERE: only definite TRUE passes.
pub(crate) fn truthy(v: &Value) -> bool {
    as_bool3(v) == Some(true)
}

fn apply_binop(op: BinOp, l: &Value, r: &Value) -> Value {
    if op.is_comparison() {
        let ord = l.sql_cmp(r);
        return bool_value(ord.map(|o| match op {
            BinOp::Eq => o == Ordering::Equal,
            BinOp::Neq => o != Ordering::Equal,
            BinOp::Lt => o == Ordering::Less,
            BinOp::Le => o != Ordering::Greater,
            BinOp::Gt => o == Ordering::Greater,
            BinOp::Ge => o != Ordering::Less,
            _ => unreachable!(),
        }));
    }
    match op {
        BinOp::And => {
            // Kleene logic: FALSE AND x = FALSE even when x is NULL.
            let (a, b) = (as_bool3(l), as_bool3(r));
            bool_value(match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            })
        }
        BinOp::Or => {
            let (a, b) = (as_bool3(l), as_bool3(r));
            bool_value(match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            })
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if l.is_null() || r.is_null() {
                return Value::Null;
            }
            match (l, r) {
                (Value::Int(a), Value::Int(b)) => match op {
                    BinOp::Add => Value::Int(a + b),
                    BinOp::Sub => Value::Int(a - b),
                    BinOp::Mul => Value::Int(a * b),
                    BinOp::Div => {
                        if *b == 0 {
                            Value::Null
                        } else {
                            Value::Int(a / b)
                        }
                    }
                    _ => unreachable!(),
                },
                _ => match (l.as_float(), r.as_float()) {
                    (Some(a), Some(b)) => match op {
                        BinOp::Add => Value::Float(a + b),
                        BinOp::Sub => Value::Float(a - b),
                        BinOp::Mul => Value::Float(a * b),
                        BinOp::Div => {
                            if b == 0.0 {
                                Value::Null
                            } else {
                                Value::Float(a / b)
                            }
                        }
                        _ => unreachable!(),
                    },
                    _ => Value::Null,
                },
            }
        }
        _ => unreachable!(),
    }
}
