//! # sirep-storage
//!
//! An in-memory multi-version storage engine that provides **snapshot
//! isolation with PostgreSQL's lock-based write-conflict detection** — the
//! database substrate under the SI-Rep replication middleware (SIGMOD 2005).
//!
//! The paper's replica control algorithms depend on very specific database
//! behaviour (its §4 is devoted to it):
//!
//! - transactions read from a snapshot and never block on readers/writers;
//! - a write takes an exclusive tuple lock *during execution* and performs a
//!   version check at lock grant — **first-updater-wins**, so conflicts can
//!   surface before commit, blocked writers abort when the holder commits,
//!   and local/remote transactions can deadlock inside the database;
//! - writesets (identifier + after-image of every modified tuple) can be
//!   extracted **before commit** and applied at other replicas through the
//!   normal write path.
//!
//! This crate reproduces that contract faithfully. See `DESIGN.md` at the
//! workspace root for the substitution argument (why an in-memory engine +
//! cost model stands in for 2005 PostgreSQL).
//!
//! ## Quick example
//!
//! ```
//! use sirep_storage::{Database, TableSchema, Column, ColumnType, Value, Key};
//!
//! let db = Database::in_memory();
//! db.create_table(TableSchema::new(
//!     "accounts",
//!     vec![Column::new("id", ColumnType::Int), Column::new("balance", ColumnType::Int)],
//!     &["id"],
//! ).unwrap()).unwrap();
//!
//! let t = db.begin().unwrap();
//! t.insert("accounts", vec![Value::Int(1), Value::Int(100)]).unwrap();
//! let ws = t.writeset();          // pre-commit writeset extraction
//! assert_eq!(ws.len(), 1);
//! t.commit().unwrap();
//!
//! let r = db.begin().unwrap();
//! let row = r.read("accounts", &Key::single(1)).unwrap().unwrap();
//! assert_eq!(row[1], Value::Int(100));
//! ```

pub mod cost;
pub mod engine;
pub mod index;
pub mod lock;
pub mod schema;
pub mod value;
pub mod version;
pub mod wire;
pub mod writeset;

pub use cost::{CostGate, CostModel};
pub use engine::{Database, TxnHandle};
pub use index::SecondaryIndex;
pub use lock::LockManager;
pub use schema::{Column, ColumnType, TableSchema};
pub use value::{Key, Row, Value};
pub use version::{CommitTs, Version, VersionChain};
pub use writeset::{IdMap, TupleId, WriteSet, WsEntry, WsOp};

#[cfg(test)]
mod engine_tests;
#[cfg(test)]
mod proptests;
