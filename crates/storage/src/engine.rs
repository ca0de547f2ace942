//! The database engine: snapshot-isolated transactions over versioned
//! tables, with PostgreSQL's lock-based write-conflict behaviour.
//!
//! One [`Database`] instance models one database replica (`R^k`). The
//! middleware crates drive it through [`TxnHandle`]s:
//!
//! ```text
//! begin → read/scan/insert/update/delete ... → writeset() → commit/abort
//!                                  (remote)  → apply_writeset → commit
//! ```
//!
//! Semantics reproduced from §4 of the paper:
//!
//! - reads never block: they see the newest version committed at or before
//!   the transaction's snapshot (plus the transaction's own writes);
//! - a write acquires the tuple's exclusive lock, **then** performs the
//!   version check: if a concurrent transaction's committed version is
//!   newer than the writer's snapshot, the writer aborts immediately
//!   (first-updater-wins). A writer blocked behind a holder that commits
//!   will acquire the lock and *then* fail the version check — exactly the
//!   PostgreSQL behaviour the paper builds on;
//! - wait-for cycles abort the requester with [`AbortReason::Deadlock`];
//! - the writeset can be extracted *before* commit (the paper's patched
//!   PostgreSQL) and applied at another replica through the normal write
//!   path, so remote transactions block and deadlock like local ones.

use crate::cost::{CostGate, CostModel};
use crate::index::SecondaryIndex;
use crate::lock::LockManager;
use crate::schema::TableSchema;
use crate::value::{Key, Row};
use crate::version::{CommitTs, Version, VersionChain};
use crate::writeset::{TupleId, WriteSet, WsEntry, WsOp};
use parking_lot::{Mutex, RwLock};
use sirep_common::{AbortReason, DbError, TxnId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Transaction lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Active,
    Committed(CommitTs),
    Aborted(AbortReason),
}

#[derive(Debug)]
struct TxnState {
    id: TxnId,
    snapshot: CommitTs,
    status: Mutex<Status>,
    buffer: Mutex<WriteSet>,
    locks: Mutex<Vec<TupleId>>,
    doomed: AtomicBool,
    /// Keys of rows this transaction has read (only filled when the
    /// database has read tracking enabled — used by the 1-copy-SI checker).
    read_keys: Mutex<Vec<(Arc<str>, Key)>>,
}

struct Table {
    /// Shared with every statement that plans against it.
    schema: Arc<TableSchema>,
    name: Arc<str>,
    rows: RwLock<BTreeMap<Key, VersionChain>>,
    /// Secondary equality indexes (candidate postings; readers recheck).
    indexes: RwLock<Vec<SecondaryIndex>>,
}

struct DbInner {
    tables: RwLock<HashMap<Arc<str>, Arc<Table>>>,
    locks: LockManager,
    txns: Mutex<HashMap<TxnId, Arc<TxnState>>>,
    /// Serializes begin and commit so snapshots are consistent cuts.
    commit_mutex: Mutex<()>,
    last_committed: AtomicU64,
    next_txn: AtomicU64,
    /// Active snapshot multiset (snapshot ts → refcount) for version GC.
    active_snapshots: Mutex<BTreeMap<u64, u32>>,
    cost: CostGate,
    closed: AtomicBool,
    /// When set, transactions record the keys of rows they read so the
    /// replication layer can reconstruct readsets for verification.
    track_reads: AtomicBool,
}

/// One database replica.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl Database {
    pub fn new(cost: CostModel) -> Database {
        Database {
            inner: Arc::new(DbInner {
                tables: RwLock::new(HashMap::new()),
                locks: LockManager::new(),
                txns: Mutex::new(HashMap::new()),
                commit_mutex: Mutex::new(()),
                last_committed: AtomicU64::new(0),
                next_txn: AtomicU64::new(1),
                active_snapshots: Mutex::new(BTreeMap::new()),
                cost: CostGate::new(cost),
                closed: AtomicBool::new(false),
                track_reads: AtomicBool::new(false),
            }),
        }
    }

    /// An engine with zero service times (unit tests).
    pub fn in_memory() -> Database {
        Database::new(CostModel::free())
    }

    /// Enable/disable read-key tracking (off by default; costs one lock +
    /// key clone per read when on).
    pub fn set_track_reads(&self, on: bool) {
        self.inner.track_reads.store(on, Ordering::Release);
    }

    pub fn cost_model(&self) -> &CostGate {
        &self.inner.cost
    }

    /// Create a table. Not transactional (DDL is out of the paper's scope;
    /// schemas are installed identically at every replica before the run).
    pub fn create_table(&self, schema: TableSchema) -> Result<(), DbError> {
        let name: Arc<str> = Arc::from(schema.name.as_str());
        let mut tables = self.inner.tables.write();
        if tables.contains_key(&name) {
            return Err(DbError::Internal(format!("table {name} already exists")));
        }
        tables.insert(
            name.clone(),
            Arc::new(Table {
                schema: Arc::new(schema),
                name,
                rows: RwLock::new(BTreeMap::new()),
                indexes: RwLock::new(Vec::new()),
            }),
        );
        Ok(())
    }

    /// Create a secondary equality index on `column` of `table`, built
    /// from the current committed state. Like the schemas, indexes must be
    /// created identically at every replica before the run (or during
    /// recovery's state transfer, which copies committed data the index is
    /// rebuilt from).
    pub fn create_index(&self, table: &str, column: &str) -> Result<(), DbError> {
        let t = self.inner.table(table)?;
        let col = t
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn(column.to_owned()))?;
        // Build under the commit mutex so no installs race the backfill.
        let _g = self.inner.commit_mutex.lock();
        let mut idx = SecondaryIndex::new(col);
        let rows = t.rows.read();
        for (key, chain) in rows.iter() {
            for v in chain.versions() {
                if let Some(row) = &v.row {
                    idx.insert(row[col].clone(), key.clone());
                }
            }
        }
        drop(rows);
        let mut indexes = t.indexes.write();
        if indexes.iter().any(|i| i.column == col) {
            return Err(DbError::Internal(format!("index on {table}.{column} already exists")));
        }
        indexes.push(idx);
        Ok(())
    }

    /// Column positions of `table` that have a secondary index (planner
    /// input).
    pub fn indexed_columns(&self, table: &str) -> Vec<usize> {
        let Ok(t) = self.inner.table(table) else {
            return Vec::new();
        };
        let cols = t.indexes.read().iter().map(|i| i.column).collect();
        cols
    }

    /// Inspection: the postings ([`SecondaryIndex::len`]) of the index on
    /// `column` of `table`; `None` without one.
    pub fn index_postings(&self, table: &str, column: usize) -> Option<usize> {
        let t = self.inner.table(table).ok()?;
        let postings =
            t.indexes.read().iter().find(|i| i.column == column).map(SecondaryIndex::len);
        postings
    }

    pub fn table_schema(&self, name: &str) -> Option<Arc<TableSchema>> {
        self.inner.tables.read().get(name).map(|t| Arc::clone(&t.schema))
    }

    /// The commit timestamp of the most recently committed update
    /// transaction.
    pub fn last_committed(&self) -> CommitTs {
        CommitTs(self.inner.last_committed.load(Ordering::Acquire))
    }

    /// Begin a transaction. The snapshot is taken atomically with respect
    /// to commits (the paper's `dbmutex` in SRCA step I.1).
    pub fn begin(&self) -> Result<TxnHandle, DbError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(DbError::Aborted(AbortReason::Shutdown));
        }
        self.inner.cost.begin();
        let _g = self.inner.commit_mutex.lock();
        let snapshot = self.last_committed();
        let id = TxnId::new(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(TxnState {
            id,
            snapshot,
            status: Mutex::new(Status::Active),
            buffer: Mutex::new(WriteSet::new()),
            locks: Mutex::new(Vec::new()),
            doomed: AtomicBool::new(false),
            read_keys: Mutex::new(Vec::new()),
        });
        {
            // Re-checked under the lock `crash` sweeps, so a begin racing a
            // crash is either refused here or killed by the sweep — never
            // left alive and undoomed in a closed database, where a lock
            // wait would have nobody to end it.
            let mut txns = self.inner.txns.lock();
            if self.inner.closed.load(Ordering::Acquire) {
                return Err(DbError::Aborted(AbortReason::Shutdown));
            }
            txns.insert(id, Arc::clone(&state));
        }
        *self.inner.active_snapshots.lock().entry(snapshot.0).or_insert(0) += 1;
        Ok(TxnHandle { db: Arc::clone(&self.inner), state })
    }

    /// Number of live (visible at the latest snapshot) rows in a table.
    pub fn table_len(&self, name: &str) -> usize {
        let snapshot = self.last_committed();
        let tables = self.inner.tables.read();
        let Some(t) = tables.get(name) else { return 0 };
        let n = t.rows.read().values().filter(|c| c.visible_row(snapshot).is_some()).count();
        n
    }

    /// Kill a transaction from outside (crash simulation): wakes it if
    /// blocked inside the lock manager and dooms all further operations.
    pub fn kill(&self, txn: TxnId) {
        // Hoisted so the txns guard drops before the store (clippy
        // significant_drop_in_scrutinee: if-let scrutinee temporaries
        // live for the whole block in edition 2021).
        let state = self.inner.txns.lock().get(&txn).cloned();
        if let Some(state) = state {
            state.doomed.store(true, Ordering::Release);
        }
        self.inner.locks.doom(txn);
    }

    /// Crash the replica: refuse new transactions and kill all active ones.
    pub fn crash(&self) {
        self.inner.closed.store(true, Ordering::Release);
        let ids: Vec<TxnId> = self.inner.txns.lock().keys().copied().collect();
        for id in ids {
            self.kill(id);
        }
    }

    /// Whether the replica has been crashed/shut down.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Number of transactions currently active (incl. blocked ones).
    pub fn active_txns(&self) -> usize {
        self.inner.txns.lock().len()
    }

    /// Fork a new database containing this replica's *committed* state as
    /// of now: same schemas, the latest visible version of every row,
    /// flattened into a single initial version. Taken under the commit
    /// mutex, so the copy is a consistent cut (used for online recovery —
    /// the paper's §8: a joining replica receives a state transfer and
    /// catches up from logged writesets).
    pub fn fork_latest(&self, cost: CostModel) -> Database {
        let fork = Database::new(cost);
        let _g = self.inner.commit_mutex.lock();
        let snapshot = self.last_committed();
        let tables = self.inner.tables.read();
        for t in tables.values() {
            fork.create_table(TableSchema::clone(&t.schema)).expect("fresh database");
        }
        {
            let fork_tables = fork.inner.tables.read();
            for (name, t) in tables.iter() {
                let src = t.rows.read();
                let dst_table = &fork_tables[name];
                let mut dst = dst_table.rows.write();
                for (key, chain) in src.iter() {
                    if let Some(row) = chain.visible_row(snapshot) {
                        let mut c = VersionChain::new();
                        c.install(Version { commit_ts: CommitTs(1), row: Some(Arc::clone(row)) });
                        dst.insert(key.clone(), c);
                    }
                }
            }
        }
        fork.inner.last_committed.store(1, Ordering::Release);
        fork
    }

    /// Test/inspection: total stored versions in a table (live + old).
    pub fn stored_versions(&self, name: &str) -> usize {
        let tables = self.inner.tables.read();
        let Some(t) = tables.get(name) else { return 0 };
        let n = t.rows.read().values().map(VersionChain::len).sum();
        n
    }
}

impl DbInner {
    fn table(&self, name: &str) -> Result<Arc<Table>, DbError> {
        self.tables.read().get(name).cloned().ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    fn min_active_snapshot(&self) -> CommitTs {
        let snaps = self.active_snapshots.lock();
        match snaps.keys().next() {
            Some(&s) => CommitTs(s),
            None => CommitTs(self.last_committed.load(Ordering::Acquire)),
        }
    }

    fn release_snapshot(&self, s: CommitTs) {
        let mut snaps = self.active_snapshots.lock();
        if let Some(count) = snaps.get_mut(&s.0) {
            *count -= 1;
            if *count == 0 {
                snaps.remove(&s.0);
            }
        }
    }
}

/// A handle to one active transaction. Dropping an unterminated handle
/// aborts the transaction (like closing a JDBC connection mid-transaction).
pub struct TxnHandle {
    db: Arc<DbInner>,
    state: Arc<TxnState>,
}

/// How a write entered the system, for cost accounting and error shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteKind {
    Insert,
    Update,
    Delete,
    Apply,
}

impl TxnHandle {
    pub fn id(&self) -> TxnId {
        self.state.id
    }

    pub fn snapshot(&self) -> CommitTs {
        self.state.snapshot
    }

    fn check_active(&self) -> Result<(), DbError> {
        if self.state.doomed.load(Ordering::Acquire) {
            self.terminate(AbortReason::Shutdown);
            return Err(DbError::Aborted(AbortReason::Shutdown));
        }
        // Copy out so the status guard drops before the return path.
        let status = *self.state.status.lock();
        match status {
            Status::Active => Ok(()),
            Status::Aborted(r) => Err(DbError::Aborted(r)),
            Status::Committed(_) => Err(DbError::NoSuchTransaction),
        }
    }

    /// Point read by primary key. Sees own writes, else the snapshot.
    pub fn read(&self, table: &str, key: &Key) -> Result<Option<Row>, DbError> {
        self.check_active()?;
        let t = self.db.table(table)?;
        self.db.cost.read();
        if let Some(op) = self.state.buffer.lock().get(table, key) {
            return Ok(match op {
                WsOp::Put(row) => Some(row.clone()),
                WsOp::Delete => None,
            });
        }
        let result = {
            let rows = t.rows.read();
            rows.get(key).and_then(|c| c.visible_row(self.state.snapshot)).map(|r| (**r).clone())
        };
        if result.is_some() && self.db.track_reads.load(Ordering::Relaxed) {
            self.state.read_keys.lock().push((t.name.clone(), key.clone()));
        }
        Ok(result)
    }

    /// Snapshot scan with a row predicate; includes own writes. Rows are
    /// returned in primary-key order.
    pub fn scan(
        &self,
        table: &str,
        mut pred: impl FnMut(&Row) -> bool,
    ) -> Result<Vec<Row>, DbError> {
        self.check_active()?;
        let t = self.db.table(table)?;
        let buffer = self.state.buffer.lock();
        let rows = t.rows.read();
        let track = self.db.track_reads.load(Ordering::Relaxed);
        let mut tracked: Vec<(Arc<str>, Key)> = Vec::new();
        let mut out: Vec<(Key, Row)> = Vec::new();
        let mut visited = 0usize;
        for (key, chain) in rows.iter() {
            visited += 1;
            let mut from_snapshot = false;
            let effective: Option<Row> = match buffer.get(table, key) {
                Some(WsOp::Put(r)) => Some(r.clone()),
                Some(WsOp::Delete) => None,
                None => {
                    from_snapshot = true;
                    chain.visible_row(self.state.snapshot).map(|r| (**r).clone())
                }
            };
            if let Some(row) = effective {
                if pred(&row) {
                    if track && from_snapshot {
                        tracked.push((t.name.clone(), key.clone()));
                    }
                    out.push((key.clone(), row));
                }
            }
        }
        // Own inserts for keys not yet present in the table map.
        for e in buffer.entries() {
            if &*e.table == table && !rows.contains_key(&e.key) {
                if let WsOp::Put(row) = &e.op {
                    if pred(row) {
                        out.push((e.key.clone(), row.clone()));
                    }
                }
            }
        }
        drop(rows);
        drop(buffer);
        if !tracked.is_empty() {
            self.state.read_keys.lock().extend(tracked);
        }
        self.db.cost.scan(visited);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out.into_iter().map(|(_, r)| r).collect())
    }

    /// Equality lookup through a secondary index: fetch candidate keys from
    /// the index, read each through normal snapshot visibility, recheck the
    /// value, and merge the transaction's own writes. Returns `None` when
    /// no index exists on `column` (the caller falls back to a scan). Rows
    /// come back in primary-key order, like [`TxnHandle::scan`].
    pub fn index_lookup(
        &self,
        table: &str,
        column: usize,
        value: &crate::value::Value,
    ) -> Result<Option<Vec<Row>>, DbError> {
        self.check_active()?;
        let t = self.db.table(table)?;
        let candidates: Vec<Key> = {
            let indexes = t.indexes.read();
            let Some(idx) = indexes.iter().find(|i| i.column == column) else {
                return Ok(None);
            };
            idx.candidates(value).cloned().collect()
        };
        // Index probe + per-candidate heap fetch.
        self.db.cost.read();
        let buffer = self.state.buffer.lock();
        let rows = t.rows.read();
        let mut out: Vec<(Key, Row)> = Vec::new();
        for key in candidates {
            let effective: Option<Row> = match buffer.get(table, &key) {
                Some(WsOp::Put(r)) => Some(r.clone()),
                Some(WsOp::Delete) => None,
                None => rows
                    .get(&key)
                    .and_then(|c| c.visible_row(self.state.snapshot))
                    .map(|r| (**r).clone()),
            };
            if let Some(row) = effective {
                // Recheck: the index is a candidate set, not the truth.
                if &row[column] == value {
                    out.push((key, row));
                }
            }
        }
        // Own inserts/updates not yet committed are invisible to the index;
        // merge matching buffered rows for keys not already collected.
        for e in buffer.entries() {
            if &*e.table == table {
                if let WsOp::Put(row) = &e.op {
                    if &row[column] == value && !out.iter().any(|(k, _)| k == &e.key) {
                        out.push((e.key.clone(), row.clone()));
                    }
                }
            }
        }
        drop(rows);
        drop(buffer);
        if self.db.track_reads.load(Ordering::Relaxed) {
            let mut tracked = self.state.read_keys.lock();
            for (k, _) in &out {
                tracked.push((t.name.clone(), k.clone()));
            }
        }
        self.db.cost.scan(out.len());
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Some(out.into_iter().map(|(_, r)| r).collect()))
    }

    /// The shared write path: lock → version check → kind-specific checks →
    /// buffer the after-image. On a conflict the whole transaction aborts
    /// (PostgreSQL semantics: an error inside a transaction dooms it).
    /// `id` is built once per write; the lock, the lock list and the buffer
    /// all take it. `wait`: whether to wait for another holder of the tuple
    /// lock.
    fn write_internal(
        &self,
        t: &Table,
        id: TupleId,
        op: WsOp,
        kind: WriteKind,
        wait: bool,
    ) -> Result<(), DbError> {
        if let WsOp::Put(row) = &op {
            t.schema.check_row(row)?;
            if !t.schema.key_matches(row, id.key()) {
                return Err(DbError::Unsupported(
                    "updating primary-key columns is not supported".into(),
                ));
            }
        }
        let already_ours = self.state.buffer.lock().get_id(&id).is_some();
        if !already_ours {
            // Acquire the exclusive tuple lock (blocks behind holders).
            let lock = if wait { LockManager::acquire } else { LockManager::try_acquire };
            if let Err(reason) = lock(&self.db.locks, self.state.id, &id) {
                self.terminate(reason);
                return Err(DbError::Aborted(reason));
            }
            self.state.locks.lock().push(id.clone());
            // Version check (first-updater-wins): a committed version newer
            // than our snapshot means a concurrent writer won.
            let conflict = {
                let rows = t.rows.read();
                rows.get(id.key())
                    .and_then(|c| c.newest())
                    .is_some_and(|v| v.commit_ts > self.state.snapshot)
            };
            if conflict {
                self.terminate(AbortReason::SerializationFailure);
                return Err(DbError::Aborted(AbortReason::SerializationFailure));
            }
        }
        // Kind-specific visibility checks against snapshot + own buffer.
        match kind {
            WriteKind::Insert => {
                let own = self.state.buffer.lock().get_id(&id).map(|op| matches!(op, WsOp::Put(_)));
                let exists = own.unwrap_or_else(|| {
                    t.rows
                        .read()
                        .get(id.key())
                        .and_then(|c| c.visible_row(self.state.snapshot))
                        .is_some()
                });
                if exists {
                    // A duplicate key is a statement error, not a txn abort,
                    // in PostgreSQL only under savepoints; without them the
                    // txn is doomed. We doom it (no savepoints here).
                    self.terminate(AbortReason::SerializationFailure);
                    return Err(DbError::DuplicateKey(format!("{}{}", id.table(), id.key())));
                }
            }
            WriteKind::Update | WriteKind::Delete | WriteKind::Apply => {}
        }
        match kind {
            WriteKind::Apply => self.db.cost.apply_write(),
            _ => self.db.cost.write(),
        }
        self.state.buffer.lock().push_id(id, op);
        Ok(())
    }

    /// A local write: `(table, key)` becomes the tuple's id here.
    fn write_key(&self, table: &str, key: Key, op: WsOp, kind: WriteKind) -> Result<(), DbError> {
        self.check_active()?;
        let t = self.db.table(table)?;
        let id = TupleId::new(t.name.clone(), key);
        self.write_internal(&t, id, op, kind, true)
    }

    /// Insert a full row; fails on a visible duplicate key.
    pub fn insert(&self, table: &str, row: Row) -> Result<(), DbError> {
        let t = self.db.table(table)?;
        let key = t.schema.key_of(&row);
        self.write_key(table, key, WsOp::Put(row), WriteKind::Insert)
    }

    /// Write a full-row after-image for `key` (used by UPDATE execution,
    /// which reads the old row, computes the new image, and stores it).
    pub fn update_key(&self, table: &str, key: Key, row: Row) -> Result<(), DbError> {
        self.write_key(table, key, WsOp::Put(row), WriteKind::Update)
    }

    /// Delete the tuple with `key` (no-op at commit if it never existed).
    pub fn delete_key(&self, table: &str, key: Key) -> Result<(), DbError> {
        self.write_key(table, key, WsOp::Delete, WriteKind::Delete)
    }

    /// Apply a replicated writeset: blind writes through the normal lock +
    /// version-check path, charged at the cheaper writeset-application rate
    /// (§6.3: ~20 % of full execution).
    pub fn apply_writeset(&self, ws: &WriteSet) -> Result<(), DbError> {
        self.apply_entries(ws, true)
    }

    /// [`TxnHandle::apply_writeset`] that never waits: a tuple lock another
    /// transaction holds aborts this one, releasing every lock it took.
    pub fn apply_writeset_nowait(&self, ws: &WriteSet) -> Result<(), DbError> {
        self.apply_entries(ws, false)
    }

    /// Each entry goes through the write path under the id the arriving
    /// writeset already carries: nothing is hashed again.
    fn apply_entries(&self, ws: &WriteSet, wait: bool) -> Result<(), DbError> {
        for (id, e) in ws.tuple_ids().zip(ws.entries()) {
            self.check_active()?;
            let t = self.db.table(id.table())?;
            self.write_internal(&t, id.clone(), e.op.clone(), WriteKind::Apply, wait)?;
        }
        Ok(())
    }

    /// Extract the writeset accumulated so far — the paper's pre-commit
    /// `getwriteset()`.
    pub fn writeset(&self) -> WriteSet {
        self.state.buffer.lock().clone()
    }

    /// Whether this transaction has performed any writes.
    pub fn is_readonly(&self) -> bool {
        self.state.buffer.lock().is_empty()
    }

    /// Keys this transaction has read from the snapshot (only filled when
    /// [`Database::set_track_reads`] is enabled).
    pub fn read_keys(&self) -> Vec<(Arc<str>, Key)> {
        self.state.read_keys.lock().clone()
    }

    /// Commit. Read-only transactions take a fast path that consumes no
    /// commit timestamp. Returns the commit timestamp (for read-only
    /// transactions, the snapshot).
    pub fn commit(self) -> Result<CommitTs, DbError> {
        if !self.is_readonly() {
            // Log force, modelled outside the commit mutex (group commit).
            self.db.cost.commit();
        }
        self.commit_quiet()
    }

    /// Commit without charging the commit service time — for coordinators
    /// that charge it themselves before entering a critical section (the
    /// replication middleware must hold its queue lock across the final
    /// commit step but must not sleep under it).
    pub fn commit_quiet(self) -> Result<CommitTs, DbError> {
        self.check_active()?;
        let buffer = std::mem::take(&mut *self.state.buffer.lock());
        if buffer.is_empty() {
            self.finish(Status::Committed(self.state.snapshot));
            return Ok(self.state.snapshot);
        }
        let ts = {
            let _g = self.db.commit_mutex.lock();
            let ts = CommitTs(self.db.last_committed.load(Ordering::Acquire)).next();
            let min_snap = self.db.min_active_snapshot();
            let tables = self.db.tables.read();
            for WsEntry { table, key, op } in buffer.into_entries() {
                let t = tables.get(&table).expect("writeset table vanished");
                let row = match op {
                    WsOp::Put(r) => Some(Arc::new(r)),
                    WsOp::Delete => None,
                };
                let mut rows = t.rows.write();
                let chain = rows.entry(key.clone()).or_default();
                // Retained by the prune below (`index` module doc), so its
                // postings stand.
                let prev = chain.newest().and_then(|v| v.row.clone());
                chain.install(Version { commit_ts: ts, row: row.clone() });
                let dropped = chain.prune(min_snap);
                let mut indexes = t.indexes.write();
                for idx in indexes.iter_mut() {
                    let col = idx.column;
                    if let Some(r) = &row {
                        if prev.as_ref().is_none_or(|p| p[col] != r[col]) {
                            idx.insert(r[col].clone(), key.clone());
                        }
                    }
                    if !dropped.is_empty() {
                        idx.remove_dropped(&key, &dropped, chain.versions());
                    }
                }
            }
            self.db.last_committed.store(ts.0, Ordering::Release);
            ts
        };
        self.finish(Status::Committed(ts));
        Ok(ts)
    }

    /// Abort with an explicit reason (user rollback, validation failure).
    pub fn abort(self, reason: AbortReason) {
        self.terminate(reason);
    }

    /// Idempotent terminal transition; releases locks and the snapshot.
    fn terminate(&self, reason: AbortReason) {
        let mut status = self.state.status.lock();
        if *status != Status::Active {
            return;
        }
        *status = Status::Aborted(reason);
        drop(status);
        *self.state.buffer.lock() = WriteSet::new();
        self.cleanup();
    }

    fn finish(&self, status: Status) {
        *self.state.status.lock() = status;
        self.cleanup();
    }

    fn cleanup(&self) {
        let locks = std::mem::take(&mut *self.state.locks.lock());
        self.db.locks.release_all(self.state.id, &locks);
        self.db.release_snapshot(self.state.snapshot);
        self.db.txns.lock().remove(&self.state.id);
    }
}

impl Drop for TxnHandle {
    fn drop(&mut self) {
        // Safe to call unconditionally: terminate() is a no-op unless the
        // transaction is still active.
        self.terminate(AbortReason::UserRequested);
    }
}

impl std::fmt::Debug for TxnHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxnHandle({}, snap={:?})", self.state.id, self.state.snapshot)
    }
}
