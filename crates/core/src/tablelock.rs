//! The middleware replication protocol of **[20]** (Jiménez-Peris,
//! Patiño-Martínez, Kemme, Alonso — ICDCS 2002), reimplemented as the
//! paper's §6.3 comparison baseline.
//!
//! Protocol (as described in §6.3):
//!
//! - clients submit **parametrized transaction requests** — the whole
//!   transaction plus the set of tables it will access must be known in
//!   advance (exactly the restriction SI-Rep removes);
//! - an update request is **multicast in total order** to all middleware
//!   replicas, which acquire all of its **table-level locks** in delivery
//!   order (all-at-once, so lock acquisition order is consistent and
//!   deadlock-free);
//! - **one replica executes** the transaction (we use the origin — "the
//!   local middleware returns to the client once the transaction has
//!   executed and committed locally"), extracts the writeset and multicasts
//!   it **FIFO** to the remote replicas, which apply it once their locks are
//!   granted;
//! - read-only transactions take shared table locks at the local replica
//!   only.
//!
//! Two messages per update transaction, one client/middleware round trip
//! per transaction — but coarse (table-level) locks. The resulting lock
//! contention is why this baseline saturates earlier than SRCA in Fig. 7.

use crate::msg::XactId;
use crate::session::{Connection, System, TxnTemplate};
use parking_lot::{Condvar, Mutex};
use sirep_common::{AbortReason, DbError, Metrics, ReplicaId};
use sirep_gcs::{Cast, Delivery, GroupConfig, Member, SimGroup, SimHandle, SimMember};
use sirep_sql::ExecResult;
use sirep_storage::{CostModel, Database, WriteSet};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Messages between the middleware replicas of [20].
#[derive(Debug, Clone)]
enum TlMsg {
    /// A transaction request: acquire these table locks in delivery order.
    Request { xact: XactId, origin: ReplicaId, tables: Arc<Vec<String>> },
    /// The executed transaction's writeset (FIFO; applied under the locks).
    Ws { xact: XactId, ws: Arc<WriteSet> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockMode {
    Shared,
    Exclusive,
}

/// A queued table-lock request: all tables at once, granted FIFO.
struct TlLockReq {
    xact: XactId,
    mode: LockMode,
}

#[derive(Default)]
struct TableLockState {
    /// Per-table wait queue; the prefix of compatible requests is granted.
    queues: HashMap<String, VecDeque<TlLockReq>>,
}

impl TableLockState {
    fn enqueue(&mut self, xact: XactId, tables: &[String], mode: LockMode) {
        for t in tables {
            self.queues.entry(t.clone()).or_default().push_back(TlLockReq { xact, mode });
        }
    }

    /// A transaction holds all its locks when, in every table queue it sits
    /// in, it is within the granted prefix (head for exclusive; contiguous
    /// shared run at the head for shared).
    fn granted(&self, xact: XactId, tables: &[String]) -> bool {
        tables.iter().all(|t| {
            let Some(q) = self.queues.get(t) else {
                return false;
            };
            for (i, req) in q.iter().enumerate() {
                if req.xact == xact {
                    return i == 0
                        || (req.mode == LockMode::Shared
                            && q.iter().take(i + 1).all(|r| r.mode == LockMode::Shared));
                }
            }
            false
        })
    }

    fn release(&mut self, xact: XactId, tables: &[String]) {
        for t in tables {
            if let Some(q) = self.queues.get_mut(t) {
                q.retain(|r| r.xact != xact);
                if q.is_empty() {
                    self.queues.remove(t);
                }
            }
        }
    }
}

/// A remote transaction waiting for locks and/or its writeset.
struct RemoteTxn {
    tables: Arc<Vec<String>>,
    ws: Option<Arc<WriteSet>>,
}

struct TlNodeState {
    locks: TableLockState,
    /// Remote update transactions in flight at this replica.
    remote: HashMap<XactId, RemoteTxn>,
    /// Local requests waiting for their locks (signalled via cond).
    _reserved: (),
}

struct TlNode {
    id: ReplicaId,
    db: Database,
    gcs: SimHandle<TlMsg>,
    state: Mutex<TlNodeState>,
    cond: Condvar,
    shutdown: AtomicBool,
    metrics: Arc<Metrics>,
    /// Deliveries fully processed by this node's delivery thread; part of
    /// the `quiesce` fingerprint.
    delivered: AtomicU64,
}

const WAIT_TICK: Duration = Duration::from_millis(25);

impl TlNode {
    /// Handle one delivery (runs on the delivery thread, in order).
    fn on_delivery(self: &Arc<Self>, d: Delivery<TlMsg>) {
        match d {
            Delivery::TotalOrder { msg: TlMsg::Request { xact, origin, tables }, .. } => {
                let mut st = self.state.lock();
                st.locks.enqueue(xact, &tables, LockMode::Exclusive);
                if origin != self.id {
                    st.remote.insert(xact, RemoteTxn { tables, ws: None });
                }
                drop(st);
                self.cond.notify_all();
                self.try_apply_remotes();
            }
            Delivery::Fifo { msg: TlMsg::Ws { xact, ws }, .. } => {
                let mut st = self.state.lock();
                if let Some(r) = st.remote.get_mut(&xact) {
                    r.ws = Some(ws);
                }
                drop(st);
                self.try_apply_remotes();
            }
            Delivery::TotalOrder { msg: TlMsg::Ws { .. }, .. }
            | Delivery::Fifo { msg: TlMsg::Request { .. }, .. } => {
                debug_assert!(false, "message on wrong service level");
            }
            Delivery::ViewChange(_) | Delivery::TotalBatch { .. } => {}
        }
    }

    /// Apply every remote transaction whose locks are granted and whose
    /// writeset has arrived.
    fn try_apply_remotes(self: &Arc<Self>) {
        loop {
            let ready = {
                let st = self.state.lock();
                st.remote
                    .iter()
                    .find(|(x, r)| r.ws.is_some() && st.locks.granted(**x, &r.tables))
                    .map(|(x, r)| {
                        (*x, Arc::clone(&r.tables), Arc::clone(r.ws.as_ref().expect("checked")))
                    })
            };
            let Some((xact, tables, ws)) = ready else {
                return;
            };
            // Only this (delivery) thread applies remotes, so the entry can
            // stay in the map until the apply completes — `quiesce` treats
            // a non-empty map as in-flight work.
            let ok = (|| -> Result<(), DbError> {
                let txn = self.db.begin()?;
                txn.apply_writeset(&ws)?;
                self.db.cost_model().commit();
                txn.commit_quiet()?;
                Ok(())
            })();
            if ok.is_err() && !self.shutdown.load(Ordering::Acquire) {
                debug_assert!(false, "remote apply under table locks cannot conflict: {ok:?}");
            }
            let mut st = self.state.lock();
            st.remote.remove(&xact);
            st.locks.release(xact, &tables);
            drop(st);
            self.cond.notify_all();
        }
    }

    /// Wait until `xact` holds all its table locks at this replica.
    fn wait_for_locks(&self, xact: XactId, tables: &[String]) -> Result<(), DbError> {
        let mut st = self.state.lock();
        while !st.locks.granted(xact, tables) {
            if self.shutdown.load(Ordering::Acquire) {
                return Err(DbError::Aborted(AbortReason::Shutdown));
            }
            self.cond.wait_for(&mut st, WAIT_TICK);
        }
        Ok(())
    }

    fn release_locks(&self, xact: XactId, tables: &[String]) {
        let mut st = self.state.lock();
        st.locks.release(xact, tables);
        drop(st);
        self.cond.notify_all();
    }
}

/// Configuration for the [20] baseline cluster.
#[derive(Debug, Clone)]
pub struct TableLockConfig {
    pub replicas: usize,
    pub cost: CostModel,
    pub gcs: GroupConfig,
}

impl TableLockConfig {
    pub fn test(replicas: usize) -> TableLockConfig {
        TableLockConfig { replicas, cost: CostModel::free(), gcs: GroupConfig::instant() }
    }
}

/// The [20] baseline system.
pub struct TableLockCluster {
    nodes: Vec<Arc<TlNode>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicUsize,
    next_xact: AtomicU64,
}

impl TableLockCluster {
    pub fn new(config: TableLockConfig) -> TableLockCluster {
        let group: SimGroup<TlMsg> = SimGroup::new(config.gcs.clone());
        let mut nodes = Vec::new();
        let mut threads = Vec::new();
        for k in 0..config.replicas {
            let member: SimMember<TlMsg> = group.join();
            let node = Arc::new(TlNode {
                id: ReplicaId::new(k as u64),
                db: Database::new(config.cost.clone()),
                gcs: member.handle(),
                state: Mutex::new(TlNodeState {
                    locks: TableLockState::default(),
                    remote: HashMap::new(),
                    _reserved: (),
                }),
                cond: Condvar::new(),
                shutdown: AtomicBool::new(false),
                metrics: Arc::new(Metrics::new()),
                delivered: AtomicU64::new(0),
            });
            let n = Arc::clone(&node);
            threads.push(std::thread::spawn(move || loop {
                if n.shutdown.load(Ordering::Acquire) {
                    return;
                }
                match member.recv_timeout(Duration::from_millis(20)) {
                    Ok(d) => {
                        n.on_delivery(d);
                        n.delivered.fetch_add(1, Ordering::Release);
                    }
                    Err(sirep_gcs::GcsError::Timeout) => {}
                    Err(_) => return,
                }
            }));
            nodes.push(node);
        }
        TableLockCluster {
            nodes,
            threads: Mutex::new(threads),
            next_conn: AtomicUsize::new(0),
            next_xact: AtomicU64::new(1),
        }
    }

    pub fn execute_ddl(&self, sql: &str) -> Result<(), DbError> {
        for n in &self.nodes {
            let t = n.db.begin()?;
            sirep_sql::execute_sql(&n.db, &t, sql)?;
            t.commit()?;
        }
        Ok(())
    }

    pub fn load_with(&self, f: impl Fn(&Database) -> Result<(), DbError>) -> Result<(), DbError> {
        for n in &self.nodes {
            n.db.cost_model().set_suspended(true);
            let r = f(&n.db);
            n.db.cost_model().set_suspended(false);
            r?;
        }
        Ok(())
    }

    pub fn database(&self, k: usize) -> &Database {
        &self.nodes[k].db
    }

    /// Wait for all remote work to drain. An empty `remote` map alone is
    /// not enough: a Request/Ws can still sit undelivered in the GCS (the
    /// map is only populated at delivery), so also require zero in-flight
    /// messages and a delivery count that stays stable across rounds —
    /// the same fingerprint discipline as the SRCA-Rep cluster's quiesce.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut stable_rounds = 0;
        let mut last_delivered = u64::MAX;
        while std::time::Instant::now() < deadline {
            let in_flight = self.nodes[0].gcs.in_flight().current;
            let drained = self.nodes.iter().all(|n| n.state.lock().remote.is_empty());
            let delivered: u64 =
                self.nodes.iter().map(|n| n.delivered.load(Ordering::Acquire)).sum();
            if in_flight == 0 && drained && delivered == last_delivered {
                stable_rounds += 1;
                if stable_rounds >= 3 {
                    return true;
                }
            } else {
                stable_rounds = 0;
            }
            last_delivered = delivered;
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    pub fn shutdown(&self) {
        for n in &self.nodes {
            n.shutdown.store(true, Ordering::Release);
            n.db.crash();
            n.cond.notify_all();
        }
        // Hoisted so the threads guard drops before the joins (a joined
        // thread must be able to take the lock while shutting down).
        let handles = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for TableLockCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl System for TableLockCluster {
    fn name(&self) -> &'static str {
        "table-lock [20]"
    }

    fn connect(&self) -> Result<Box<dyn Connection>, DbError> {
        let k = self.next_conn.fetch_add(1, Ordering::Relaxed) % self.nodes.len();
        Ok(Box::new(TlConn {
            node: Arc::clone(&self.nodes[k]),
            seq: Arc::new(AtomicU64::new(self.next_xact.fetch_add(1_000_000, Ordering::Relaxed))),
        }))
    }

    fn metrics(&self) -> Metrics {
        let m = Metrics::new();
        for n in &self.nodes {
            m.merge(&n.metrics);
        }
        m
    }
}

/// A client connection to the [20] middleware. Only whole-transaction
/// templates are supported — per-statement execution needs table sets the
/// middleware cannot know, which is precisely the usability gap the paper
/// criticizes.
pub struct TlConn {
    node: Arc<TlNode>,
    seq: Arc<AtomicU64>,
}

impl Connection for TlConn {
    fn execute(&mut self, _sql: &str) -> Result<ExecResult, DbError> {
        Err(DbError::Unsupported(
            "the [20] baseline requires pre-declared transactions; use run_template".into(),
        ))
    }

    fn commit(&mut self) -> Result<(), DbError> {
        Ok(())
    }

    fn rollback(&mut self) {}

    fn run_template(&mut self, tmpl: &TxnTemplate) -> Result<(), DbError> {
        let node = &self.node;
        if node.shutdown.load(Ordering::Acquire) {
            return Err(DbError::Aborted(AbortReason::Shutdown));
        }
        let xact = XactId { origin: node.id, seq: self.seq.fetch_add(1, Ordering::Relaxed) };
        Metrics::inc(&node.metrics.begins_total);
        if tmpl.readonly {
            // Queries: local shared table locks only.
            let mut st = node.state.lock();
            st.locks.enqueue(xact, &tmpl.tables, LockMode::Shared);
            drop(st);
            node.wait_for_locks(xact, &tmpl.tables)?;
            let result = (|| -> Result<(), DbError> {
                let txn = node.db.begin()?;
                for sql in &tmpl.statements {
                    sirep_sql::execute_sql(&node.db, &txn, sql)?;
                }
                txn.commit()?;
                Ok(())
            })();
            node.release_locks(xact, &tmpl.tables);
            if result.is_ok() {
                Metrics::inc(&node.metrics.commits_readonly);
            }
            return result;
        }
        // Update transaction: request multicast in total order; every
        // replica (including us) enqueues the exclusive table locks in
        // delivery order.
        let tables = Arc::new(tmpl.tables.clone());
        node.gcs
            .multicast_total(TlMsg::Request { xact, origin: node.id, tables: Arc::clone(&tables) })
            .map_err(|_| DbError::Aborted(AbortReason::ReplicaCrashed))?;
        node.wait_for_locks(xact, &tables)?;
        // Execute locally under the table locks, commit, then ship the
        // writeset FIFO.
        let result = (|| -> Result<Arc<WriteSet>, DbError> {
            let txn = node.db.begin()?;
            for sql in &tmpl.statements {
                sirep_sql::execute_sql(&node.db, &txn, sql)?;
            }
            let ws = Arc::new(txn.writeset());
            node.db.cost_model().commit();
            txn.commit_quiet()?;
            Ok(ws)
        })();
        match result {
            Ok(ws) => {
                if !ws.is_empty() {
                    let _ = node.gcs.multicast_fifo(TlMsg::Ws { xact, ws });
                } else {
                    // Nothing to replicate; tell remotes to release by
                    // shipping the empty writeset.
                    let _ =
                        node.gcs.multicast_fifo(TlMsg::Ws { xact, ws: Arc::new(WriteSet::new()) });
                }
                node.release_locks(xact, &tables);
                Metrics::inc(&node.metrics.commits_update);
                Ok(())
            }
            Err(e) => {
                // Under exclusive table locks conflicts cannot happen; an
                // error here is a statement error (bad SQL). Release
                // everywhere via an empty writeset.
                let _ = node.gcs.multicast_fifo(TlMsg::Ws { xact, ws: Arc::new(WriteSet::new()) });
                node.release_locks(xact, &tables);
                Metrics::inc(&node.metrics.aborts_user);
                Err(e)
            }
        }
    }
}
