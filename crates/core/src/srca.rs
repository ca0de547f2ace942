//! The centralized **SRCA** middleware of §3 (Fig. 1), with the §4
//! adjustments as selectable variants:
//!
//! - [`SrcaVariant::Serial`] — Fig. 1 exactly: validation against `ws_list`
//!   using `cert = lastcommitted_tid_k` captured under `dbmutex_k` at begin,
//!   and strictly serial processing of each replica's `tocommit_queue`.
//!   This variant is **vulnerable to the hidden deadlock** of §4.2 (a local
//!   transaction's commit queued behind a remote writeset that is blocked
//!   inside the database by another local transaction, which in turn waits
//!   on the first) — the integration test `hidden_deadlock.rs` constructs
//!   it.
//! - [`SrcaVariant::ConcurrentCommit`] — adjustments 1+2: validate local
//!   transactions against the queue only, commit/apply any entry with no
//!   conflicting predecessor. Deadlock-free but not 1-copy-SI.
//! - [`SrcaVariant::HoleSync`] — adjustments 1+2+3: additionally
//!   synchronize transaction starts with commit-order holes; restores
//!   1-copy-SI.
//!
//! The decentralized production system is [`crate::cluster::Cluster`]
//! (SRCA-Rep); this module exists because the paper develops and reasons
//! about the centralized algorithm first, and because the hidden-deadlock
//! phenomenon is easiest to exhibit here.

use crate::holes::HoleTracker;
use crate::msg::XactId;
use crate::session::{Connection, System};
use crate::validation::WsList;
use parking_lot::{Condvar, Mutex};
use sirep_common::{AbortReason, DbError, GlobalTid, Metrics, ReplicaId};
use sirep_sql::ExecResult;
use sirep_storage::{CostModel, Database, TxnHandle, WriteSet};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which stage of the paper's development to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcaVariant {
    /// Fig. 1: serial queues, `ws_list` validation (hidden-deadlock-prone).
    Serial,
    /// Adjustments 1+2 (no 1-copy-SI).
    ConcurrentCommit,
    /// Adjustments 1+2+3 (1-copy-SI restored).
    HoleSync,
}

#[derive(Debug, Clone)]
pub struct SrcaConfig {
    pub replicas: usize,
    pub variant: SrcaVariant,
    pub cost: CostModel,
    /// Applier threads per replica (ignored for `Serial`, which uses 1).
    pub appliers: usize,
}

impl SrcaConfig {
    pub fn test(replicas: usize, variant: SrcaVariant) -> SrcaConfig {
        SrcaConfig { replicas, variant, cost: CostModel::free(), appliers: 2 }
    }
}

const WAIT_TICK: Duration = Duration::from_millis(25);

struct QEntry {
    tid: GlobalTid,
    xact: XactId,
    ws: Arc<WriteSet>,
    /// This entry is local at this queue's replica.
    local: bool,
    running: bool,
}

struct PendingLocal {
    txn: TxnHandle,
    responder: SyncSender<Result<(), DbError>>,
    /// Keeps the transaction counted as "running local" at its replica
    /// until it no longer holds database locks (see HoleTracker's set B).
    _guard: Option<LocalGuard>,
}

/// RAII membership in a replica's running-locals set (B).
struct LocalGuard {
    shared: Arc<Shared>,
    replica: usize,
}

impl Drop for LocalGuard {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.holes[self.replica].local_finished();
        drop(st);
        self.shared.cond.notify_all();
    }
}

struct SrcaState {
    wslist: WsList,
    queues: Vec<VecDeque<QEntry>>,
    holes: Vec<HoleTracker>,
    lastcommitted: Vec<GlobalTid>,
    pending: HashMap<XactId, PendingLocal>,
}

struct Shared {
    dbs: Vec<Database>,
    state: Mutex<SrcaState>,
    cond: Condvar,
    variant: SrcaVariant,
    metrics: Arc<Metrics>,
    shutdown: AtomicBool,
    next_xact: AtomicU64,
    next_conn: AtomicUsize,
}

/// The centralized SRCA middleware over `n` database replicas.
pub struct Srca {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Srca {
    pub fn new(config: SrcaConfig) -> Srca {
        assert!(config.replicas > 0);
        let dbs: Vec<Database> =
            (0..config.replicas).map(|_| Database::new(config.cost.clone())).collect();
        let shared = Arc::new(Shared {
            dbs,
            state: Mutex::new(SrcaState {
                wslist: WsList::new(),
                queues: (0..config.replicas).map(|_| VecDeque::new()).collect(),
                holes: (0..config.replicas).map(|_| HoleTracker::new()).collect(),
                lastcommitted: vec![GlobalTid::ZERO; config.replicas],
                pending: HashMap::new(),
            }),
            cond: Condvar::new(),
            variant: config.variant,
            metrics: Arc::new(Metrics::new()),
            shutdown: AtomicBool::new(false),
            next_xact: AtomicU64::new(1),
            next_conn: AtomicUsize::new(0),
        });
        let appliers = if config.variant == SrcaVariant::Serial { 1 } else { config.appliers };
        let mut threads = Vec::new();
        for k in 0..config.replicas {
            for _ in 0..appliers {
                let sh = Arc::clone(&shared);
                threads.push(std::thread::spawn(move || applier_loop(sh, k)));
            }
        }
        Srca { shared, threads: Mutex::new(threads) }
    }

    pub fn database(&self, k: usize) -> &Database {
        &self.shared.dbs[k]
    }

    pub fn replicas(&self) -> usize {
        self.shared.dbs.len()
    }

    pub fn variant(&self) -> SrcaVariant {
        self.shared.variant
    }

    /// Install a schema at every replica.
    pub fn execute_ddl(&self, sql: &str) -> Result<(), DbError> {
        for db in &self.shared.dbs {
            let t = db.begin()?;
            sirep_sql::execute_sql(db, &t, sql)?;
            t.commit()?;
        }
        Ok(())
    }

    /// Deterministically populate every replica.
    pub fn load_with(&self, f: impl Fn(&Database) -> Result<(), DbError>) -> Result<(), DbError> {
        for db in &self.shared.dbs {
            db.cost_model().set_suspended(true);
            let r = f(db);
            db.cost_model().set_suspended(false);
            r?;
        }
        Ok(())
    }

    /// Open a session pinned to replica `k` (transactions of one client
    /// stay on one replica so clients read their own writes — the paper's
    /// assignment rule).
    pub fn session(&self, k: usize) -> SrcaConn {
        SrcaConn { shared: Arc::clone(&self.shared), replica: k, current: None }
    }

    /// Total queued writesets across replicas (stall diagnosis).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().queues.iter().map(std::collections::VecDeque::len).sum()
    }

    /// Wait for all queues to drain; returns false on timeout — which is
    /// how the hidden-deadlock test detects the stall.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            {
                let st = self.shared.state.lock();
                if st.queues.iter().all(std::collections::VecDeque::is_empty)
                    && st.pending.is_empty()
                {
                    return true;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for db in &self.shared.dbs {
            db.crash();
        }
        let pendings: Vec<PendingLocal> = {
            let mut st = self.shared.state.lock();
            st.pending.drain().map(|(_, p)| p).collect()
        };
        for p in pendings {
            p.txn.abort(AbortReason::Shutdown);
            let _ = p.responder.send(Err(DbError::Aborted(AbortReason::Shutdown)));
        }
        self.shared.cond.notify_all();
        // Hoisted so the threads guard drops before the joins (a joined
        // thread must be able to take the lock while shutting down).
        let handles = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Srca {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl System for Srca {
    fn name(&self) -> &'static str {
        match self.shared.variant {
            SrcaVariant::Serial => "SRCA (serial)",
            SrcaVariant::ConcurrentCommit => "SRCA (concurrent commit)",
            SrcaVariant::HoleSync => "SRCA (hole sync)",
        }
    }

    fn connect(&self) -> Result<Box<dyn Connection>, DbError> {
        let k = self.shared.next_conn.fetch_add(1, Ordering::Relaxed) % self.shared.dbs.len();
        Ok(Box::new(self.session(k)))
    }

    fn metrics(&self) -> Metrics {
        let m = Metrics::new();
        m.merge(&self.shared.metrics);
        m
    }
}

/// A client connection to the centralized middleware, pinned to replica `k`.
pub struct SrcaConn {
    shared: Arc<Shared>,
    replica: usize,
    current: Option<(XactId, TxnHandle, GlobalTid /* cert */, LocalGuard)>,
}

impl SrcaConn {
    fn begin(&mut self) -> Result<(XactId, TxnHandle, GlobalTid, LocalGuard), DbError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(DbError::Aborted(AbortReason::Shutdown));
        }
        let k = self.replica;
        let xact = XactId {
            origin: ReplicaId::new(k as u64),
            seq: self.shared.next_xact.fetch_add(1, Ordering::Relaxed),
        };
        Metrics::inc(&self.shared.metrics.begins_total);
        // Obtain "dbmutex_k" (the state lock), read lastcommitted_tid_k,
        // begin at R_k (SRCA step I.1). HoleSync additionally waits until
        // the commit order has no holes (adjustment 3).
        let mut st = self.shared.state.lock();
        if self.shared.variant == SrcaVariant::HoleSync && st.holes[k].holes_exist() {
            Metrics::inc(&self.shared.metrics.begins_delayed_by_holes);
            st.holes[k].start_waiting();
            while st.holes[k].holes_exist() && !self.shared.shutdown.load(Ordering::Acquire) {
                self.shared.cond.wait_for(&mut st, WAIT_TICK);
            }
            st.holes[k].done_waiting();
            self.shared.cond.notify_all();
        }
        let cert = st.lastcommitted[k];
        let txn = self.shared.dbs[k].begin()?;
        st.holes[k].local_started();
        drop(st);
        let guard = LocalGuard { shared: Arc::clone(&self.shared), replica: k };
        Ok((xact, txn, cert, guard))
    }
}

impl Connection for SrcaConn {
    fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError> {
        // take/insert instead of an is_none + expect round-trip, so there
        // is no panic path here at all.
        let cur = match self.current.take() {
            Some(c) => c,
            None => self.begin()?,
        };
        let (_, txn, _, _) = &*self.current.insert(cur);
        let db = &self.shared.dbs[self.replica];
        match sirep_sql::execute_sql(db, txn, sql) {
            Ok(r) => Ok(r),
            Err(e) => {
                if e.is_abort() || matches!(e, DbError::DuplicateKey(_)) {
                    if let DbError::Aborted(reason) = &e {
                        match reason {
                            AbortReason::SerializationFailure => {
                                Metrics::inc(&self.shared.metrics.aborts_serialization);
                            }
                            AbortReason::Deadlock => {
                                Metrics::inc(&self.shared.metrics.aborts_deadlock);
                            }
                            _ => {}
                        }
                    }
                    self.current = None;
                }
                Err(e)
            }
        }
    }

    fn commit(&mut self) -> Result<(), DbError> {
        let Some((xact, txn, cert, guard)) = self.current.take() else {
            return Ok(());
        };
        let k = self.replica;
        let ws = txn.writeset();
        if ws.is_empty() {
            txn.commit()?;
            Metrics::inc(&self.shared.metrics.commits_readonly);
            return Ok(());
        }
        let (reply_tx, reply_rx) = sync_channel(1);
        {
            // "obtain wsmutex" — validation is atomic (step I.3.c-e).
            let mut st = self.shared.state.lock();
            let passes = match self.shared.variant {
                SrcaVariant::Serial => st.wslist.passes(cert, &ws),
                // Adjustment 1: only the local tocommit queue matters.
                _ => !st.queues[k].iter().any(|e| e.ws.intersects(&ws)),
            };
            if !passes {
                drop(st);
                txn.abort(AbortReason::ValidationFailure);
                Metrics::inc(&self.shared.metrics.aborts_validation);
                return Err(DbError::Aborted(AbortReason::ValidationFailure));
            }
            let ws = Arc::new(ws);
            let tid = st.wslist.append(xact, Arc::clone(&ws));
            for (r, queue) in st.queues.iter_mut().enumerate() {
                queue.push_back(QEntry {
                    tid,
                    xact,
                    ws: Arc::clone(&ws),
                    local: r == k,
                    running: false,
                });
            }
            for holes in &mut st.holes {
                holes.on_validated(tid);
            }
            st.pending.insert(xact, PendingLocal { txn, responder: reply_tx, _guard: Some(guard) });
            self.shared.cond.notify_all();
        }
        match reply_rx.recv() {
            Ok(Ok(())) => {
                Metrics::inc(&self.shared.metrics.commits_update);
                Ok(())
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err(DbError::Aborted(AbortReason::Shutdown)),
        }
    }

    fn rollback(&mut self) {
        if let Some((_, txn, _, _)) = self.current.take() {
            txn.abort(AbortReason::UserRequested);
            Metrics::inc(&self.shared.metrics.aborts_user);
        }
    }

    fn xact_id(&self) -> Option<XactId> {
        self.current.as_ref().map(|(x, _, _, _)| *x)
    }
}

/// Step II (Fig. 1) / step III (adjusted): process a replica's queue.
fn applier_loop(sh: Arc<Shared>, k: usize) {
    loop {
        let picked = {
            let mut st = sh.state.lock();
            loop {
                if sh.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let queue = &mut st.queues[k];
                let idx = match sh.variant {
                    // Fig. 1: strictly the head of the queue.
                    SrcaVariant::Serial => {
                        if queue.front().is_some_and(|e| !e.running) {
                            Some(0)
                        } else {
                            None
                        }
                    }
                    // Adjustment 2: first entry with no conflicting
                    // predecessor.
                    _ => find_eligible(queue),
                };
                if let Some(i) = idx {
                    let e = &mut queue[i];
                    e.running = true;
                    break (e.tid, e.xact, Arc::clone(&e.ws), e.local);
                }
                sh.cond.wait_for(&mut st, WAIT_TICK);
            }
        };
        let (tid, xact, ws, local) = picked;
        let handle = if local {
            // Bind the removal so the state guard drops before finalize()
            // re-locks it.
            let pending = sh.state.lock().pending.remove(&xact);
            match pending {
                Some(p) => {
                    finalize(&sh, k, tid, xact, p.txn, local, Some(p.responder));
                    continue;
                }
                None => {
                    // Shutdown raced us.
                    discard(&sh, k, tid, xact);
                    continue;
                }
            }
        } else {
            match apply_remote(&sh, k, &ws) {
                Some(h) => h,
                None => return,
            }
        };
        finalize(&sh, k, tid, xact, handle, local, None);
    }
}

fn find_eligible(queue: &VecDeque<QEntry>) -> Option<usize> {
    queue.iter().enumerate().find_map(|(i, e)| {
        if e.running {
            return None;
        }
        let blocked = queue.iter().take(i).any(|p| p.ws.intersects(&e.ws));
        (!blocked).then_some(i)
    })
}

fn apply_remote(sh: &Arc<Shared>, k: usize, ws: &WriteSet) -> Option<TxnHandle> {
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let txn = sh.dbs[k].begin().ok()?;
        match txn.apply_writeset(ws) {
            Ok(()) => return Some(txn),
            Err(DbError::Aborted(AbortReason::Deadlock))
            | Err(DbError::Aborted(AbortReason::SerializationFailure)) => {
                Metrics::inc(&sh.metrics.ws_apply_retries);
            }
            Err(DbError::Aborted(AbortReason::Shutdown)) => return None,
            Err(e) => panic!("writeset application failed irrecoverably: {e}"), // sirep-lint: allow(no-unwrap-on-protocol-paths): non-transient apply failure = schema divergence across copies; crashing beats a silent fork (mirrors node.rs apply_remote)
        }
    }
}

fn finalize(
    sh: &Arc<Shared>,
    k: usize,
    tid: GlobalTid,
    xact: XactId,
    txn: TxnHandle,
    local: bool,
    responder: Option<SyncSender<Result<(), DbError>>>,
) {
    sh.dbs[k].cost_model().commit();
    let result = {
        let mut st = sh.state.lock();
        if sh.variant == SrcaVariant::HoleSync {
            let mut counted = false;
            while !st.holes[k].may_commit(tid, local) && !sh.shutdown.load(Ordering::Acquire) {
                if !counted {
                    Metrics::inc(&sh.metrics.commits_delayed_for_holes);
                    counted = true;
                }
                sh.cond.wait_for(&mut st, WAIT_TICK);
            }
        }
        if sh.shutdown.load(Ordering::Acquire) {
            drop(st);
            txn.abort(AbortReason::Shutdown);
            if let Some(r) = responder {
                let _ = r.send(Err(DbError::Aborted(AbortReason::Shutdown)));
            }
            return;
        }
        let res = txn.commit_quiet().map(|_| ());
        debug_assert!(res.is_ok(), "validated transaction failed to commit: {res:?}");
        st.holes[k].on_committed(tid);
        st.lastcommitted[k] = st.lastcommitted[k].max(tid);
        let queue = &mut st.queues[k];
        if let Some(pos) = queue.iter().position(|e| e.xact == xact) {
            queue.remove(pos);
        }
        // Fig. 1 keeps ws_list entries forever; prune what no future cert
        // can reach (cert = some replica's lastcommitted, so the minimum
        // over replicas is a safe watermark).
        let min = st.lastcommitted.iter().copied().min().unwrap_or(GlobalTid::ZERO);
        let replicas: Vec<ReplicaId> =
            (0..st.lastcommitted.len() as u64).map(ReplicaId::new).collect();
        for r in &replicas {
            let _ = st.wslist.advance_progress(*r, min, &replicas);
        }
        sh.cond.notify_all();
        res
    };
    if let Some(r) = responder {
        let _ = r.send(result);
    }
}

fn discard(sh: &Arc<Shared>, k: usize, tid: GlobalTid, xact: XactId) {
    let mut st = sh.state.lock();
    st.holes[k].on_discarded(tid);
    let queue = &mut st.queues[k];
    if let Some(pos) = queue.iter().position(|e| e.xact == xact) {
        queue.remove(pos);
    }
    sh.cond.notify_all();
}
