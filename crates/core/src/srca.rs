//! The centralized **SRCA** middleware of §3, exactly as Fig. 1 gives it:
//! validation against `ws_list` using `cert = lastcommitted_tid_k` captured
//! under `dbmutex_k` at begin, and strictly serial processing of each
//! replica's `tocommit_queue`.
//!
//! It exists to exhibit the **hidden deadlock** of §4.2: a local
//! transaction's commit queued behind a remote writeset that is blocked
//! inside the database by another local transaction, which in turn waits
//! on the first. The integration test `hidden_deadlock.rs` constructs it
//! here. Adjustments 1–3 (§4), which resolve it, are what the decentralized
//! [`crate::node::ReplicaNode`] implements in
//! [`crate::node::ReplicationMode`]'s `SrcaOpt` (1+2) and `SrcaRep` (1+2+3).

use crate::msg::XactId;
use crate::session::Connection;
use crate::validation::WsList;
use parking_lot::{Condvar, Mutex};
use sirep_common::{AbortReason, DbError, GlobalTid, ReplicaId};
use sirep_sql::ExecResult;
use sirep_storage::{CostModel, Database, TxnHandle, WriteSet};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const WAIT_TICK: Duration = Duration::from_millis(25);

struct QEntry {
    tid: GlobalTid,
    xact: XactId,
    ws: Arc<WriteSet>,
    /// This entry is local at this queue's replica.
    local: bool,
}

struct PendingLocal {
    txn: TxnHandle,
    responder: SyncSender<Result<(), DbError>>,
}

struct SrcaState {
    wslist: WsList,
    queues: Vec<VecDeque<QEntry>>,
    lastcommitted: Vec<GlobalTid>,
    pending: HashMap<XactId, PendingLocal>,
}

struct Shared {
    dbs: Vec<Database>,
    state: Mutex<SrcaState>,
    cond: Condvar,
    shutdown: AtomicBool,
    next_xact: AtomicU64,
}

/// The centralized SRCA middleware over `n` database replicas.
pub struct Srca {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Srca {
    /// `replicas` copies on free databases, one queue-processing thread
    /// each.
    pub fn new(replicas: usize) -> Srca {
        assert!(replicas > 0);
        let shared = Arc::new(Shared {
            dbs: (0..replicas).map(|_| Database::new(CostModel::free())).collect(),
            state: Mutex::new(SrcaState {
                wslist: WsList::new(),
                queues: (0..replicas).map(|_| VecDeque::new()).collect(),
                lastcommitted: vec![GlobalTid::ZERO; replicas],
                pending: HashMap::new(),
            }),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_xact: AtomicU64::new(1),
        });
        let threads = (0..replicas)
            .map(|k| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || applier_loop(sh, k))
            })
            .collect();
        Srca { shared, threads: Mutex::new(threads) }
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

    /// Open a session pinned to replica `k` (transactions of one client
    /// stay on one replica so clients read their own writes — the paper's
    /// assignment rule).
    pub fn session(&self, k: usize) -> SrcaConn {
        SrcaConn { shared: Arc::clone(&self.shared), replica: k, current: None }
    }

    /// Wait for all queues to drain; returns false on timeout — which is
    /// how the hidden-deadlock test detects the stall.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            {
                let st = self.shared.state.lock();
                if st.queues.iter().all(VecDeque::is_empty) && st.pending.is_empty() {
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

/// A client connection to the centralized middleware, pinned to replica `k`.
pub struct SrcaConn {
    shared: Arc<Shared>,
    replica: usize,
    current: Option<(XactId, TxnHandle, GlobalTid /* cert */)>,
}

impl SrcaConn {
    fn begin(&mut self) -> Result<(XactId, TxnHandle, GlobalTid), DbError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(DbError::Aborted(AbortReason::Shutdown));
        }
        let k = self.replica;
        let xact = XactId {
            origin: ReplicaId::new(k as u64),
            seq: self.shared.next_xact.fetch_add(1, Ordering::Relaxed),
        };
        // Obtain "dbmutex_k" (the state lock), read lastcommitted_tid_k,
        // begin at R_k (SRCA step I.1).
        let st = self.shared.state.lock();
        let cert = st.lastcommitted[k];
        let txn = self.shared.dbs[k].begin()?;
        drop(st);
        Ok((xact, txn, cert))
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
        let (_, txn, _) = &*self.current.insert(cur);
        let result = sirep_sql::execute_sql(&self.shared.dbs[self.replica], txn, sql);
        if let Err(e) = &result {
            if e.is_abort() || matches!(e, DbError::DuplicateKey(_)) {
                self.current = None;
            }
        }
        result
    }

    fn commit(&mut self) -> Result<(), DbError> {
        let Some((xact, txn, cert)) = self.current.take() else {
            return Ok(());
        };
        let ws = txn.writeset();
        if ws.is_empty() {
            return txn.commit().map(|_| ());
        }
        let (reply_tx, reply_rx) = sync_channel(1);
        {
            // "obtain wsmutex" — validation is atomic (step I.3.c-e).
            let mut st = self.shared.state.lock();
            if !st.wslist.passes(cert, &ws) {
                drop(st);
                txn.abort(AbortReason::ValidationFailure);
                return Err(DbError::Aborted(AbortReason::ValidationFailure));
            }
            let ws = Arc::new(ws);
            let tid = st.wslist.append(xact, Arc::clone(&ws));
            for (r, queue) in st.queues.iter_mut().enumerate() {
                let local = r == self.replica;
                queue.push_back(QEntry { tid, xact, ws: Arc::clone(&ws), local });
            }
            st.pending.insert(xact, PendingLocal { txn, responder: reply_tx });
            self.shared.cond.notify_all();
        }
        match reply_rx.recv() {
            Ok(result) => result,
            Err(_) => Err(DbError::Aborted(AbortReason::Shutdown)),
        }
    }

    fn rollback(&mut self) {
        if let Some((_, txn, _)) = self.current.take() {
            txn.abort(AbortReason::UserRequested);
        }
    }
}

/// Step II (Fig. 1): process replica `k`'s queue strictly in order. The
/// head stays queued until `finalize` pops it; this is the only thread
/// that takes entries off the queue.
fn applier_loop(sh: Arc<Shared>, k: usize) {
    loop {
        let (tid, xact, ws, local) = {
            let mut st = sh.state.lock();
            loop {
                if sh.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(e) = st.queues[k].front() {
                    break (e.tid, e.xact, Arc::clone(&e.ws), e.local);
                }
                sh.cond.wait_for(&mut st, WAIT_TICK);
            }
        };
        if local {
            // Bind the removal so the state guard drops before finalize()
            // re-locks it. Only shutdown takes a queued local's entry.
            let pending = sh.state.lock().pending.remove(&xact);
            match pending {
                Some(p) => finalize(&sh, k, tid, p.txn, Some(p.responder)),
                None => return,
            }
        } else {
            match apply_remote(&sh, k, &ws) {
                Some(txn) => finalize(&sh, k, tid, txn, None),
                None => return,
            }
        }
    }
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
            | Err(DbError::Aborted(AbortReason::SerializationFailure)) => {}
            Err(DbError::Aborted(AbortReason::Shutdown)) => return None,
            Err(e) => panic!("writeset application failed irrecoverably: {e}"), // sirep-lint: allow(no-unwrap-on-protocol-paths): non-transient apply failure = schema divergence across copies; crashing beats a silent fork (mirrors node.rs apply_batch)
        }
    }
}

/// Commit the head of replica `k`'s queue (tid `tid`) and answer its
/// client, if it is local there.
fn finalize(
    sh: &Arc<Shared>,
    k: usize,
    tid: GlobalTid,
    txn: TxnHandle,
    responder: Option<SyncSender<Result<(), DbError>>>,
) {
    sh.dbs[k].cost_model().commit();
    let result = {
        let mut st = sh.state.lock();
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
        st.lastcommitted[k] = st.lastcommitted[k].max(tid);
        st.queues[k].pop_front();
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
