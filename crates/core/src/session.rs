//! Client sessions and the system-agnostic connection traits.
//!
//! A [`Session`] models one JDBC connection with `autocommit=off`: the
//! first statement after a commit/rollback implicitly begins a transaction
//! (there is no explicit BEGIN in JDBC — §5.3 of the paper), `commit()`
//! drives the replication protocol, and abort errors doom the transaction
//! until the next statement starts a fresh one.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::msg::XactId;
use crate::node::{ActiveTxn, ReplicaNode};
use sirep_common::{AbortReason, DbError, Metrics, StageSnapshot};
use sirep_sql::{ExecResult, Statement};
use std::sync::Arc;

/// A workload transaction template. Statement-oriented systems replay the
/// statements; the table-level-locking baseline of [20] additionally needs
/// the pre-declared table list (its key usability restriction, which
/// SI-Rep exists to remove).
#[derive(Debug, Clone)]
pub struct TxnTemplate {
    pub statements: Vec<String>,
    /// Tables the transaction will touch — required by the [20] baseline.
    pub tables: Vec<String>,
    /// Purely read-only (lets primary-copy-ish systems route it).
    pub readonly: bool,
}

/// Anything a client can connect to: an SRCA-Rep replica, the centralized
/// SRCA middleware, the [20] baseline, or a plain single database.
pub trait System: Send + Sync {
    fn name(&self) -> &'static str;
    /// Open a client connection. Statement-oriented systems hand out
    /// sessions; the [20] baseline hands out request submitters.
    fn connect(&self) -> Result<Box<dyn Connection>, DbError>;
    /// Aggregated protocol metrics.
    fn metrics(&self) -> Metrics;
    /// Aggregated per-stage latency histograms. Systems without lifecycle
    /// tracing (the centralized baseline, the [20] protocol) report empty.
    fn stages(&self) -> StageSnapshot {
        StageSnapshot::default()
    }
}

/// One client connection.
pub trait Connection: Send {
    /// Execute one SQL statement inside the current transaction (starting
    /// one if needed).
    fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError>;
    /// Commit the current transaction.
    fn commit(&mut self) -> Result<(), DbError>;
    /// Roll back the current transaction (no-op without one).
    fn rollback(&mut self);
    /// Run a whole transaction template: default implementation replays the
    /// statements and commits, which is what the statement-transparent
    /// systems do. The [20] baseline overrides this (it *needs* the
    /// template).
    fn run_template(&mut self, tmpl: &TxnTemplate) -> Result<(), DbError> {
        for sql in &tmpl.statements {
            self.execute(sql)?;
        }
        self.commit()
    }
    /// The current transaction's client-visible id, if one is active
    /// (used by the failover driver for in-doubt resolution).
    fn xact_id(&self) -> Option<XactId> {
        None
    }
}

/// A session pinned to one SRCA-Rep replica.
pub struct Session {
    node: Arc<ReplicaNode>,
    current: Option<ActiveTxn>,
    autocommit: bool,
    /// Declared read-only (JDBC's `Connection.setReadOnly`): writes are
    /// rejected at parse time and every commit takes the certification-free
    /// local fast path — no multicast, no sequencer round-trip.
    readonly: bool,
    /// Client-visible id of the most recently begun transaction, surviving
    /// its commit/abort. The failover driver needs it to resolve an
    /// autocommit statement whose implicit commit crashed mid-flight —
    /// by then `current` is already gone.
    last_xact: Option<XactId>,
}

impl Session {
    pub fn new(node: Arc<ReplicaNode>) -> Session {
        Session { node, current: None, autocommit: false, readonly: false, last_xact: None }
    }

    /// A fresh session with the autocommit mode preset. Unlike
    /// `set_autocommit` on an existing session this can never fail (there
    /// is no open transaction to commit), so failover paths that rebuild a
    /// session have no panic or error case to handle.
    pub fn with_autocommit(node: Arc<ReplicaNode>, on: bool) -> Session {
        Session { node, current: None, autocommit: on, readonly: false, last_xact: None }
    }

    pub fn node(&self) -> &Arc<ReplicaNode> {
        &self.node
    }

    /// JDBC's autocommit mode (the paper's footnote 4: "Otherwise each
    /// statement should be executed in its own transaction"). Off by
    /// default, as in all the experiments. Turning it on commits any open
    /// transaction first, like `Connection.setAutoCommit(true)` does.
    pub fn set_autocommit(&mut self, on: bool) -> Result<(), DbError> {
        if on && self.current.is_some() {
            self.commit()?;
        }
        self.autocommit = on;
        Ok(())
    }

    pub fn autocommit(&self) -> bool {
        self.autocommit
    }

    /// Declare this session read-only (or writable again), mirroring
    /// JDBC's `Connection.setReadOnly`: it cannot change mid-transaction.
    /// While declared, any write statement fails before the engine sees it,
    /// which guarantees the commit's writeset is empty and therefore takes
    /// the certification-free local snapshot path — no multicast, no
    /// certification, no sequencer round-trip.
    pub fn set_readonly(&mut self, on: bool) -> Result<(), DbError> {
        if self.current.is_some() {
            return Err(DbError::Unsupported(
                "cannot change read-only mode inside a transaction".into(),
            ));
        }
        self.readonly = on;
        Ok(())
    }

    pub fn is_readonly(&self) -> bool {
        self.readonly
    }

    /// Whether a transaction is currently open.
    pub fn in_transaction(&self) -> bool {
        self.current.is_some()
    }

    fn ensure_txn(&mut self) -> Result<&ActiveTxn, DbError> {
        // take/insert instead of an is_none + expect round-trip, so there
        // is no panic path here at all.
        let active = match self.current.take() {
            Some(a) => a,
            None => {
                let a = self.node.begin_local()?;
                self.last_xact = Some(a.xact);
                a
            }
        };
        Ok(self.current.insert(active))
    }

    /// Id of the most recently begun transaction on this session, even
    /// after it committed or aborted (in-doubt resolution needs it).
    pub fn last_xact_id(&self) -> Option<XactId> {
        self.last_xact
    }
}

impl Connection for Session {
    fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError> {
        let stmt = sirep_sql::parse(sql)?;
        if matches!(stmt, Statement::CreateTable { .. }) {
            return Err(DbError::Unsupported(
                "DDL must run through Cluster::execute_ddl (identical schemas at all replicas)"
                    .into(),
            ));
        }
        if self.readonly && stmt.is_write() {
            // Rejected before the engine sees it, so the open transaction
            // stays clean (and its writeset provably empty).
            return Err(DbError::Unsupported(
                "session is declared read-only (set_readonly)".into(),
            ));
        }
        let db = self.node.database().clone();
        let active = self.ensure_txn()?;
        match sirep_sql::execute(&db, &active.txn, &stmt) {
            Ok(r) => {
                if self.autocommit {
                    self.commit()?;
                }
                Ok(r)
            }
            Err(e) => {
                if e.is_abort() || matches!(e, DbError::DuplicateKey(_)) {
                    // The engine doomed the transaction (PostgreSQL
                    // semantics); drop our handle.
                    if let DbError::Aborted(reason) = &e {
                        match reason {
                            AbortReason::SerializationFailure => {
                                Metrics::inc(&self.node.metrics.aborts_serialization);
                            }
                            AbortReason::Deadlock => {
                                Metrics::inc(&self.node.metrics.aborts_deadlock);
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
        match self.current.take() {
            None => Ok(()), // JDBC: commit with no work is a no-op
            Some(active) => self.node.commit_local(active),
        }
    }

    fn rollback(&mut self) {
        if let Some(active) = self.current.take() {
            active.txn.abort(AbortReason::UserRequested);
            Metrics::inc(&self.node.metrics.aborts_user);
        }
    }

    fn xact_id(&self) -> Option<XactId> {
        self.current.as_ref().map(|a| a.xact)
    }

    /// Templates that pre-declare themselves read-only run under the
    /// declared mode for their duration: writes fail fast and the commit is
    /// certification-free. The previous mode is restored afterwards.
    fn run_template(&mut self, tmpl: &TxnTemplate) -> Result<(), DbError> {
        if !tmpl.readonly || self.readonly {
            for sql in &tmpl.statements {
                self.execute(sql)?;
            }
            return self.commit();
        }
        self.set_readonly(true)?;
        let result = (|| {
            for sql in &tmpl.statements {
                self.execute(sql)?;
            }
            self.commit()
        })();
        self.readonly = false;
        result
    }
}

impl System for crate::cluster::Cluster {
    fn name(&self) -> &'static str {
        match self.config().mode {
            crate::node::ReplicationMode::SrcaRep => "SRCA-Rep",
            crate::node::ReplicationMode::SrcaOpt => "SRCA-Opt",
        }
    }

    fn connect(&self) -> Result<Box<dyn Connection>, DbError> {
        // Round-robin over alive replicas (simple load balancing; the
        // driver crate adds discovery + failover on top).
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let alive = self.alive();
        let pick = NEXT.fetch_add(1, Ordering::Relaxed).checked_rem(alive.len());
        let node = pick.and_then(|i| alive.get(i));
        let node = node.ok_or(DbError::Aborted(AbortReason::ReplicaCrashed))?;
        Ok(Box::new(Session::new(Arc::clone(node))))
    }

    fn metrics(&self) -> Metrics {
        Cluster::metrics(self).metrics
    }

    fn stages(&self) -> StageSnapshot {
        Cluster::metrics(self).stages
    }
}

use crate::cluster::Cluster;
