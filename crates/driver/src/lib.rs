//! # sirep-driver
//!
//! The SI-Rep client driver — the analogue of the paper's JDBC driver
//! (§5.4): *"A client is connected to one middleware replica via a standard
//! JDBC interface [...] we provide automatic failover in case of site or
//! process crashes."*
//!
//! What it reproduces:
//!
//! - **Discovery**: instead of connecting to a fixed address, the driver
//!   asks the group for replicas willing to take load ("the middleware as a
//!   whole has a fixed IP multicast address"; replicas "respond with their
//!   IP address/port") and picks one by a pluggable [`Policy`] — the
//!   paper's §8 names load balancing as future work, so policies beyond
//!   round-robin are an extension.
//! - **Failover** on middleware crash, distinguishing the paper's three
//!   connection states:
//!   1. *no active transaction* → reconnect transparently;
//!   2. *transaction active, commit not yet submitted* → the transaction is
//!      lost; the driver surfaces a retryable error but the connection
//!      remains usable (reconnected);
//!   3. *commit submitted* → the driver reconnects and resolves the
//!      **in-doubt** transaction by its identifier: if the new replica
//!      received the writeset the recorded validation outcome is returned
//!      (possibly a fully transparent success); if it did not, uniform
//!      delivery guarantees the transaction committed nowhere.
//!
//! ```
//! use sirep_core::{Cluster, ClusterConfig, Connection};
//! use sirep_driver::{Driver, DriverConfig};
//! use std::sync::Arc;
//!
//! let cluster = Arc::new(Cluster::new(ClusterConfig::builder().replicas(3).build()));
//! cluster.execute_ddl("CREATE TABLE t (a INT, PRIMARY KEY (a))").unwrap();
//! let driver = Driver::new(Arc::clone(&cluster), DriverConfig::default());
//! let mut conn = driver.connect().unwrap();
//! conn.execute("INSERT INTO t VALUES (1)").unwrap();
//! conn.commit().unwrap();
//! ```

pub mod remote;
pub mod telemetry;

pub use remote::{NodeServer, RemoteConn, RemoteDriver, RemoteStatus};
pub use telemetry::{
    scrape_clock_offset, scrape_gauges, scrape_journal, scrape_prometheus, scrape_report,
    scrape_status, scrape_with_timeout, TelemetryReq, TelemetryResp, TelemetryServer,
    SCRAPE_TIMEOUT,
};

use sirep_common::{AbortReason, DbError};
use sirep_core::{Cluster, Connection, InDoubt, Outcome, ReplicaNode, Session, XactId};
use sirep_sql::ExecResult;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cap on the exponential in-doubt-inquiry backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Replica choice policy (load balancing — paper §8 future work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Rotate over alive replicas.
    #[default]
    RoundRobin,
    /// Pick the alive replica with the least queued replication work.
    LeastLoaded,
    /// Always prefer the lowest-numbered alive replica (deterministic;
    /// useful in tests).
    Primary,
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    pub policy: Policy,
    /// How many replicas to try before giving up on a failover.
    /// **`0` means unlimited** (keep trying while any replica is alive) —
    /// use [`DriverConfigBuilder::max_failover_attempts`] for an explicit
    /// bound.
    pub max_failover_attempts: usize,
    /// How many in-doubt inquiry rounds to attempt before declaring the
    /// service [`DbError::Unavailable`]. Each round asks one replica;
    /// between rounds the driver backs off exponentially and fails over if
    /// it can.
    pub inquiry_attempts: usize,
    /// First inter-inquiry backoff; doubles per round, capped at 100 ms.
    pub backoff_base: Duration,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            policy: Policy::default(),
            max_failover_attempts: 0,
            inquiry_attempts: 6,
            backoff_base: Duration::from_millis(1),
        }
    }
}

impl DriverConfig {
    /// Start building a configuration. Defaults match [`Default`]:
    /// round-robin policy, unlimited failover.
    pub fn builder() -> DriverConfigBuilder {
        DriverConfigBuilder { cfg: DriverConfig::default() }
    }
}

/// Fluent construction for [`DriverConfig`]:
///
/// ```
/// use sirep_driver::{DriverConfig, Policy};
///
/// let cfg = DriverConfig::builder()
///     .policy(Policy::LeastLoaded)
///     .max_failover_attempts(3)
///     .build();
/// assert_eq!(cfg.max_failover_attempts, 3);
/// ```
#[derive(Debug, Clone)]
pub struct DriverConfigBuilder {
    cfg: DriverConfig,
}

impl DriverConfigBuilder {
    pub fn policy(mut self, policy: Policy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Bound the number of replicas tried per failover. Rejects `0` (the
    /// legacy unlimited sentinel) — say [`Self::unlimited_failover`] if
    /// that is what you mean.
    pub fn max_failover_attempts(mut self, n: usize) -> Self {
        assert!(n > 0, "0 is the legacy 'unlimited' sentinel; call unlimited_failover()");
        self.cfg.max_failover_attempts = n;
        self
    }

    /// Keep failing over while any replica is alive (the default).
    pub fn unlimited_failover(mut self) -> Self {
        self.cfg.max_failover_attempts = 0;
        self
    }

    /// Bound the in-doubt inquiry rounds (must be positive; resolution
    /// must ask at least once).
    pub fn inquiry_attempts(mut self, n: usize) -> Self {
        assert!(n > 0, "in-doubt resolution needs at least one inquiry");
        self.cfg.inquiry_attempts = n;
        self
    }

    /// First inter-inquiry backoff (doubles per round, capped at 100 ms).
    pub fn backoff_base(mut self, d: Duration) -> Self {
        self.cfg.backoff_base = d;
        self
    }

    pub fn build(self) -> DriverConfig {
        self.cfg
    }
}

/// The driver: a connection factory bound to one cluster (the "multicast
/// address" of the middleware group).
pub struct Driver {
    cluster: Arc<Cluster>,
    config: DriverConfig,
    rr: AtomicUsize,
}

impl Driver {
    pub fn new(cluster: Arc<Cluster>, config: DriverConfig) -> Driver {
        Driver { cluster, config, rr: AtomicUsize::new(0) }
    }

    /// Discovery + replica choice.
    fn discover(&self, exclude: Option<&Arc<ReplicaNode>>) -> Result<Arc<ReplicaNode>, DbError> {
        let mut alive = self.cluster.alive();
        if let Some(ex) = exclude {
            alive.retain(|n| n.id() != ex.id());
        }
        if alive.is_empty() {
            return Err(DbError::ConnectionLost { in_doubt: false });
        }
        // Failover discovery must never panic the client thread: even the
        // "cannot happen" empty cases route through DbError.
        let pick = match self.config.policy {
            Policy::RoundRobin => {
                let i = self.rr.fetch_add(1, Ordering::Relaxed) % alive.len();
                alive.get(i).map(Arc::clone)
            }
            Policy::LeastLoaded => alive.iter().min_by_key(|n| n.status().load()).map(Arc::clone),
            Policy::Primary => alive.iter().min_by_key(|n| n.id()).map(Arc::clone),
        };
        pick.ok_or(DbError::ConnectionLost { in_doubt: false })
    }

    /// Open a failover-capable connection.
    pub fn connect(&self) -> Result<DriverConnection<'_>, DbError> {
        let node = self.discover(None)?;
        Ok(DriverConnection { driver: self, session: Session::new(node), failovers: 0 })
    }
}

/// A client connection with transparent failover.
pub struct DriverConnection<'d> {
    driver: &'d Driver,
    session: Session,
    /// Total failovers performed on this connection (observable for tests
    /// and metrics).
    failovers: usize,
}

impl DriverConnection<'_> {
    pub fn failovers(&self) -> usize {
        self.failovers
    }

    /// The replica this connection is currently pinned to.
    pub fn replica(&self) -> sirep_common::ReplicaId {
        self.session.node().id()
    }

    /// JDBC autocommit mode, preserved across failovers.
    pub fn set_autocommit(&mut self, on: bool) -> Result<(), DbError> {
        self.session.set_autocommit(on)
    }

    pub fn autocommit(&self) -> bool {
        self.session.autocommit()
    }

    fn is_crash(e: &DbError) -> bool {
        matches!(
            e,
            DbError::Aborted(AbortReason::ReplicaCrashed)
                | DbError::Aborted(AbortReason::Shutdown)
                | DbError::ConnectionLost { .. }
        )
    }

    /// Reconnect to another replica. Returns an error only when no replica
    /// is left.
    fn reconnect(&mut self) -> Result<(), DbError> {
        let max = if self.driver.config.max_failover_attempts == 0 {
            usize::MAX
        } else {
            self.driver.config.max_failover_attempts
        };
        if self.failovers >= max {
            return Err(DbError::ConnectionLost { in_doubt: false });
        }
        let current = Arc::clone(self.session.node());
        let next = self.driver.discover(Some(&current))?;
        // The failover is visible in the *new* replica's journal: it is the
        // one that takes over the client.
        next.journal.record(sirep_common::EventKind::ClientFailover { from: current.id() });
        // `with_autocommit` preserves the mode without the fallible
        // `set_autocommit` round-trip (a fresh session has nothing to
        // commit, so that call could never legitimately fail anyway).
        self.session = Session::with_autocommit(next, self.session.autocommit());
        self.failovers += 1;
        Ok(())
    }
}

impl Connection for DriverConnection<'_> {
    fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError> {
        let had_txn = self.session.in_transaction();
        let prev_xact = self.session.last_xact_id();
        match self.session.execute(sql) {
            Ok(r) => Ok(r),
            Err(e) if Self::is_crash(&e) => {
                // In autocommit mode the statement's implicit commit runs
                // *inside* `execute`, so this crash may sit anywhere on the
                // §5.4 case-1..3 spectrum. A fresh `last_xact_id` tells us a
                // transaction was begun for this statement — if so its
                // writeset may already have been multicast, and blindly
                // re-executing would apply the statement twice.
                let stmt_xact = if !had_txn && self.session.autocommit() {
                    self.session.last_xact_id().filter(|x| Some(*x) != prev_xact)
                } else {
                    None
                };
                if let Err(re) = self.reconnect() {
                    // No replica reachable. With an in-doubt autocommit
                    // statement outstanding this is *not* a clean
                    // connection loss — the commit may have happened.
                    return Err(if stmt_xact.is_some() { DbError::Unavailable } else { re });
                }
                if had_txn {
                    // §5.4 case 2: the transaction was local to the crashed
                    // replica and is lost; the client may retry on the (now
                    // reconnected) connection.
                    Err(DbError::Aborted(AbortReason::ReplicaCrashed))
                } else if let Some(xact) = stmt_xact {
                    // Case 3 in autocommit clothing: resolve by id first.
                    match self.resolve_in_doubt(xact) {
                        // It committed. The row count died with the origin,
                        // so report zero rather than re-running (which
                        // would double-apply).
                        Ok(()) => Ok(ExecResult::Affected(0)),
                        // It committed nowhere — replaying is safe.
                        Err(DbError::Aborted(_)) => self.session.execute(sql),
                        Err(e) => Err(e),
                    }
                } else {
                    // Case 1: nothing was in flight — fully transparent.
                    self.session.execute(sql)
                }
            }
            Err(e) => Err(e),
        }
    }

    fn commit(&mut self) -> Result<(), DbError> {
        // Capture the in-doubt identifier before submitting the commit.
        let xact = self.session.xact_id();
        match self.session.commit() {
            Ok(()) => Ok(()),
            Err(e) if Self::is_crash(&e) => {
                // §5.4 case 3: the commit was submitted but the replica
                // died. Fail over and resolve by transaction id.
                if let Err(re) = self.reconnect() {
                    // Nobody left to ask whether the commit landed.
                    return Err(if xact.is_some() { DbError::Unavailable } else { re });
                }
                let Some(xact) = xact else {
                    return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
                };
                self.resolve_in_doubt(xact)
            }
            Err(e) => Err(e),
        }
    }

    fn rollback(&mut self) {
        self.session.rollback();
    }

    fn xact_id(&self) -> Option<XactId> {
        self.session.xact_id()
    }
}

impl DriverConnection<'_> {
    /// Resolve an in-doubt transaction by id, with bounded retry.
    ///
    /// Each round asks the currently pinned replica; if that replica cannot
    /// answer within its bound ([`InDoubt::Unknown`]) or also crashes
    /// mid-inquiry, the driver backs off exponentially and fails over. Once `inquiry_attempts` rounds are exhausted (every replica
    /// down, or crashing faster than we can ask), the outcome is
    /// unknowable from here and the *terminal* [`DbError::Unavailable`] is
    /// surfaced — the transaction may or may not have committed. The old
    /// behavior was an unbounded loop that hung forever with the whole
    /// cluster down.
    fn resolve_in_doubt(&mut self, xact: XactId) -> Result<(), DbError> {
        let attempts = self.driver.config.inquiry_attempts.max(1);
        let mut backoff = self.driver.config.backoff_base;
        for round in 0..attempts {
            match self.session.node().inquire(xact) {
                Ok(InDoubt::Known(Outcome::Committed)) => return Ok(()),
                Ok(InDoubt::Known(Outcome::Aborted)) => {
                    return Err(DbError::Aborted(AbortReason::ValidationFailure));
                }
                Ok(InDoubt::NeverReceived) => {
                    // Uniform delivery: the writeset reached nobody — the
                    // transaction is simply lost, safe to retry.
                    return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
                }
                Ok(InDoubt::Unknown) | Err(_) => {
                    // The replica we asked could not say within its bound,
                    // or crashed too. Back off, then fail over if anyone is
                    // reachable; if not, retry the discovery next round —
                    // a recovery may be in flight.
                    if round + 1 == attempts {
                        break;
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                    let _ = self.reconnect();
                }
            }
        }
        Err(DbError::Unavailable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirep_core::ClusterConfig;

    fn cluster(n: usize) -> Arc<Cluster> {
        let c = Arc::new(Cluster::new(ClusterConfig::builder().replicas(n).build()));
        c.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
        c
    }

    #[test]
    fn basic_connect_and_commit() {
        let c = cluster(3);
        let d = Driver::new(Arc::clone(&c), DriverConfig::default());
        let mut conn = d.connect().unwrap();
        conn.execute("INSERT INTO kv VALUES (1, 1)").unwrap();
        conn.commit().unwrap();
        assert_eq!(conn.failovers(), 0);
    }

    #[test]
    fn round_robin_spreads_connections() {
        let c = cluster(3);
        let d = Driver::new(Arc::clone(&c), DriverConfig::default());
        let replicas: std::collections::HashSet<_> =
            (0..3).map(|_| d.connect().unwrap().replica()).collect();
        assert_eq!(replicas.len(), 3);
    }

    #[test]
    fn case1_transparent_failover_without_txn() {
        let c = cluster(3);
        let d =
            Driver::new(Arc::clone(&c), DriverConfig::builder().policy(Policy::Primary).build());
        let mut conn = d.connect().unwrap();
        conn.execute("INSERT INTO kv VALUES (1, 1)").unwrap();
        conn.commit().unwrap();
        assert!(c.quiesce(std::time::Duration::from_secs(5)));
        let victim = conn.replica();
        c.crash(victim.index());
        // No transaction was active: the next statement succeeds unnoticed.
        let r = conn.execute("SELECT v FROM kv WHERE k = 1").unwrap();
        assert_eq!(r.rows()[0][0], sirep_storage::Value::Int(1));
        conn.commit().unwrap();
        assert_eq!(conn.failovers(), 1);
        assert_ne!(conn.replica(), victim);
    }

    #[test]
    fn case2_active_txn_is_lost_but_connection_survives() {
        let c = cluster(3);
        let d =
            Driver::new(Arc::clone(&c), DriverConfig::builder().policy(Policy::Primary).build());
        let mut conn = d.connect().unwrap();
        conn.execute("INSERT INTO kv VALUES (5, 5)").unwrap(); // txn active
        c.crash(conn.replica().index());
        let err = conn.execute("INSERT INTO kv VALUES (6, 6)").unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::ReplicaCrashed));
        // The connection failed over; a retry of the whole txn succeeds.
        conn.execute("INSERT INTO kv VALUES (5, 5)").unwrap();
        conn.execute("INSERT INTO kv VALUES (6, 6)").unwrap();
        conn.commit().unwrap();
        assert!(c.quiesce(std::time::Duration::from_secs(5)));
    }

    #[test]
    fn least_loaded_policy_picks_alive() {
        let c = cluster(2);
        let d = Driver::new(
            Arc::clone(&c),
            DriverConfig::builder().policy(Policy::LeastLoaded).build(),
        );
        c.crash(0);
        let conn = d.connect().unwrap();
        assert_eq!(conn.replica().index(), 1);
    }

    #[test]
    fn autocommit_statement_not_double_applied_on_mid_commit_crash() {
        use sirep_common::CrashPoint;
        let c = cluster(3);
        {
            let mut s = c.session(0);
            s.execute("INSERT INTO kv VALUES (1, 1)").unwrap();
            s.commit().unwrap();
        }
        assert!(c.quiesce(std::time::Duration::from_secs(5)));
        let d =
            Driver::new(Arc::clone(&c), DriverConfig::builder().policy(Policy::Primary).build());
        let mut conn = d.connect().unwrap();
        conn.set_autocommit(true).unwrap();
        assert_eq!(conn.replica().index(), 0);
        // The replica dies after the writeset is multicast but before the
        // local commit/ack: the implicit autocommit commit is in doubt,
        // although the survivors will commit it.
        c.arm_crash_point(CrashPoint::AfterMulticastBeforeLocalCommit, 0);
        let r = conn.execute("UPDATE kv SET v = v + 1 WHERE k = 1").unwrap();
        // The origin died with the row count; zero is the documented stand-in.
        assert_eq!(r.affected(), 0);
        assert!(conn.autocommit(), "autocommit mode must survive the failover");
        assert!(conn.failovers() >= 1);
        assert!(c.quiesce(std::time::Duration::from_secs(5)));
        // Exactly one increment: the pre-fix driver re-executed the
        // statement on the new replica and produced v = 3.
        let mut check = c.session(1);
        let r = check.execute("SELECT v FROM kv WHERE k = 1").unwrap();
        assert_eq!(r.rows()[0][0], sirep_storage::Value::Int(2));
        assert!(c.audit_is_clean());
    }

    #[test]
    fn in_doubt_with_all_replicas_down_is_unavailable_not_a_hang() {
        use sirep_common::CrashPoint;
        let c = cluster(2);
        let d = Driver::new(
            Arc::clone(&c),
            DriverConfig::builder()
                .policy(Policy::Primary)
                .inquiry_attempts(4)
                .backoff_base(std::time::Duration::from_millis(1))
                .build(),
        );
        let mut conn = d.connect().unwrap();
        conn.execute("INSERT INTO kv VALUES (9, 9)").unwrap();
        // Kill the only other replica, then crash the origin mid-commit:
        // the outcome is unknowable and the pre-fix driver spun forever.
        c.crash(1);
        c.arm_crash_point(CrashPoint::AfterMulticastBeforeLocalCommit, 0);
        let err = conn.commit().unwrap_err();
        assert_eq!(err, DbError::Unavailable);
    }

    #[test]
    fn all_replicas_down_is_connection_lost() {
        let c = cluster(1);
        let d = Driver::new(Arc::clone(&c), DriverConfig::default());
        c.crash(0);
        let Err(err) = d.connect() else { panic!("connect must fail with every replica down") };
        assert!(matches!(err, DbError::ConnectionLost { .. }));
    }
}
