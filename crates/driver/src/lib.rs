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
//! - **Failover** on middleware crash: the [`failover`] module holds the
//!   paper's three connection states as one machine, [`Failover`], that runs
//!   over in-process sessions ([`DriverConnection`]) and over TCP
//!   ([`RemoteConn`]) alike.
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

pub mod failover;
pub mod remote;
pub mod telemetry;

pub use failover::{Connector, Failover, Link, INQUIRY_ATTEMPTS};
pub use remote::{NodeServer, RemoteConn, RemoteDriver, RemoteStatus};
pub use telemetry::{
    scrape_clock_offset, scrape_gauges, scrape_journal, scrape_prometheus, scrape_report,
    scrape_status, scrape_with_timeout, TelemetryReq, TelemetryResp, TelemetryServer,
    SCRAPE_TIMEOUT,
};

use sirep_common::DbError;
use sirep_core::{Cluster, Connection, InDoubt, ReplicaNode, Session, XactId};
use sirep_sql::ExecResult;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Replica choice policy (load balancing — paper §8 future work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Rotate over alive replicas.
    #[default]
    RoundRobin,
    /// Always prefer the lowest-numbered alive replica (deterministic;
    /// useful in tests).
    Primary,
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    pub policy: Policy,
    /// How many in-doubt inquiry rounds to attempt before declaring the
    /// service [`DbError::Unavailable`]. Each round asks one replica;
    /// between rounds the driver backs off exponentially and fails over if
    /// it can.
    pub inquiry_attempts: usize,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig { policy: Policy::default(), inquiry_attempts: INQUIRY_ATTEMPTS }
    }
}

impl DriverConfig {
    /// Start building a configuration. Defaults match [`Default`].
    pub fn builder() -> DriverConfigBuilder {
        DriverConfigBuilder { cfg: DriverConfig::default() }
    }
}

/// Fluent construction for [`DriverConfig`]:
///
/// ```
/// use sirep_driver::{DriverConfig, Policy};
///
/// let cfg = DriverConfig::builder().policy(Policy::Primary).inquiry_attempts(3).build();
/// assert_eq!(cfg.inquiry_attempts, 3);
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

    /// Bound the in-doubt inquiry rounds (must be positive; resolution
    /// must ask at least once).
    pub fn inquiry_attempts(mut self, n: usize) -> Self {
        assert!(n > 0, "in-doubt resolution needs at least one inquiry");
        self.cfg.inquiry_attempts = n;
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
    fn discover(&self, exclude: Option<&Arc<ReplicaNode>>) -> Option<Arc<ReplicaNode>> {
        let mut alive = self.cluster.alive();
        if let Some(ex) = exclude {
            alive.retain(|n| n.id() != ex.id());
        }
        match self.config.policy {
            Policy::RoundRobin => {
                let i = self.rr.fetch_add(1, Ordering::Relaxed) % alive.len().max(1);
                alive.get(i).map(Arc::clone)
            }
            Policy::Primary => alive.iter().min_by_key(|n| n.id()).map(Arc::clone),
        }
    }

    /// Open a failover-capable connection.
    pub fn connect(&self) -> Result<DriverConnection<'_>, DbError> {
        Failover::connect(self, self.config.inquiry_attempts)
    }
}

impl Connector for Driver {
    type Link = Session;

    fn connect(&self, avoid: Option<&Session>, autocommit: bool) -> Option<Session> {
        let next = self.discover(avoid.map(Session::node))?;
        if let Some(from) = avoid {
            // The failover is visible in the *new* replica's journal: it is
            // the one that takes over the client.
            next.journal.record(sirep_common::EventKind::ClientFailover { from: from.node().id() });
        }
        Some(Session::with_autocommit(next, autocommit))
    }
}

impl Link for Session {
    fn exec(&mut self, sql: &str) -> (Result<ExecResult, DbError>, Option<XactId>) {
        let result = self.execute(sql);
        (result, self.last_xact_id())
    }

    fn commit(&mut self) -> Result<(), DbError> {
        Connection::commit(self)
    }

    fn rollback(&mut self) -> Result<(), DbError> {
        Connection::rollback(self);
        Ok(())
    }

    fn set_autocommit(&mut self, on: bool) -> Result<(), DbError> {
        Session::set_autocommit(self, on)
    }

    fn inquire(&mut self, xact: XactId) -> Result<InDoubt, DbError> {
        self.node().inquire(xact)
    }
}

/// A client connection with transparent failover: the §5.4 machine
/// ([`failover`]) over in-process [`Session`]s.
pub type DriverConnection<'d> = Failover<'d, Driver>;

impl DriverConnection<'_> {
    /// The replica this connection is currently pinned to.
    pub fn replica(&self) -> sirep_common::ReplicaId {
        self.link.node().id()
    }
}

impl Connection for DriverConnection<'_> {
    fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError> {
        Failover::execute(self, sql)
    }

    fn commit(&mut self) -> Result<(), DbError> {
        Failover::commit(self)
    }

    fn rollback(&mut self) {
        // A session's rollback cannot fail, so neither can this one.
        let _ = Failover::rollback(self);
    }

    fn xact_id(&self) -> Option<XactId> {
        Failover::xact_id(self)
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
    fn discovery_skips_crashed_replicas() {
        let c = cluster(2);
        let d = Driver::new(Arc::clone(&c), DriverConfig::default());
        c.crash(0);
        let conn = d.connect().unwrap();
        assert_eq!(conn.replica().index(), 1);
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
