//! Remote client/server protocol: the driver over a real socket.
//!
//! The in-process [`Driver`](crate::Driver) hands each connection an
//! `Arc<ReplicaNode>`; in a multi-process deployment the middleware runs in
//! its own process and clients reach it over TCP. This module carries the
//! *same* JDBC-style surface and the same §5.4 failover semantics across a
//! length-prefixed [`Wire`] frame protocol:
//!
//! - [`NodeServer`] — per-middleware-process listener; one thread and one
//!   [`Session`] per client connection, so statement/commit ordering per
//!   client is exactly the in-process driver's.
//! - [`RemoteDriver`]/[`RemoteConn`] — client side; mirrors
//!   [`DriverConnection`](crate::DriverConnection): transparent failover to
//!   another node address on connection loss, and in-doubt commit
//!   resolution via [`ClientReq::Inquire`] against a surviving node.
//!
//! One §5.4 case is weaker than in-process: an **autocommit** statement
//! whose response frame is lost leaves the client without the transaction
//! id (the id rides on the response), so there is nobody it can ask whether
//! the implicit commit happened. The in-process driver peeks at the shared
//! session to recover the id; a remote client cannot. That case surfaces as
//! [`DbError::ConnectionLost`]` { in_doubt: true }` — exactly the "result
//! unknown, do not blindly retry non-idempotent work" exception the paper
//! prescribes when failover cannot mask a crash.

use sirep_common::wire::{read_frame, write_frame, Wire, WireError, WireReader};
use sirep_common::{AbortReason, DbError};
use sirep_core::{Cluster, Connection, InDoubt, Outcome, Session, XactId};
use sirep_sql::ExecResult;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Upper bound on one reconnect-backoff step (matches the in-process
/// driver's `BACKOFF_CAP`).
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// One request frame, client → node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientReq {
    /// Execute one SQL statement in this client's session.
    Exec {
        sql: String,
    },
    Commit,
    Rollback,
    SetAutocommit(bool),
    /// §5.4 in-doubt inquiry: what happened to `xact`?
    Inquire {
        xact: XactId,
    },
    /// Observability probe (used by workloads to await convergence).
    Status,
    Ping,
}

impl Wire for ClientReq {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientReq::Exec { sql } => {
                out.push(0);
                sql.encode(out);
            }
            ClientReq::Commit => out.push(1),
            ClientReq::Rollback => out.push(2),
            ClientReq::SetAutocommit(on) => {
                out.push(3);
                on.encode(out);
            }
            ClientReq::Inquire { xact } => {
                out.push(4);
                xact.encode(out);
            }
            ClientReq::Status => out.push(5),
            ClientReq::Ping => out.push(6),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => ClientReq::Exec { sql: String::decode(r)? },
            1 => ClientReq::Commit,
            2 => ClientReq::Rollback,
            3 => ClientReq::SetAutocommit(bool::decode(r)?),
            4 => ClientReq::Inquire { xact: XactId::decode(r)? },
            5 => ClientReq::Status,
            6 => ClientReq::Ping,
            _ => return Err(WireError::Corrupt("client req tag")),
        })
    }
}

/// Node-health snapshot returned by [`ClientReq::Status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteStatus {
    pub replica: u64,
    pub alive: bool,
    /// `lastvalidated_tid` — certification progress at this node.
    pub last_validated: u64,
    /// Validated writesets not yet committed here.
    pub queued: u64,
    /// Local transactions awaiting a validation outcome.
    pub pending_local: u64,
    /// Committed transactions observed by this node.
    pub commits: u64,
    /// 1-copy-SI auditor violations recorded in this process.
    pub audit_violations: u64,
}

impl Wire for RemoteStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        self.replica.encode(out);
        self.alive.encode(out);
        self.last_validated.encode(out);
        self.queued.encode(out);
        self.pending_local.encode(out);
        self.commits.encode(out);
        self.audit_violations.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RemoteStatus {
            replica: u64::decode(r)?,
            alive: bool::decode(r)?,
            last_validated: u64::decode(r)?,
            queued: u64::decode(r)?,
            pending_local: u64::decode(r)?,
            commits: u64::decode(r)?,
            audit_violations: u64::decode(r)?,
        })
    }
}

/// One response frame, node → client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientResp {
    /// Statement result. `xact` is the session's most recent transaction id
    /// — the client records it so a later crashed commit can be resolved by
    /// inquiry on another node.
    Exec {
        result: ExecResult,
        xact: Option<XactId>,
    },
    /// Commit / rollback / set-autocommit acknowledged.
    Done,
    Resolved(InDoubt),
    Status(RemoteStatus),
    Pong,
    Err(DbError),
}

impl Wire for ClientResp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientResp::Exec { result, xact } => {
                out.push(0);
                result.encode(out);
                xact.encode(out);
            }
            ClientResp::Done => out.push(1),
            ClientResp::Resolved(d) => {
                out.push(2);
                d.encode(out);
            }
            ClientResp::Status(s) => {
                out.push(3);
                s.encode(out);
            }
            ClientResp::Pong => out.push(4),
            ClientResp::Err(e) => {
                out.push(5);
                e.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => ClientResp::Exec { result: ExecResult::decode(r)?, xact: Option::decode(r)? },
            1 => ClientResp::Done,
            2 => ClientResp::Resolved(InDoubt::decode(r)?),
            3 => ClientResp::Status(RemoteStatus::decode(r)?),
            4 => ClientResp::Pong,
            5 => ClientResp::Err(DbError::decode(r)?),
            _ => return Err(WireError::Corrupt("client resp tag")),
        })
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// TCP front-end for one middleware replica: accepts client connections and
/// serves each from its own thread + [`Session`], exactly like a pool of
/// in-process driver connections.
pub struct NodeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl NodeServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"`) and serve sessions against node
    /// `k` of `cluster`.
    pub fn spawn(bind: &str, cluster: Arc<Cluster>, k: usize) -> io::Result<NodeServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let accept = thread::Builder::new().name(format!("node-server-{k}")).spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                // Client requests are small request/response frames; Nagle
                // would add a full RTT of buffering to every commit ack.
                let _ = stream.set_nodelay(true);
                let cluster = cluster.clone();
                let _ = thread::Builder::new()
                    .name("node-server-conn".into())
                    .spawn(move || serve_conn(stream, &cluster, k));
            }
        })?;
        Ok(NodeServer { addr, stop, accept: Some(accept) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting new connections. Existing client connections drain on
    /// their own when the peer hangs up or the node dies.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Nudge the accept loop out of `incoming()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_conn(stream: TcpStream, cluster: &Arc<Cluster>, k: usize) {
    let mut session = Session::new(cluster.node(k));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        // Any read error — disconnect, malformed frame — ends the
        // connection; an open transaction dies with its session, which is
        // precisely the §5.4 crash semantics the client failover expects.
        let Ok(req) = read_frame::<_, ClientReq>(&mut reader) else { return };
        let resp = handle_req(&mut session, cluster, req);
        if write_frame(&mut writer, &resp).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

fn handle_req(session: &mut Session, cluster: &Arc<Cluster>, req: ClientReq) -> ClientResp {
    match req {
        ClientReq::Exec { sql } => match session.execute(&sql) {
            Ok(result) => ClientResp::Exec { result, xact: session.last_xact_id() },
            Err(e) => ClientResp::Err(e),
        },
        ClientReq::Commit => match session.commit() {
            Ok(()) => ClientResp::Done,
            Err(e) => ClientResp::Err(e),
        },
        ClientReq::Rollback => {
            session.rollback();
            ClientResp::Done
        }
        ClientReq::SetAutocommit(on) => match session.set_autocommit(on) {
            Ok(()) => ClientResp::Done,
            Err(e) => ClientResp::Err(e),
        },
        ClientReq::Inquire { xact } => match session.node().inquire(xact) {
            Ok(d) => ClientResp::Resolved(d),
            Err(e) => ClientResp::Err(e),
        },
        ClientReq::Status => {
            let s = session.node().status();
            ClientResp::Status(RemoteStatus {
                replica: s.replica.raw(),
                alive: s.alive,
                last_validated: s.last_validated.raw(),
                queued: s.queued as u64,
                pending_local: s.pending_local as u64,
                commits: s.metrics.commits(),
                audit_violations: cluster.audit_violations().len() as u64,
            })
        }
        ClientReq::Ping => ClientResp::Pong,
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Client-side entry point: a list of node addresses plus failover policy.
pub struct RemoteDriver {
    addrs: Vec<String>,
    /// Rounds of in-doubt inquiry before giving up with `Unavailable`.
    inquiry_attempts: usize,
    /// Reconnect sweeps over the address list before `Unavailable`.
    connect_sweeps: usize,
}

impl RemoteDriver {
    pub fn new(addrs: Vec<String>) -> RemoteDriver {
        RemoteDriver { addrs, inquiry_attempts: 6, connect_sweeps: 5 }
    }

    pub fn inquiry_attempts(mut self, n: usize) -> RemoteDriver {
        self.inquiry_attempts = n.max(1);
        self
    }

    pub fn connect_sweeps(mut self, n: usize) -> RemoteDriver {
        self.connect_sweeps = n.max(1);
        self
    }

    /// Open a connection to the first reachable node.
    pub fn connect(&self) -> Result<RemoteConn<'_>, DbError> {
        let mut conn = RemoteConn {
            driver: self,
            link: None,
            addr_idx: 0,
            autocommit: false,
            in_txn: false,
            last_xact: None,
            failovers: 0,
        };
        conn.reconnect(0)?;
        Ok(conn)
    }
}

struct Link {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// One client connection, failing over across the driver's address list.
pub struct RemoteConn<'d> {
    driver: &'d RemoteDriver,
    link: Option<Link>,
    addr_idx: usize,
    autocommit: bool,
    in_txn: bool,
    /// Most recent transaction id reported by the server — the handle for
    /// §5.4 in-doubt resolution after a crashed commit.
    last_xact: Option<XactId>,
    failovers: usize,
}

impl RemoteConn<'_> {
    /// How many times this connection failed over to another node.
    pub fn failovers(&self) -> usize {
        self.failovers
    }

    /// The address currently connected to.
    pub fn addr(&self) -> &str {
        self.driver.addrs.get(self.addr_idx).map_or("", String::as_str)
    }

    pub fn autocommit(&self) -> bool {
        self.autocommit
    }

    /// Execute one statement, failing over on connection loss (§5.4 cases
    /// 1–2). Inside an explicit transaction a crash loses the transaction:
    /// the statement returns [`AbortReason::ReplicaCrashed`] and the client
    /// may retry from BEGIN on the (already re-connected) connection.
    pub fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError> {
        match self.request(&ClientReq::Exec { sql: sql.into() }) {
            Ok(ClientResp::Exec { result, xact }) => {
                self.last_xact = xact.or(self.last_xact);
                self.in_txn = !self.autocommit;
                Ok(result)
            }
            Ok(other) => Err(protocol_err("exec", &other)),
            Err(e) if is_crash(&e) => self.exec_crashed(e),
            Err(e) => Err(e),
        }
    }

    fn exec_crashed(&mut self, e: DbError) -> Result<ExecResult, DbError> {
        let was_in_txn = std::mem::replace(&mut self.in_txn, false);
        let autocommit_in_flight = self.autocommit && matches!(e, DbError::ConnectionLost { .. });
        self.failovers += 1;
        self.reconnect(self.addr_idx + 1)?;
        if was_in_txn {
            // Case 2: statements of the open transaction are lost with the
            // crashed node; surface a retryable abort on the new node.
            Err(DbError::Aborted(AbortReason::ReplicaCrashed))
        } else if autocommit_in_flight {
            // The implicit commit may or may not have happened and the
            // response carrying its transaction id is gone — nothing to
            // inquire about (see module docs).
            Err(DbError::ConnectionLost { in_doubt: true })
        } else {
            Err(DbError::Aborted(AbortReason::ReplicaCrashed))
        }
    }

    /// Commit the open transaction; a crashed node triggers in-doubt
    /// resolution by inquiry on a surviving node (§5.4 case 3).
    pub fn commit(&mut self) -> Result<(), DbError> {
        let xact = self.last_xact;
        self.in_txn = false;
        match self.request(&ClientReq::Commit) {
            Ok(ClientResp::Done) => Ok(()),
            Ok(other) => Err(protocol_err("commit", &other)),
            Err(e) if is_crash(&e) => {
                self.failovers += 1;
                self.reconnect(self.addr_idx + 1)?;
                match xact {
                    Some(x) => self.resolve_in_doubt(x),
                    // No statement ever ran — nothing could have committed.
                    None => Err(DbError::Aborted(AbortReason::ReplicaCrashed)),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Roll back the open transaction. A crash achieves the rollback (the
    /// transaction died with the node), so after failover this succeeds.
    pub fn rollback(&mut self) -> Result<(), DbError> {
        self.in_txn = false;
        match self.request(&ClientReq::Rollback) {
            Ok(ClientResp::Done) => Ok(()),
            Ok(other) => Err(protocol_err("rollback", &other)),
            Err(e) if is_crash(&e) => {
                self.failovers += 1;
                self.reconnect(self.addr_idx + 1)?;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    pub fn set_autocommit(&mut self, on: bool) -> Result<(), DbError> {
        match self.request(&ClientReq::SetAutocommit(on)) {
            Ok(ClientResp::Done) => {
                self.autocommit = on;
                if on {
                    self.in_txn = false;
                }
                Ok(())
            }
            Ok(other) => Err(protocol_err("set_autocommit", &other)),
            Err(e) => Err(e),
        }
    }

    /// Status of the node currently connected to.
    pub fn status(&mut self) -> Result<RemoteStatus, DbError> {
        match self.request(&ClientReq::Status) {
            Ok(ClientResp::Status(s)) => Ok(s),
            Ok(other) => Err(protocol_err("status", &other)),
            Err(e) => Err(e),
        }
    }

    pub fn ping(&mut self) -> Result<(), DbError> {
        match self.request(&ClientReq::Ping) {
            Ok(ClientResp::Pong) => Ok(()),
            Ok(other) => Err(protocol_err("ping", &other)),
            Err(e) => Err(e),
        }
    }

    /// Ask the connected node what happened to `xact`.
    pub fn inquire(&mut self, xact: XactId) -> Result<InDoubt, DbError> {
        match self.request(&ClientReq::Inquire { xact }) {
            Ok(ClientResp::Resolved(d)) => Ok(d),
            Ok(other) => Err(protocol_err("inquire", &other)),
            Err(e) => Err(e),
        }
    }

    /// §5.4 case 3 on the client side: keep asking surviving nodes about
    /// `xact` until one answers (bounded rounds, exponential backoff).
    fn resolve_in_doubt(&mut self, xact: XactId) -> Result<(), DbError> {
        let mut backoff = Duration::from_millis(5);
        for round in 0..self.driver.inquiry_attempts {
            if round > 0 {
                thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
            match self.request(&ClientReq::Inquire { xact }) {
                Ok(ClientResp::Resolved(InDoubt::Known(Outcome::Committed))) => return Ok(()),
                Ok(ClientResp::Resolved(InDoubt::Known(Outcome::Aborted))) => {
                    return Err(DbError::Aborted(AbortReason::ValidationFailure));
                }
                Ok(ClientResp::Resolved(InDoubt::NeverReceived)) => {
                    return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
                }
                // Node can't answer (`InDoubt::Unknown` within its bound,
                // e.g. still recovering) or died under us — hop to the next
                // one and ask again.
                Ok(_) | Err(_) => {
                    let _ = self.reconnect(self.addr_idx + 1);
                }
            }
        }
        Err(DbError::Unavailable)
    }

    /// One request/response round trip on the current link. A transport
    /// failure drops the link and reports as `ConnectionLost` (the response,
    /// if any, is gone); a server-side `DbError` comes back as `Err` too so
    /// callers pattern-match one error channel.
    fn request(&mut self, req: &ClientReq) -> Result<ClientResp, DbError> {
        let link = self.link.as_mut().ok_or(DbError::ConnectionLost { in_doubt: false })?;
        let io_result = write_frame(&mut link.writer, req)
            .and_then(|()| link.writer.flush())
            .and_then(|()| read_frame::<_, ClientResp>(&mut link.reader));
        match io_result {
            Ok(ClientResp::Err(e)) => Err(e),
            Ok(resp) => Ok(resp),
            Err(_) => {
                self.link = None;
                Err(DbError::ConnectionLost { in_doubt: false })
            }
        }
    }

    /// Sweep the address list (starting at `from`) until a node accepts and
    /// the session's autocommit mode is re-established.
    fn reconnect(&mut self, from: usize) -> Result<(), DbError> {
        let n = self.driver.addrs.len();
        let mut backoff = Duration::from_millis(5);
        for sweep in 0..self.driver.connect_sweeps {
            if sweep > 0 {
                thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
            for step in 0..n {
                let idx = (from + step) % n;
                let Some(addr) = self.driver.addrs.get(idx) else { continue };
                let Ok(stream) = TcpStream::connect(addr) else { continue };
                // Small frames both ways: disable Nagle on the client leg
                // too, or each statement pays a delayed-ack round trip.
                let _ = stream.set_nodelay(true);
                let Ok(rstream) = stream.try_clone() else { continue };
                self.link =
                    Some(Link { reader: BufReader::new(rstream), writer: BufWriter::new(stream) });
                self.addr_idx = idx;
                // Fresh server session defaults to autocommit off; replay
                // this connection's mode so semantics survive failover.
                match self.request(&ClientReq::SetAutocommit(self.autocommit)) {
                    Ok(ClientResp::Done) => return Ok(()),
                    _ => self.link = None,
                }
            }
        }
        Err(DbError::Unavailable)
    }
}

/// Crash-shaped errors that should trigger failover, mirroring the
/// in-process driver's `is_crash`. A lost link reports as `ConnectionLost`.
fn is_crash(e: &DbError) -> bool {
    matches!(
        e,
        DbError::Aborted(AbortReason::ReplicaCrashed)
            | DbError::Aborted(AbortReason::Shutdown)
            | DbError::ConnectionLost { .. }
    )
}

fn protocol_err(what: &str, got: &ClientResp) -> DbError {
    DbError::Internal(format!("protocol violation: unexpected response to {what}: {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirep_core::ClusterConfig;
    use sirep_gcs::GroupConfig;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_wire();
        assert_eq!(&T::from_wire(&bytes).expect("decode"), v);
        for cut in 0..bytes.len() {
            assert!(T::from_wire(&bytes[..cut]).is_err(), "truncation must fail");
        }
    }

    #[test]
    fn request_frames_round_trip() {
        round_trip(&ClientReq::Exec { sql: "SELECT * FROM t".into() });
        round_trip(&ClientReq::Commit);
        round_trip(&ClientReq::Rollback);
        round_trip(&ClientReq::SetAutocommit(true));
        round_trip(&ClientReq::Inquire {
            xact: XactId::new(sirep_common::ReplicaId::new(2), XactId::seq_base(1) + 9),
        });
        round_trip(&ClientReq::Status);
        round_trip(&ClientReq::Ping);
        assert!(ClientReq::from_wire(&[99]).is_err());
    }

    #[test]
    fn response_frames_round_trip() {
        round_trip(&ClientResp::Exec {
            result: ExecResult::Rows {
                columns: vec!["a".into(), "b".into()],
                rows: vec![vec![
                    sirep_storage::Value::Int(1),
                    sirep_storage::Value::Text("x".into()),
                ]],
            },
            xact: Some(XactId::new(sirep_common::ReplicaId::new(0), 3)),
        });
        round_trip(&ClientResp::Exec { result: ExecResult::Affected(7), xact: None });
        round_trip(&ClientResp::Exec { result: ExecResult::Created, xact: None });
        round_trip(&ClientResp::Done);
        for answer in [
            InDoubt::Known(Outcome::Committed),
            InDoubt::Known(Outcome::Aborted),
            InDoubt::NeverReceived,
            InDoubt::Unknown,
        ] {
            round_trip(&ClientResp::Resolved(answer));
        }
        // The in-doubt answer has one wire form; a tag past it is corrupt.
        assert_eq!(ClientResp::from_wire(&[2, 3]), Err(WireError::Corrupt("in-doubt tag")));
        round_trip(&ClientResp::Status(RemoteStatus {
            replica: 2,
            alive: true,
            last_validated: 41,
            queued: 1,
            pending_local: 0,
            commits: 40,
            audit_violations: 0,
        }));
        round_trip(&ClientResp::Pong);
        round_trip(&ClientResp::Err(DbError::Aborted(AbortReason::SerializationFailure)));
        round_trip(&ClientResp::Err(DbError::DuplicateKey("k".into())));
        assert!(ClientResp::from_wire(&[99]).is_err());
    }

    fn cluster_and_servers(n: usize) -> (Arc<Cluster>, Vec<NodeServer>, Vec<String>) {
        let cluster = Arc::new(Cluster::new(
            ClusterConfig::builder().replicas(n).gcs(GroupConfig::instant()).build(),
        ));
        cluster.execute_ddl("CREATE TABLE t (id INT, body TEXT, PRIMARY KEY (id))").expect("ddl");
        let servers: Vec<NodeServer> = (0..n)
            .map(|k| NodeServer::spawn("127.0.0.1:0", cluster.clone(), k).expect("bind"))
            .collect();
        let addrs = servers.iter().map(|s| s.addr().to_string()).collect();
        (cluster, servers, addrs)
    }

    #[test]
    fn statements_and_transactions_over_the_wire() {
        let (_cluster, _servers, addrs) = cluster_and_servers(2);
        let driver = RemoteDriver::new(addrs);
        let mut conn = driver.connect().expect("connect");
        conn.ping().expect("ping");

        conn.set_autocommit(true).expect("autocommit on");
        let r = conn.execute("INSERT INTO t VALUES (1, 'one')").expect("insert");
        assert_eq!(r, ExecResult::Affected(1));

        conn.set_autocommit(false).expect("autocommit off");
        conn.execute("INSERT INTO t VALUES (2, 'two')").expect("insert in txn");
        conn.commit().expect("commit");

        conn.execute("INSERT INTO t VALUES (3, 'three')").expect("insert");
        conn.rollback().expect("rollback");

        let rows = conn.execute("SELECT id FROM t ORDER BY id").expect("select");
        let ExecResult::Rows { rows, .. } = rows else { panic!("expected rows") };
        assert_eq!(rows.len(), 2, "rolled-back row must be invisible: {rows:?}");
        conn.commit().expect("read-only commit");

        let status = conn.status().expect("status");
        assert!(status.alive);
        assert_eq!(status.audit_violations, 0);
    }

    #[test]
    fn db_errors_cross_the_wire_intact() {
        let (_cluster, _servers, addrs) = cluster_and_servers(1);
        let driver = RemoteDriver::new(addrs);
        let mut conn = driver.connect().expect("connect");
        conn.set_autocommit(true).expect("autocommit");
        conn.execute("INSERT INTO t VALUES (1, 'one')").expect("insert");
        let dup = conn.execute("INSERT INTO t VALUES (1, 'again')");
        assert!(matches!(dup, Err(DbError::DuplicateKey(_))), "got {dup:?}");
        let missing = conn.execute("SELECT * FROM nope");
        assert!(matches!(missing, Err(DbError::UnknownTable(_))), "got {missing:?}");
        let parse = conn.execute("FROB the database");
        assert!(matches!(parse, Err(DbError::Parse(_))), "got {parse:?}");
    }

    #[test]
    fn failover_masks_a_crashed_node() {
        let (cluster, _servers, addrs) = cluster_and_servers(3);
        let driver = RemoteDriver::new(addrs);
        let mut conn = driver.connect().expect("connect");
        conn.set_autocommit(false).expect("autocommit off");
        conn.execute("INSERT INTO t VALUES (10, 'doomed')").expect("insert");

        cluster.crash(0);

        // §5.4 case 2: the open transaction is lost, the connection is not.
        let lost = conn.execute("INSERT INTO t VALUES (11, 'after crash')");
        assert_eq!(lost, Err(DbError::Aborted(AbortReason::ReplicaCrashed)));
        assert_eq!(conn.failovers(), 1);

        // Retry the business transaction on the failed-over connection.
        conn.execute("INSERT INTO t VALUES (10, 'retried')").expect("retry insert");
        conn.execute("INSERT INTO t VALUES (11, 'retried')").expect("retry insert");
        conn.commit().expect("commit after failover");
        let rows = conn.execute("SELECT id FROM t ORDER BY id").expect("select");
        assert_eq!(rows.rows().len(), 2);
        conn.commit().expect("close read txn");
    }

    #[test]
    fn crashed_commit_resolves_by_inquiry_on_a_survivor() {
        let (cluster, _servers, addrs) = cluster_and_servers(3);
        let driver = RemoteDriver::new(addrs);
        let mut conn = driver.connect().expect("connect");
        conn.set_autocommit(false).expect("autocommit off");
        conn.execute("INSERT INTO t VALUES (20, 'in doubt')").expect("insert");

        cluster.crash(0);

        // §5.4 case 3: the commit's fate is resolved by asking a survivor.
        // The writeset was never multicast (crash before submit), so uniform
        // delivery guarantees it committed nowhere.
        let r = conn.commit();
        assert_eq!(r, Err(DbError::Aborted(AbortReason::ReplicaCrashed)), "got {r:?}");

        let rows = conn.execute("SELECT id FROM t").expect("select on survivor");
        assert_eq!(rows.rows().len(), 0, "in-doubt txn must not have committed");
        conn.commit().expect("close read txn");
    }

    #[test]
    fn connect_skips_dead_addresses() {
        let (_cluster, _servers, mut addrs) = cluster_and_servers(1);
        // A listener that is already gone: connection refused.
        let dead = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dead_addr = dead.local_addr().expect("addr").to_string();
        drop(dead);
        addrs.insert(0, dead_addr);

        let driver = RemoteDriver::new(addrs);
        let mut conn = driver.connect().expect("connect must skip the dead node");
        conn.ping().expect("ping");
        assert_eq!(conn.addr(), conn.driver.addrs[1]);
    }
}
