//! Remote client/server protocol: the driver over a real socket.
//!
//! The in-process [`Driver`](crate::Driver) hands each connection a
//! [`Session`]; in a multi-process deployment the middleware runs in its own
//! process and clients reach it over TCP, through a length-prefixed
//! [`Wire`] frame protocol:
//!
//! - [`NodeServer`] — per-middleware-process listener; one thread and one
//!   [`Session`] per client connection, so statement/commit ordering per
//!   client is exactly the in-process driver's.
//! - [`RemoteDriver`]/[`RemoteConn`] — client side: the same §5.4 machine
//!   ([`crate::failover`]) as [`DriverConnection`](crate::DriverConnection),
//!   over a framed-TCP link and an address list.

use crate::failover::{Backoff, Connector, Failover, Link, INQUIRY_ATTEMPTS};
use sirep_common::wire::{read_frame, write_frame};
use sirep_common::DbError;
use sirep_core::{Cluster, InDoubt, Session, XactId};
use sirep_sql::ExecResult;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

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

sirep_common::wire_codec!(enum ClientReq, "client req tag" {
    0 => Exec { sql },
    1 => Commit,
    2 => Rollback,
    3 => SetAutocommit(on),
    4 => Inquire { xact },
    5 => Status,
    6 => Ping,
});

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

sirep_common::wire_codec!(struct RemoteStatus {
    replica,
    alive,
    last_validated,
    queued,
    pending_local,
    commits,
    audit_violations,
});

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
    /// The statement failed; `xact` as in [`ClientResp::Exec`]. If the
    /// failure is the node going down, the id is what the client asks a
    /// survivor about.
    ExecFailed {
        error: DbError,
        xact: Option<XactId>,
    },
    /// Commit / rollback / set-autocommit acknowledged.
    Done,
    Resolved(InDoubt),
    Status(RemoteStatus),
    Pong,
    Err(DbError),
}

sirep_common::wire_codec!(enum ClientResp, "client resp tag" {
    0 => Exec { result, xact },
    1 => Done,
    2 => Resolved(answer),
    3 => Status(status),
    4 => Pong,
    5 => Err(error),
    6 => ExecFailed { error, xact },
});

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A TCP accept loop with one thread per connection — the shell of both
/// [`NodeServer`] and [`TelemetryServer`](crate::TelemetryServer).
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    /// Bind `bind` (e.g. `"127.0.0.1:0"`) and run `serve` on a thread of its
    /// own for every connection accepted.
    pub(crate) fn spawn(
        bind: &str,
        name: &str,
        serve: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> io::Result<Listener> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let serve = Arc::new(serve);
        let conn_name = format!("{name}-conn");
        let accept = thread::Builder::new().name(name.into()).spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                // Small request/response frames: Nagle would add a full RTT
                // of buffering to every reply.
                let _ = stream.set_nodelay(true);
                let serve = Arc::clone(&serve);
                let _ = thread::Builder::new().name(conn_name.clone()).spawn(move || serve(stream));
            }
        })?;
        Ok(Listener { addr, stop, accept: Some(accept) })
    }

    /// The bound address (useful with port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Stops accepting. Connections already open drain on their own when the
/// peer hangs up or the node dies.
impl Drop for Listener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Nudge the accept loop out of `incoming()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// TCP front-end for one middleware replica: serves each client connection
/// from its own thread + [`Session`], exactly like a pool of in-process
/// driver connections.
pub struct NodeServer(Listener);

impl NodeServer {
    /// Bind `bind` and serve sessions against node `k` of `cluster`.
    pub fn spawn(bind: &str, cluster: Arc<Cluster>, k: usize) -> io::Result<NodeServer> {
        let serve = move |stream| serve_conn(stream, &cluster, k);
        Listener::spawn(bind, &format!("node-server-{k}"), serve).map(NodeServer)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
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
    let done = |r: Result<(), DbError>| r.map_or_else(ClientResp::Err, |()| ClientResp::Done);
    match req {
        ClientReq::Exec { sql } => match session.exec(&sql) {
            (Ok(result), xact) => ClientResp::Exec { result, xact },
            (Err(error), xact) => ClientResp::ExecFailed { error, xact },
        },
        ClientReq::Commit => done(session.commit()),
        ClientReq::Rollback => done(session.rollback()),
        ClientReq::SetAutocommit(on) => done(session.set_autocommit(on)),
        ClientReq::Inquire { xact } => {
            session.inquire(xact).map_or_else(ClientResp::Err, ClientResp::Resolved)
        }
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

/// Client-side entry point: the node addresses a connection may fail over
/// across.
pub struct RemoteDriver {
    addrs: Vec<String>,
    /// Sweeps over the address list before giving up on finding a node.
    connect_sweeps: usize,
}

impl RemoteDriver {
    pub fn new(addrs: Vec<String>) -> RemoteDriver {
        RemoteDriver { addrs, connect_sweeps: 5 }
    }

    pub fn connect_sweeps(mut self, n: usize) -> RemoteDriver {
        self.connect_sweeps = n.max(1);
        self
    }

    /// Open a connection to the first reachable node.
    pub fn connect(&self) -> Result<RemoteConn<'_>, DbError> {
        Failover::connect(self, INQUIRY_ATTEMPTS)
    }
}

impl Connector for RemoteDriver {
    type Link = TcpLink;

    /// Sweep the address list, starting after `avoid`'s address, until a
    /// node accepts, says its replica is alive and has taken the autocommit
    /// mode.
    fn connect(&self, avoid: Option<&TcpLink>, autocommit: bool) -> Option<TcpLink> {
        let n = self.addrs.len();
        let from = avoid.map_or(0, |l| l.addr_idx + 1);
        let mut backoff = Backoff::new();
        for sweep in 0..self.connect_sweeps {
            if sweep > 0 {
                backoff.sleep();
            }
            for addr_idx in (from..from + n).map(|i| i % n) {
                let Some(addr) = self.addrs.get(addr_idx) else { continue };
                let Ok(stream) = TcpStream::connect(addr) else { continue };
                // Small frames both ways: disable Nagle on the client leg
                // too, or each statement pays a delayed-ack round trip.
                let _ = stream.set_nodelay(true);
                let Ok(rstream) = stream.try_clone() else { continue };
                let io = Some((BufReader::new(rstream), BufWriter::new(stream)));
                let mut link = TcpLink { addr_idx, io };
                // A replica that has fail-stopped may still be listening.
                let alive = matches!(link.status(), Ok(s) if s.alive);
                // A fresh server session has autocommit off.
                if alive && (!autocommit || link.set_autocommit(true).is_ok()) {
                    return Some(link);
                }
            }
        }
        None
    }
}

/// One framed request/response connection to a [`NodeServer`].
pub struct TcpLink {
    addr_idx: usize,
    /// `None` once a transport failure has left the stream unusable.
    io: Option<(BufReader<TcpStream>, BufWriter<TcpStream>)>,
}

impl TcpLink {
    /// One round trip. A transport failure reports as `ConnectionLost` (the
    /// reply, if any, is gone); a server-side `DbError` comes back as `Err`
    /// too, so callers match one error channel.
    fn request(&mut self, req: &ClientReq) -> Result<ClientResp, DbError> {
        let (reader, writer) =
            self.io.as_mut().ok_or(DbError::ConnectionLost { in_doubt: false })?;
        let reply = write_frame(writer, req)
            .and_then(|()| writer.flush())
            .and_then(|()| read_frame::<_, ClientResp>(reader));
        match reply {
            Ok(ClientResp::Err(e)) => Err(e),
            Ok(resp) => Ok(resp),
            Err(_) => {
                self.io = None;
                Err(DbError::ConnectionLost { in_doubt: false })
            }
        }
    }

    fn status(&mut self) -> Result<RemoteStatus, DbError> {
        match self.request(&ClientReq::Status)? {
            ClientResp::Status(s) => Ok(s),
            other => Err(protocol_err(&ClientReq::Status, &other)),
        }
    }

    /// A request whose only good answer is [`ClientResp::Done`].
    fn done(&mut self, req: &ClientReq) -> Result<(), DbError> {
        match self.request(req)? {
            ClientResp::Done => Ok(()),
            other => Err(protocol_err(req, &other)),
        }
    }
}

impl Link for TcpLink {
    fn exec(&mut self, sql: &str) -> (Result<ExecResult, DbError>, Option<XactId>) {
        let req = ClientReq::Exec { sql: sql.into() };
        match self.request(&req) {
            Ok(ClientResp::Exec { result, xact }) => (Ok(result), xact),
            Ok(ClientResp::ExecFailed { error, xact }) => (Err(error), xact),
            Ok(other) => (Err(protocol_err(&req, &other)), None),
            Err(e) => (Err(e), None),
        }
    }

    fn commit(&mut self) -> Result<(), DbError> {
        self.done(&ClientReq::Commit)
    }

    fn rollback(&mut self) -> Result<(), DbError> {
        self.done(&ClientReq::Rollback)
    }

    fn set_autocommit(&mut self, on: bool) -> Result<(), DbError> {
        self.done(&ClientReq::SetAutocommit(on))
    }

    fn inquire(&mut self, xact: XactId) -> Result<InDoubt, DbError> {
        let req = ClientReq::Inquire { xact };
        match self.request(&req)? {
            ClientResp::Resolved(d) => Ok(d),
            other => Err(protocol_err(&req, &other)),
        }
    }
}

/// One client connection, failing over across the driver's address list.
pub type RemoteConn<'d> = Failover<'d, RemoteDriver>;

impl RemoteConn<'_> {
    /// The address currently connected to.
    pub fn addr(&self) -> &str {
        self.connector.addrs.get(self.link.addr_idx).map_or("", String::as_str)
    }

    /// Status of the node currently connected to.
    pub fn status(&mut self) -> Result<RemoteStatus, DbError> {
        self.link.status()
    }

    pub fn ping(&mut self) -> Result<(), DbError> {
        match self.link.request(&ClientReq::Ping)? {
            ClientResp::Pong => Ok(()),
            other => Err(protocol_err(&ClientReq::Ping, &other)),
        }
    }
}

fn protocol_err(req: &ClientReq, got: &ClientResp) -> DbError {
    DbError::Internal(format!("protocol violation: unexpected response to {req:?}: {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirep_common::wire::{Wire, WireError};
    use sirep_common::AbortReason;
    use sirep_core::{ClusterConfig, Outcome};
    use sirep_gcs::GroupConfig;

    /// Round trip `v`, and pin its exact bytes (`want`, hex): a round trip
    /// alone passes when encode and decode change together.
    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T, want: &str) {
        let bytes = v.to_wire();
        assert_eq!(&T::from_wire(&bytes).expect("decode"), v);
        for cut in 0..bytes.len() {
            assert!(T::from_wire(&bytes[..cut]).is_err(), "truncation must fail");
        }
        assert_eq!(hex(&bytes), want, "{v:?}");
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn request_frames_round_trip() {
        round_trip(
            &ClientReq::Exec { sql: "SELECT * FROM t".into() },
            "000f00000053454c454354202a2046524f4d2074",
        );
        round_trip(&ClientReq::Commit, "01");
        round_trip(&ClientReq::Rollback, "02");
        round_trip(&ClientReq::SetAutocommit(true), "0301");
        round_trip(
            &ClientReq::Inquire {
                xact: XactId::new(sirep_common::ReplicaId::new(2), XactId::seq_base(1) + 9),
            },
            "0402000000000000000900000000000100",
        );
        round_trip(&ClientReq::Status, "05");
        round_trip(&ClientReq::Ping, "06");
        assert!(ClientReq::from_wire(&[99]).is_err());
    }

    #[test]
    fn response_frames_round_trip() {
        round_trip(
            &ClientResp::Exec {
                result: ExecResult::Rows {
                    columns: vec!["a".into(), "b".into()],
                    rows: vec![vec![
                        sirep_storage::Value::Int(1),
                        sirep_storage::Value::Text("x".into()),
                    ]],
                },
                xact: Some(XactId::new(sirep_common::ReplicaId::new(0), 3)),
            },
            concat!(
                "00",
                "00",
                "02000000",
                "01000000",
                "61",
                "01000000",
                "62",
                "01000000",
                "02000000",
                "01",
                "0100000000000000",
                "03",
                "01000000",
                "78",
                "01",
                "0000000000000000",
                "0300000000000000"
            ),
        );
        round_trip(
            &ClientResp::Exec { result: ExecResult::Affected(7), xact: None },
            "0001070000000000000000",
        );
        round_trip(&ClientResp::Exec { result: ExecResult::Created, xact: None }, "000200");
        round_trip(&ClientResp::Done, "01");
        for (answer, want) in [
            (InDoubt::Known(Outcome::Committed), "020000"),
            (InDoubt::Known(Outcome::Aborted), "020001"),
            (InDoubt::NeverReceived, "0201"),
            (InDoubt::Unknown, "0202"),
        ] {
            round_trip(&ClientResp::Resolved(answer), want);
        }
        // The in-doubt answer has one wire form; a tag past it is corrupt.
        assert_eq!(ClientResp::from_wire(&[2, 3]), Err(WireError::Corrupt("in-doubt tag")));
        round_trip(
            &ClientResp::Status(RemoteStatus {
                replica: 2,
                alive: true,
                last_validated: 41,
                queued: 1,
                pending_local: 0,
                commits: 40,
                audit_violations: 0,
            }),
            "0302000000000000000129000000000000000100000000000000000000000000000028000000000000000000000000000000",
        );
        round_trip(&ClientResp::Pong, "04");
        let err = DbError::Aborted(AbortReason::SerializationFailure);
        round_trip(&ClientResp::Err(err.clone()), &format!("05{}", hex(&err.to_wire())));
        let err = DbError::DuplicateKey("k".into());
        round_trip(&ClientResp::Err(err.clone()), &format!("05{}", hex(&err.to_wire())));
        let error = DbError::Aborted(AbortReason::ReplicaCrashed);
        round_trip(
            &ClientResp::ExecFailed {
                error: error.clone(),
                xact: Some(XactId::new(sirep_common::ReplicaId::new(1), 8)),
            },
            &format!("06{}0101000000000000000800000000000000", hex(&error.to_wire())),
        );
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
        assert_eq!(conn.addr(), driver.addrs[1]);
    }
}
