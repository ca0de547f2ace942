//! The system under test: one sequencer and three node processes of the
//! shipped `sirep-cluster` binary on loopback. Start, load, check, stop.

use crate::workload::{insert_sql, INITIAL_BALANCE, ROWS, SCHEMA};
use sirep_core::audit_scraped_journals;
use sirep_driver::remote::{RemoteConn, RemoteDriver, RemoteStatus};
use sirep_driver::telemetry::{scrape_journal, scrape_report};
use sirep_sql::ExecResult;
use sirep_storage::{Row, Value};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub const REPLICAS: usize = 3;

/// Where cargo puts the release build: `$CARGO_TARGET_DIR` or `target`,
/// relative to the repository root the benchmark is run from.
fn cluster_binary() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("release").join("sirep-cluster")
}

/// Build the shipped binary from source (a no-op when it is up to date).
/// Build time is never part of `setup_s`.
pub fn build_cluster_binary() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p", "sirep-cluster"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p sirep-cluster failed: {status}"));
    }
    let bin = cluster_binary();
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after a successful build", bin.display()))
    }
}

/// One server process. Killed and reaped on drop, so no exit path of the
/// benchmark — error return or panic — leaves it running.
struct Server {
    child: Child,
    /// Kept open: the servers print nothing after READY, but a closed pipe
    /// would turn any later line into SIGPIPE.
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(bin: &Path, args: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Server { child, stdout })
    }

    /// Read the start-up lines up to `READY <addr>`; returns that address
    /// and the `TELEMETRY <addr>` printed before it, if any.
    fn await_ready(&mut self) -> Result<(String, Option<String>), String> {
        let mut telemetry = None;
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.stdout.read_line(&mut line).map_err(|e| format!("server stdout: {e}"))?;
            if n == 0 {
                return Err("server exited before READY (see its stderr above)".into());
            }
            if let Some(addr) = line.strip_prefix("TELEMETRY ") {
                telemetry = Some(addr.trim().to_string());
            } else if let Some(addr) = line.strip_prefix("READY ") {
                return Ok((addr.trim().to_string(), telemetry));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub struct Deployment {
    seq: Server,
    nodes: Vec<Server>,
    pub seq_addr: String,
    pub node_addrs: Vec<String>,
    pub telemetry_addrs: Vec<String>,
}

impl Deployment {
    pub fn start(bin: &Path) -> Result<Deployment, String> {
        let mut seq = Server::spawn(bin, &["seq", "--bind", "127.0.0.1:0"])?;
        let (seq_addr, _) = seq.await_ready()?;
        // Spawn all nodes, then wait for each: their start-up overlaps.
        let mut nodes = Vec::new();
        for k in 0..REPLICAS {
            let replica = k.to_string();
            let mut args = vec!["node", "--seq", &seq_addr, "--replica", &replica];
            args.extend(["--bind", "127.0.0.1:0", "--telemetry", "127.0.0.1:0"]);
            for ddl in SCHEMA {
                args.extend(["--schema", ddl]);
            }
            nodes.push(Server::spawn(bin, &args)?);
        }
        let (mut node_addrs, mut telemetry_addrs) = (Vec::new(), Vec::new());
        for node in &mut nodes {
            let (addr, telemetry) = node.await_ready()?;
            node_addrs.push(addr);
            telemetry_addrs.push(telemetry.ok_or("node printed no TELEMETRY line")?);
        }
        Ok(Deployment { seq, nodes, seq_addr, node_addrs, telemetry_addrs })
    }

    pub fn seq_pid(&self) -> u32 {
        self.seq.child.id()
    }

    pub fn node_pids(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.child.id()).collect()
    }

    /// The node list as client `c` is given it: rotated by `c`, so client
    /// `c`'s transactions are local at replica `c mod 3`.
    pub fn addrs_for_client(&self, c: usize) -> Vec<String> {
        let mut addrs = self.node_addrs.clone();
        addrs.rotate_left(c % REPLICAS);
        addrs
    }
}

/// Start a fresh deployment and bring it to the state every workload starts
/// from: schema and index in place, all rows on all replicas. Returns the
/// seconds this took, from the first process spawn to the convergence check.
pub fn setup(bin: &Path, clients: usize) -> Result<(Deployment, f64), String> {
    let started = Instant::now();
    let dep = Deployment::start(bin)?;
    // Autocommit INSERTs, split over the client connections the workload
    // will use (client c loads ids ≡ c mod clients through "its" replica).
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addrs = dep.addrs_for_client(c);
                scope.spawn(move || -> Result<(), String> {
                    let driver = RemoteDriver::new(addrs);
                    let mut conn = driver.connect().map_err(|e| format!("loader {c}: {e}"))?;
                    conn.set_autocommit(true).map_err(|e| format!("loader {c}: {e}"))?;
                    for id in (c as u64..ROWS).step_by(clients) {
                        conn.execute(&insert_sql(id)).map_err(|e| format!("insert {id}: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().map_err(|_| "loader panicked")?)
    })?;
    let drivers = StatusDrivers::new(&dep);
    let mut probes = StatusProbes::over(&drivers)?;
    probes.await_convergence(Duration::from_secs(30))?;
    for (addr, rows) in dep.node_addrs.iter().zip(probes.row_counts()?) {
        if rows != ROWS {
            return Err(format!("{addr} holds {rows} rows after load, expected {ROWS}"));
        }
    }
    drop(probes);
    Ok((dep, started.elapsed().as_secs_f64()))
}

/// One persistent status connection per node.
pub struct StatusProbes<'d> {
    conns: Vec<RemoteConn<'d>>,
}

/// The drivers behind [`StatusProbes`]; the connections borrow them.
pub struct StatusDrivers(Vec<RemoteDriver>);

impl StatusDrivers {
    pub fn new(dep: &Deployment) -> StatusDrivers {
        StatusDrivers(dep.node_addrs.iter().map(|a| RemoteDriver::new(vec![a.clone()])).collect())
    }
}

impl<'d> StatusProbes<'d> {
    pub fn over(drivers: &'d StatusDrivers) -> Result<StatusProbes<'d>, String> {
        let conns = drivers
            .0
            .iter()
            .map(|d| d.connect().map_err(|e| format!("status connection: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(StatusProbes { conns })
    }

    fn statuses(&mut self) -> Result<Vec<RemoteStatus>, String> {
        self.conns.iter_mut().map(|c| c.status().map_err(|e| format!("status: {e}"))).collect()
    }

    /// Poll until every replica is drained (`queued = 0`, nothing pending)
    /// and all report the same `last_validated`. Returns the statuses seen
    /// at that point.
    pub fn await_convergence(&mut self, timeout: Duration) -> Result<Vec<RemoteStatus>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let list = self.statuses()?;
            let drained = list.iter().all(|s| s.alive && s.queued == 0 && s.pending_local == 0);
            if drained && list.iter().all(|s| s.last_validated == list[0].last_validated) {
                return Ok(list);
            }
            if Instant::now() >= deadline {
                return Err(format!("replicas did not converge within {timeout:?}: {list:?}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn row_counts(&mut self) -> Result<Vec<u64>, String> {
        self.conns
            .iter_mut()
            .map(|c| {
                c.set_autocommit(true).map_err(|e| e.to_string())?;
                match c.execute("SELECT COUNT(*) FROM accounts").map_err(|e| e.to_string())? {
                    ExecResult::Rows { rows, .. } => match rows.first().and_then(|r| r.first()) {
                        Some(Value::Int(n)) => Ok(*n as u64),
                        other => Err(format!("COUNT(*) returned {other:?}")),
                    },
                    other => Err(format!("COUNT(*) returned {other:?}")),
                }
            })
            .collect()
    }

    fn tables(&mut self) -> Result<Vec<Vec<Row>>, String> {
        self.conns
            .iter_mut()
            .map(|c| {
                c.set_autocommit(true).map_err(|e| e.to_string())?;
                match c.execute("SELECT id, grp, balance FROM accounts ORDER BY id") {
                    Ok(ExecResult::Rows { rows, .. }) => Ok(rows),
                    Ok(other) => Err(format!("table read returned {other:?}")),
                    Err(e) => Err(format!("table read: {e}")),
                }
            })
            .collect()
    }
}

/// The correctness gate run after every workload. `balance_delta` is what
/// the committed transactions must have added to `SUM(balance)`. Any finding
/// fails the whole command.
pub fn correctness_gate(
    dep: &Deployment,
    probes: &mut StatusProbes<'_>,
    balance_delta: i64,
) -> Result<(), String> {
    let statuses = probes.await_convergence(Duration::from_secs(30))?;
    for (addr, s) in dep.node_addrs.iter().zip(&statuses) {
        if s.audit_violations != 0 {
            return Err(format!("{addr}: {} online audit violations", s.audit_violations));
        }
    }
    let tables = probes.tables()?;
    for (addr, t) in dep.node_addrs.iter().zip(&tables) {
        if t.len() as u64 != ROWS {
            return Err(format!("{addr}: {} rows, expected {ROWS}", t.len()));
        }
        if *t != tables[0] {
            return Err(format!("{addr} diverges from {}", dep.node_addrs[0]));
        }
    }
    let sum: i64 = tables[0]
        .iter()
        .map(|row| match row.get(2) {
            Some(Value::Int(n)) => *n,
            _ => 0,
        })
        .sum();
    let expected = ROWS as i64 * INITIAL_BALANCE + balance_delta;
    if sum != expected {
        return Err(format!(
            "SUM(balance) = {sum}, expected {expected}: updates lost or duplicated"
        ));
    }
    let mut journals = Vec::new();
    for addr in &dep.telemetry_addrs {
        let report = scrape_report(addr).map_err(|e| format!("scraping {addr}: {e}"))?;
        if let Some(v) = report.violations.first() {
            return Err(format!("{addr}: scraped report carries a violation: {v}"));
        }
        journals.extend(scrape_journal(addr).map_err(|e| format!("scraping {addr}: {e}"))?);
    }
    if let Some(v) = audit_scraped_journals(&journals).first() {
        return Err(format!("scraped-journal audit: {v}"));
    }
    Ok(())
}
