//! `sirep-cluster` — a real multi-process SI-Rep deployment.
//!
//! One binary, three roles, wired together by `scripts/multinode.sh`:
//!
//! - `seq`: the total-order sequencer service every middleware process
//!   connects to (the TCP transport's analogue of the GCS daemon);
//! - `node`: one middleware replica — an SI database plus the SRCA-Rep
//!   protocol — joined to the group over TCP and serving clients through
//!   the remote driver protocol, with a telemetry scrape endpoint on a
//!   second port (DESIGN.md §15);
//! - `workload` / `check`: a client that drives money-transfer
//!   transactions through the remote driver (tolerating the §5.4 failover
//!   errors), then proves the deployment converged: every node returns the
//!   identical table contents, balances conserve, and no 1-copy-SI audit
//!   violation was recorded anywhere;
//! - `report` / `audit`: scrape every node's telemetry endpoint and merge
//!   the results across processes — one cluster-wide report (JSON +
//!   Prometheus text), one clock-aligned Perfetto trace, and a re-run of
//!   the 1-copy-SI checks over the union of the scraped journals.
//!
//! Schema is deployment configuration: every `node` installs the same
//! `--schema` DDL in its empty database before it joins the group (DDL is
//! not replicated through the writeset path). A restarted node does so
//! again and then recovers all data by replaying the sequencer's history.
//!
//! A `node` whose replica has stopped — the sequencer died or evicted it —
//! exits non-zero: sequencer death is fail-stop for the group, and the
//! clients' §5.4 failover resolves what was in flight (DESIGN.md §14).

use sirep_common::journal::Event;
use sirep_common::{json_lint, ReplicaId};
use sirep_core::cluster::Transport;
use sirep_core::{
    audit_scraped_journals, perfetto_trace_json, shift_events, Cluster, ClusterConfig,
    ClusterConfigBuilder, ClusterReport,
};
use sirep_driver::remote::{NodeServer, RemoteConn, RemoteDriver, RemoteStatus};
use sirep_driver::telemetry::{
    scrape_clock_offset, scrape_journal, scrape_report, TelemetryServer,
};
use sirep_gcs::{query_seq_stats, Sequencer};
use sirep_sql::ExecResult;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: sirep-cluster <role> [flags]

roles:
  seq       --bind <addr>
  node      --seq <addr> --replica <k> --bind <addr> [--telemetry <addr>]
            [--schema <sql>]...
  workload  --nodes <a,b,c> [--ops <n>] [--accounts <n>] [--seed <n>] [--init]
  check     --nodes <a,b,c> [--accounts <n>] [--timeout-secs <n>]
  report    --telemetry <a,b,c> [--seq <addr>] --out <dir>
  audit     --telemetry <a,b,c>
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("seq") => cmd_seq(&args[1..]),
        Some("node") => cmd_node(&args[1..]),
        Some("workload") => cmd_workload(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// Flag parsing (tiny, dependency-free)
// ---------------------------------------------------------------------------

struct Flags {
    /// `(name, value)` pairs in order; boolean flags carry an empty value.
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String], booleans: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            if booleans.contains(&name) {
                pairs.push((name.to_string(), String::new()));
            } else {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                pairs.push((name.to_string(), v.clone()));
            }
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.pairs.iter().filter(|(n, _)| n == name).map(|(_, v)| v.as_str()).collect()
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects a number, got {v:?}")),
        }
    }
}

fn fail(msg: &str) -> i32 {
    eprintln!("sirep-cluster: {msg}");
    1
}

fn park_forever() -> ! {
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

// ---------------------------------------------------------------------------
// seq / node
// ---------------------------------------------------------------------------

fn cmd_seq(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &[]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let bind = flags.get("bind").unwrap_or("127.0.0.1:0");
    let seq = match Sequencer::spawn(bind) {
        Ok(s) => s,
        Err(e) => return fail(&format!("sequencer bind {bind} failed: {e}")),
    };
    println!("READY {}", seq.addr());
    park_forever();
}

fn cmd_node(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &[]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let Some(seq) = flags.get("seq") else { return fail("node needs --seq <addr>") };
    let replica = match flags.num("replica", 0) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let bind = flags.get("bind").unwrap_or("127.0.0.1:0");

    let config = ClusterConfig::builder()
        .replicas(1)
        .transport(Transport::Tcp { sequencer: seq.to_string() })
        .first_replica(replica);
    let config = flags.all("schema").into_iter().fold(config, ClusterConfigBuilder::schema).build();
    let cluster = match Cluster::try_new(config) {
        Ok(c) => Arc::new(c),
        Err(e) => return fail(&format!("starting replica {replica} via {seq} failed: {e}")),
    };
    // Telemetry goes up before the READY line so a supervisor that has seen
    // READY can rely on the TELEMETRY line already being in the log.
    let tbind = flags.get("telemetry").unwrap_or("127.0.0.1:0");
    let telemetry = match TelemetryServer::spawn(tbind, Arc::clone(&cluster)) {
        Ok(s) => s,
        Err(e) => return fail(&format!("telemetry bind {tbind} failed: {e}")),
    };
    println!("TELEMETRY {}", telemetry.addr());
    let server = match NodeServer::spawn(bind, Arc::clone(&cluster), 0) {
        Ok(s) => s,
        Err(e) => return fail(&format!("client listener bind {bind} failed: {e}")),
    };
    println!("READY {}", server.addr());
    // Serve for as long as the replica lives. Its delivery loop fail-stops
    // it when the group connection ends; a dead replica must not go on
    // accepting clients.
    while cluster.node(0).is_alive() {
        std::thread::sleep(Duration::from_millis(100));
    }
    fail(&format!("replica {replica} is down: its connection to the sequencer {seq} ended"))
}

// ---------------------------------------------------------------------------
// workload / check
// ---------------------------------------------------------------------------

/// splitmix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const INITIAL_BALANCE: i64 = 1_000;

fn split_nodes(flags: &Flags) -> Result<Vec<String>, String> {
    let Some(nodes) = flags.get("nodes") else { return Err("--nodes <a,b,c> is required".into()) };
    let list: Vec<String> =
        nodes.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
    if list.is_empty() {
        Err("--nodes is empty".into())
    } else {
        Ok(list)
    }
}

fn retryable(e: &sirep_common::DbError) -> bool {
    use sirep_common::DbError;
    match e {
        DbError::Aborted(r) => r.is_retryable(),
        // An in-doubt loss must NOT be blindly retried — the work may have
        // committed. Callers decide what an unknown outcome means for them.
        DbError::ConnectionLost { in_doubt } => !in_doubt,
        DbError::Unavailable => true,
        _ => false,
    }
}

/// Run `f` until it succeeds or fails non-retryably; rolls back between
/// attempts so a half-done transaction never leaks into the next one.
fn with_retries<T>(
    conn: &mut RemoteConn<'_>,
    attempts: usize,
    mut f: impl FnMut(&mut RemoteConn<'_>) -> Result<T, sirep_common::DbError>,
) -> Result<T, sirep_common::DbError> {
    let mut last = sirep_common::DbError::Unavailable;
    for _ in 0..attempts {
        match f(conn) {
            Ok(v) => return Ok(v),
            Err(e) if retryable(&e) => {
                last = e;
                let _ = conn.rollback();
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

fn cmd_workload(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &["init"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let nodes = match split_nodes(&flags) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let (Ok(ops), Ok(accounts), Ok(seed)) =
        (flags.num("ops", 200), flags.num("accounts", 32), flags.num("seed", 1))
    else {
        return fail("bad numeric flag");
    };

    let driver = RemoteDriver::new(nodes);
    let mut conn = match driver.connect() {
        Ok(c) => c,
        Err(e) => return fail(&format!("no node reachable: {e}")),
    };

    if flags.has("init") {
        if let Err(e) = conn.set_autocommit(true) {
            return fail(&format!("autocommit: {e}"));
        }
        for id in 0..accounts {
            let sql = format!("INSERT INTO accounts VALUES ({id}, {INITIAL_BALANCE})");
            let r = with_retries(&mut conn, 50, |c| match c.execute(&sql) {
                // The row is keyed, so a seed whose outcome was lost can be
                // resent: a duplicate means it did land the first time.
                Err(sirep_common::DbError::DuplicateKey(_)) => Ok(ExecResult::Affected(0)),
                Err(sirep_common::DbError::ConnectionLost { in_doubt: true }) => {
                    Err(sirep_common::DbError::ConnectionLost { in_doubt: false })
                }
                other => other,
            });
            if let Err(e) = r {
                return fail(&format!("seeding account {id}: {e}"));
            }
        }
        println!("seeded {accounts} accounts");
    }

    if let Err(e) = conn.set_autocommit(false) {
        return fail(&format!("autocommit off: {e}"));
    }
    let mut rng = Rng(seed);
    let mut committed = 0u64;
    let mut in_doubt = 0u64;
    for op in 0..ops {
        let from = rng.below(accounts);
        let to = (from + 1 + rng.below(accounts - 1)) % accounts;
        let amount = 1 + rng.below(20);
        let transfer = |c: &mut RemoteConn<'_>| {
            c.execute(&format!(
                "UPDATE accounts SET balance = balance - {amount} WHERE id = {from}"
            ))?;
            c.execute(&format!(
                "UPDATE accounts SET balance = balance + {amount} WHERE id = {to}"
            ))?;
            c.commit()
        };
        match with_retries(&mut conn, 50, transfer) {
            Ok(()) => committed += 1,
            // A transfer conserves the total whether or not it committed,
            // so an unresolved outcome skews nothing the check measures.
            Err(sirep_common::DbError::ConnectionLost { in_doubt: true }) => in_doubt += 1,
            Err(e) => return fail(&format!("transfer {op} failed: {e}")),
        }
    }
    println!(
        "workload done: {committed}/{ops} transfers committed, {in_doubt} in doubt, {} failovers",
        conn.failovers()
    );
    0
}

fn node_status(addr: &str) -> Result<RemoteStatus, String> {
    let driver = RemoteDriver::new(vec![addr.to_string()]).connect_sweeps(1);
    let mut conn = driver.connect().map_err(|e| format!("{addr}: {e}"))?;
    conn.status().map_err(|e| format!("{addr}: {e}"))
}

fn read_table(addr: &str) -> Result<Vec<sirep_storage::Row>, String> {
    let driver = RemoteDriver::new(vec![addr.to_string()]).connect_sweeps(1);
    let mut conn = driver.connect().map_err(|e| format!("{addr}: {e}"))?;
    conn.set_autocommit(true).map_err(|e| format!("{addr}: {e}"))?;
    let r = conn
        .execute("SELECT id, balance FROM accounts ORDER BY id")
        .map_err(|e| format!("{addr}: {e}"))?;
    let ExecResult::Rows { rows, .. } = r else { return Err(format!("{addr}: not rows")) };
    Ok(rows)
}

fn cmd_check(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &[]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let nodes = match split_nodes(&flags) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let (Ok(accounts), Ok(timeout)) = (flags.num("accounts", 32), flags.num("timeout-secs", 60))
    else {
        return fail("bad numeric flag");
    };

    // Phase 1: convergence. Every node drains its queues and reaches the
    // same certification watermark.
    let deadline = Instant::now() + Duration::from_secs(timeout);
    let statuses = loop {
        let polled: Result<Vec<RemoteStatus>, String> =
            nodes.iter().map(|a| node_status(a)).collect();
        match polled {
            Ok(list) => {
                let drained = list.iter().all(|s| s.alive && s.queued == 0 && s.pending_local == 0);
                let watermark = list.iter().all(|s| s.last_validated == list[0].last_validated);
                if drained && watermark {
                    break list;
                }
            }
            Err(e) if Instant::now() >= deadline => return fail(&format!("unreachable: {e}")),
            Err(_) => {}
        }
        if Instant::now() >= deadline {
            return fail("nodes did not converge within the timeout");
        }
        std::thread::sleep(Duration::from_millis(100));
    };

    // Phase 2: zero 1-copy-SI audit violations anywhere.
    for (addr, s) in nodes.iter().zip(&statuses) {
        if s.audit_violations != 0 {
            return fail(&format!("{addr}: {} audit violations", s.audit_violations));
        }
    }

    // Phase 3: identical contents on every node, balances conserved.
    let tables: Result<Vec<Vec<sirep_storage::Row>>, String> =
        nodes.iter().map(|a| read_table(a)).collect();
    let tables = match tables {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    for (addr, t) in nodes.iter().zip(&tables) {
        if t.len() != accounts as usize {
            return fail(&format!("{addr}: {} rows, expected {accounts}", t.len()));
        }
        if *t != tables[0] {
            return fail(&format!("{addr} diverges from {}", nodes[0]));
        }
    }
    let sum: i64 = tables[0]
        .iter()
        .map(|row| match row.get(1) {
            Some(sirep_storage::Value::Int(n)) => *n,
            _ => 0,
        })
        .sum();
    let expected = accounts as i64 * INITIAL_BALANCE;
    if sum != expected {
        return fail(&format!("balance sum {sum} != {expected}: transfers lost or duplicated"));
    }

    println!(
        "check ok: {} nodes converged at watermark {}, {} rows identical, sum {}",
        nodes.len(),
        statuses[0].last_validated,
        accounts,
        sum
    );
    0
}

// ---------------------------------------------------------------------------
// report / audit — cross-process observability (DESIGN.md §15)
// ---------------------------------------------------------------------------

fn split_telemetry(flags: &Flags) -> Result<Vec<String>, String> {
    let Some(list) = flags.get("telemetry") else {
        return Err("--telemetry <a,b,c> is required".into());
    };
    let out: Vec<String> =
        list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
    if out.is_empty() {
        Err("--telemetry is empty".into())
    } else {
        Ok(out)
    }
}

/// What one scraped ring could show the audit. `first_seq` is also how many
/// older events the ring had dropped (`seq` is dense from 0): a clean audit
/// vouches for `events`, not for those.
struct Coverage {
    replica: ReplicaId,
    first_seq: u64,
    events: usize,
}

impl Coverage {
    fn of(union: &[(ReplicaId, Vec<Event>)]) -> Vec<Coverage> {
        union
            .iter()
            .map(|(replica, events)| Coverage {
                replica: *replica,
                first_seq: events.first().map_or(0, |e| e.seq),
                events: events.len(),
            })
            .collect()
    }

    /// `(events audited, events not seen)` over all journals.
    fn totals(all: &[Coverage]) -> (usize, u64) {
        (all.iter().map(|c| c.events).sum(), all.iter().map(|c| c.first_seq).sum())
    }

    fn print(all: &[Coverage]) {
        for c in all {
            println!(
                "journal {}: first seq {}, {} events, {} dropped by the ring",
                c.replica, c.first_seq, c.events, c.first_seq
            );
        }
    }
}

/// Scrape journals from every node and audit the union. Restart journals
/// (same replica id twice) are separate entries and are audited as separate
/// streams; verdict agreement and first-committer-wins still span all of
/// them.
fn cmd_audit(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &[]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let addrs = match split_telemetry(&flags) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let mut union = Vec::new();
    for addr in &addrs {
        match scrape_journal(addr) {
            Ok(journals) => union.extend(journals),
            Err(e) => return fail(&format!("scraping {addr}: {e}")),
        }
    }
    let coverage = Coverage::of(&union);
    Coverage::print(&coverage);
    let (events, unseen) = Coverage::totals(&coverage);
    let violations = audit_scraped_journals(&union);
    if violations.is_empty() {
        println!(
            "audit clean over {events} events in {} journals; prefix of {unseen} events not seen",
            union.len()
        );
        0
    } else {
        for v in &violations {
            eprintln!("sirep-cluster: scraped-journal violation: {v}");
        }
        1
    }
}

/// One merged view of a live cluster: scrape every node's report, journal
/// and clock offset; write `<out>/report.json`, `<out>/report.prom` and a
/// single clock-aligned `<out>/trace.json` Perfetto trace.
fn cmd_report(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &[]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let addrs = match split_telemetry(&flags) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let Some(out_dir) = flags.get("out") else { return fail("report needs --out <dir>") };
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        return fail(&format!("creating {out_dir}: {e}"));
    }

    let mut merged: Option<ClusterReport> = None;
    let mut union = Vec::new();
    let mut offsets: Vec<(String, i64)> = Vec::new();
    for addr in &addrs {
        let report = match scrape_report(addr) {
            Ok(r) => r,
            Err(e) => return fail(&format!("scraping report from {addr}: {e}")),
        };
        merged = Some(match merged.take() {
            None => report,
            Some(mut m) => {
                m.absorb(report);
                m
            }
        });
        let offset_ns = match scrape_clock_offset(addr) {
            Ok(o) => o,
            Err(e) => return fail(&format!("clock probe via {addr}: {e}")),
        };
        offsets.push((addr.clone(), offset_ns));
        match scrape_journal(addr) {
            // Shift each journal into the sequencer's clock domain so one
            // trace file lines events from all processes up on one axis.
            Ok(journals) => {
                for (replica, mut events) in journals {
                    shift_events(&mut events, offset_ns);
                    union.push((replica, events));
                }
            }
            Err(e) => return fail(&format!("scraping journal from {addr}: {e}")),
        }
    }
    let merged = merged.expect("at least one telemetry addr");

    let scraped_violations = audit_scraped_journals(&union);
    let seq_stats = match flags.get("seq") {
        None => None,
        Some(seq) => match query_seq_stats(seq) {
            Ok(s) => Some(s),
            Err(e) => return fail(&format!("sequencer stats from {seq}: {e}")),
        },
    };

    let trace = perfetto_trace_json(&union);
    let prom = sirep_core::prometheus_text(&merged);
    let coverage = Coverage::of(&union);
    let json = report_json(&addrs, &merged, &offsets, &scraped_violations, &seq_stats, &coverage);
    for (name, text) in [("report.json", &json), ("trace.json", &trace)] {
        if let Err(e) = json_lint(text) {
            return fail(&format!("internal: {name} does not parse: {e}"));
        }
    }
    for (name, text) in
        [("report.json", json.as_str()), ("trace.json", trace.as_str()), ("report.prom", &prom)]
    {
        let path = format!("{out_dir}/{name}");
        if let Err(e) = std::fs::write(&path, format!("{text}\n")) {
            return fail(&format!("writing {path}: {e}"));
        }
    }

    Coverage::print(&coverage);
    let (events, unseen) = Coverage::totals(&coverage);
    println!(
        "report ok: {} nodes merged, {} journals ({events} events audited; prefix of {unseen} \
         events not seen), {} online + {} scraped-audit violations -> {out_dir}",
        addrs.len(),
        union.len(),
        merged.violations.len(),
        scraped_violations.len()
    );
    0
}

fn report_json(
    addrs: &[String],
    merged: &ClusterReport,
    offsets: &[(String, i64)],
    scraped: &[sirep_core::AuditViolation],
    seq: &Option<sirep_gcs::SeqStats>,
    coverage: &[Coverage],
) -> String {
    let mut out = String::from("{\"report\":\"cluster\"");
    out.push_str(&format!(",\"nodes\":{}", addrs.len()));

    out.push_str(",\"clock_offsets_ns\":[");
    for (i, (addr, off)) in offsets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"telemetry\":{},\"offset_ns\":{off}}}", json_string(addr)));
    }
    out.push(']');

    out.push_str(",\"counters\":{");
    for (i, (name, value)) in merged.metrics.counters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push('}');

    out.push_str(",\"transport\":{");
    for (i, (name, value)) in merged.transport.counters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    for (name, reading) in merged.transport.gauges() {
        out.push_str(&format!(
            ",\"{name}\":{},\"{name}_high_water\":{}",
            reading.current, reading.high_water
        ));
    }
    out.push('}');

    out.push_str(",\"journals\":[");
    for (i, c) in coverage.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"replica\":{},\"first_seq\":{},\"events\":{},\"dropped\":{}}}",
            c.replica.raw(),
            c.first_seq,
            c.events,
            c.first_seq
        ));
    }
    let (seen, unseen) = Coverage::totals(coverage);
    out.push_str(&format!("],\"journal_events\":{seen},\"journal_events_unseen\":{unseen}"));

    out.push_str(",\"online_violations\":[");
    for (i, v) in merged.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(&v.to_string()));
    }
    out.push(']');
    out.push_str(",\"scraped_audit_violations\":[");
    for (i, v) in scraped.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(&v.to_string()));
    }
    out.push(']');

    if let Some(s) = seq {
        let backlog: u64 = s.members.iter().map(|(_, depth)| *depth).sum();
        out.push_str(&format!(
            ",\"seq\":{{\"log_len\":{},\"next_seq\":{},\"view_id\":{},\"members\":{},\
             \"send_backlog\":{backlog}}}",
            s.log_len,
            s.next_seq,
            s.view_id,
            s.members.len()
        ));
    }

    out.push_str(",\"per_node\":[");
    for (i, n) in merged.per_node.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"replica\":{},\"alive\":{},\"queued\":{},\"pending_local\":{},\
             \"holes_open\":{}}}",
            n.replica.raw(),
            n.alive,
            n.queued,
            n.pending_local,
            n.holes_open
        ));
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON emit helper (dependency-free; `sirep_common::json_lint` is
// the matching validator)
// ---------------------------------------------------------------------------

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
