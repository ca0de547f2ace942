//! End-to-end failover tests for the §5.4 connection states, through the
//! public driver API. The client-visible cases run against both transports
//! — the in-process `Driver` and `RemoteDriver` over `NodeServer`s — on the
//! same sim cluster, and assert the same results: there is one failover
//! machine (`driver::failover`; `tests/failover_table.rs` has every cell).

use si_rep::common::wire::{read_frame, write_frame};
use si_rep::common::{AbortReason, CrashPoint, DbError};
use si_rep::core::{Cluster, ClusterConfig, Connection, InDoubt, Outcome, INQUIRE_DEADLINE};
use si_rep::driver::remote::{ClientReq, ClientResp};
use si_rep::driver::{
    Connector, Driver, DriverConfig, Failover, NodeServer, Policy, RemoteDriver, RemoteStatus,
};
use si_rep::sql::ExecResult;
use si_rep::storage::Value;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cluster(n: usize) -> Arc<Cluster> {
    let c = Arc::new(Cluster::new(ClusterConfig::builder().replicas(n).build()));
    c.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    c
}

/// What a test does with a connection, whichever transport it runs over.
trait Client {
    fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError>;
    fn commit(&mut self) -> Result<(), DbError>;
    fn set_autocommit(&mut self, on: bool) -> Result<(), DbError>;
    fn failovers(&self) -> usize;
}

impl<C: Connector> Client for Failover<'_, C> {
    fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError> {
        Failover::execute(self, sql)
    }
    fn commit(&mut self) -> Result<(), DbError> {
        Failover::commit(self)
    }
    fn set_autocommit(&mut self, on: bool) -> Result<(), DbError> {
        Failover::set_autocommit(self, on)
    }
    fn failovers(&self) -> usize {
        Failover::failovers(self)
    }
}

/// Run `case` twice, each time on a fresh `n`-replica cluster with a client
/// connected to replica 0: once in process, once over TCP.
fn on_both_transports(n: usize, case: impl Fn(&Arc<Cluster>, &mut dyn Client)) {
    let c = cluster(n);
    let d = Driver::new(Arc::clone(&c), DriverConfig::builder().policy(Policy::Primary).build());
    case(&c, &mut d.connect().unwrap());

    let c = cluster(n);
    let servers: Vec<NodeServer> =
        (0..n).map(|k| NodeServer::spawn("127.0.0.1:0", Arc::clone(&c), k).unwrap()).collect();
    let d = RemoteDriver::new(servers.iter().map(|s| s.addr().to_string()).collect());
    case(&c, &mut d.connect().unwrap());
}

/// `v` of row `key` as replica `k` has it.
fn value_at(c: &Cluster, k: usize, key: i64) -> Value {
    let mut s = c.session(k);
    let r = s.execute(&format!("SELECT v FROM kv WHERE k = {key}")).unwrap();
    s.commit().unwrap();
    r.rows()[0][0].clone()
}

#[test]
fn case3_commit_submitted_resolved_as_committed() {
    // The commit reached the middleware, was multicast (uniform delivery!),
    // and the replica crashed before answering the client. The driver must
    // resolve the in-doubt transaction to COMMITTED at the new replica —
    // the fully transparent case the paper highlights.
    let c = cluster(3);
    // Use a session directly so we can control the crash point: commit,
    // let the writeset replicate, then crash before the client "hears" it.
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (1, 1)").unwrap();
    let xact = s.xact_id().unwrap();
    s.commit().unwrap(); // writeset delivered everywhere
    assert!(c.quiesce(Duration::from_secs(5)));
    c.crash(0);
    // A failed-over driver would now inquire; do what it does.
    let outcome = c.node(1).inquire(xact).unwrap();
    assert_eq!(outcome, InDoubt::Known(Outcome::Committed));
    // And the data is there.
    let mut s1 = c.session(1);
    let r = s1.execute("SELECT v FROM kv WHERE k = 1").unwrap();
    assert_eq!(r.rows().len(), 1);
    s1.commit().unwrap();
}

#[test]
fn case3_never_received_resolved_as_aborted() {
    let c = cluster(2);
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (2, 2)").unwrap();
    let xact = s.xact_id().unwrap();
    // Crash before the commit request: no writeset ever multicast.
    c.crash(0);
    assert!(matches!(s.commit(), Err(DbError::Aborted(_))));
    assert_eq!(c.node(1).inquire(xact).unwrap(), InDoubt::NeverReceived);
    // Nothing leaked to the survivor.
    let mut s1 = c.session(1);
    let r = s1.execute("SELECT v FROM kv WHERE k = 2").unwrap();
    assert!(r.rows().is_empty());
    s1.commit().unwrap();
}

#[test]
fn inquiry_for_a_live_origin_waits_instead_of_declaring_never_received() {
    // Regression test: group formation delivers the view changes one join
    // at a time ([R0], [R0,R1], [R0,R1,R2]), and the departure bookkeeping
    // must not read the not-yet-joined replicas as crashed incarnations.
    // It once did — every replica permanently held (later_replica, 0) in
    // its departed set, so an in-doubt inquiry that raced ahead of the
    // writeset's delivery answered NeverReceived for a transaction that
    // then committed everywhere: an acknowledged-lost commit.
    let c = cluster(3);
    let mut s = c.session(2);
    s.execute("INSERT INTO kv VALUES (5, 5)").unwrap();
    let xact = s.xact_id().unwrap();
    // Inquire at another replica *before* the writeset exists. The origin
    // is alive, so the only correct behaviour is to wait for the outcome.
    let inquirer = {
        let n = c.node(1);
        std::thread::spawn(move || n.inquire(xact))
    };
    std::thread::sleep(Duration::from_millis(50));
    s.commit().unwrap();
    assert_eq!(inquirer.join().unwrap().unwrap(), InDoubt::Known(Outcome::Committed));
}

#[test]
fn back_to_back_crashes_of_one_replica_name_the_incarnation_that_left() {
    // Crash R0, recover it, crash it again with no other view in between:
    // the survivors must know it was incarnation 1 that left the second
    // time (they read it off the views), and that incarnation 2 has not.
    let c = cluster(3);
    c.crash(0);
    c.recover(0).unwrap();
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (7, 7)").unwrap();
    let lost = s.xact_id().unwrap();
    assert_eq!(lost.incarnation(), 1);
    c.crash(0); // before the commit request: never multicast
    assert!(matches!(s.commit(), Err(DbError::Aborted(_))));
    for k in [1, 2] {
        let asked = Instant::now();
        assert_eq!(c.node(k).inquire(lost).unwrap(), InDoubt::NeverReceived, "survivor {k}");
        assert!(asked.elapsed() < INQUIRE_DEADLINE, "survivor {k} took {:?}", asked.elapsed());
    }

    c.recover(0).unwrap();
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (8, 8)").unwrap();
    let live = s.xact_id().unwrap();
    assert_eq!(live.incarnation(), 2);
    // Not multicast yet, origin incarnation alive: nobody may call it lost.
    // The survivors wait out their bound and say they cannot tell.
    let asked = Instant::now();
    let inquirers: Vec<_> = [1, 2]
        .map(|k| {
            let n = c.node(k);
            std::thread::spawn(move || n.inquire(live))
        })
        .into();
    for inquirer in inquirers {
        assert_eq!(inquirer.join().unwrap().unwrap(), InDoubt::Unknown);
    }
    let took = asked.elapsed();
    assert!(took >= INQUIRE_DEADLINE && took < INQUIRE_DEADLINE * 2, "took {took:?}");
    s.commit().unwrap();
    assert!(c.quiesce(Duration::from_secs(5)));
    for k in [1, 2] {
        assert_eq!(c.node(k).inquire(live).unwrap(), InDoubt::Known(Outcome::Committed));
    }
}

/// R0 multicasts a commit and dies before acknowledging it while the
/// replicas in `cut_off` are partitioned away: they have seen neither the
/// writeset nor the crash view, so all they can answer is `Unknown`.
fn in_doubt_commit_with_survivors_cut_off(
    cut_off: &[usize],
    attempts: usize,
) -> Result<(), DbError> {
    let c = cluster(3);
    let cfg = DriverConfig::builder().policy(Policy::Primary).inquiry_attempts(attempts).build();
    let d = Driver::new(Arc::clone(&c), cfg);
    let mut conn = d.connect().unwrap();
    conn.execute("INSERT INTO kv VALUES (30, 1)").unwrap();
    c.partition(cut_off);
    c.arm_crash_point(CrashPoint::AfterMulticastBeforeLocalCommit, 0);
    let asked = Instant::now();
    let resolved = conn.commit();
    assert!(asked.elapsed() >= INQUIRE_DEADLINE, "nobody waited out the bound");
    c.heal_partition();
    assert!(c.quiesce(Duration::from_secs(5)));
    for k in c.alive() {
        assert_eq!(k.database().table_len("kv"), 1, "the writeset was delivered uniformly");
    }
    resolved
}

#[test]
fn an_inquiry_nobody_can_answer_moves_on_to_the_next_survivor() {
    // R1 (the primary's successor) cannot tell within its bound; R2 can.
    in_doubt_commit_with_survivors_cut_off(&[1], 2).unwrap();
}

#[test]
fn an_inquiry_no_survivor_can_answer_ends_unavailable() {
    let e = in_doubt_commit_with_survivors_cut_off(&[1, 2], 1).unwrap_err();
    assert_eq!(e, DbError::Unavailable);
}

#[test]
fn driver_masks_crash_between_transactions() {
    on_both_transports(3, |c, conn| {
        conn.execute("INSERT INTO kv VALUES (10, 1)").unwrap();
        conn.commit().unwrap();
        assert!(c.quiesce(Duration::from_secs(5)));
        c.crash(0);
        // §5.4 case 1: between transactions the failover is invisible — the
        // statement's own result comes back.
        let r = conn.execute("SELECT v FROM kv WHERE k = 10").unwrap();
        assert_eq!(r.rows().len(), 1);
        conn.commit().unwrap();
        assert_eq!(conn.failovers(), 1);
    });
}

#[test]
fn driver_reports_lost_transaction_and_recovers() {
    on_both_transports(3, |c, conn| {
        conn.execute("INSERT INTO kv VALUES (20, 1)").unwrap(); // txn open
        c.crash(0);
        // §5.4 case 2: the open transaction is lost; the error is retryable.
        let err = conn.execute("INSERT INTO kv VALUES (21, 1)").unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::ReplicaCrashed));
        assert_eq!(conn.failovers(), 1);
        // Retry the whole transaction on the failed-over connection.
        conn.execute("INSERT INTO kv VALUES (20, 1)").unwrap();
        conn.execute("INSERT INTO kv VALUES (21, 1)").unwrap();
        conn.commit().unwrap();
        assert!(c.quiesce(Duration::from_secs(5)));
        for k in c.alive() {
            assert_eq!(k.database().table_len("kv"), 2);
        }
    });
}

#[test]
fn a_commit_multicast_by_a_dying_replica_resolves_to_committed() {
    on_both_transports(3, |c, conn| {
        conn.execute("INSERT INTO kv VALUES (40, 1)").unwrap();
        // §5.4 case 3: the writeset is on the wire, the origin dies before
        // it acknowledges. A survivor knows the outcome: fully transparent.
        c.arm_crash_point(CrashPoint::AfterMulticastBeforeLocalCommit, 0);
        assert_eq!(conn.commit(), Ok(()));
        assert_eq!(conn.failovers(), 1);
        assert!(c.quiesce(Duration::from_secs(5)));
        for k in c.alive() {
            assert_eq!(k.database().table_len("kv"), 1);
        }
    });
}

#[test]
fn a_commit_never_multicast_resolves_to_a_retryable_abort() {
    on_both_transports(3, |c, conn| {
        conn.execute("INSERT INTO kv VALUES (50, 1)").unwrap();
        c.crash(0);
        // Case 3 again, but the origin died before the multicast: uniform
        // delivery guarantees the transaction committed nowhere.
        assert_eq!(conn.commit(), Err(DbError::Aborted(AbortReason::ReplicaCrashed)));
        assert!(c.quiesce(Duration::from_secs(5)));
        for k in c.alive() {
            assert_eq!(k.database().table_len("kv"), 0);
        }
    });
}

/// Case 3 in autocommit clothing: the implicit commit runs inside the
/// statement, so the node's crash-shaped *error reply* may follow a
/// multicast. The driver resolves the statement's transaction by id; a
/// caller that blindly retries retryable errors (`with_retries` in
/// `sirep-cluster`, the benchmark's loop) must not get to apply it twice.
#[test]
fn an_in_doubt_autocommit_statement_is_applied_exactly_once_despite_a_blind_retry() {
    on_both_transports(3, |c, conn| {
        conn.set_autocommit(true).unwrap();
        conn.execute("INSERT INTO kv VALUES (1, 1)").unwrap();
        assert!(c.quiesce(Duration::from_secs(5)));
        c.arm_crash_point(CrashPoint::AfterMulticastBeforeLocalCommit, 0);
        let update = "UPDATE kv SET v = v + 1 WHERE k = 1";
        let first = conn.execute(update);
        if matches!(&first, Err(DbError::Aborted(reason)) if reason.is_retryable()) {
            conn.execute(update).unwrap();
        }
        // The origin died with the row count; zero stands in for it.
        assert_eq!(first, Ok(ExecResult::Affected(0)));
        assert_eq!(conn.failovers(), 1);
        assert!(c.quiesce(Duration::from_secs(5)));
        for k in 1..3 {
            assert_eq!(value_at(c, k, 1), Value::Int(2), "replica {k}");
        }
        assert!(c.audit_is_clean());
    });
}

#[test]
fn an_in_doubt_commit_with_every_replica_down_ends_unavailable_not_in_a_hang() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        on_both_transports(2, |c, conn| {
            conn.execute("INSERT INTO kv VALUES (9, 9)").unwrap();
            c.crash(1);
            c.arm_crash_point(CrashPoint::AfterMulticastBeforeLocalCommit, 0);
            assert_eq!(conn.commit(), Err(DbError::Unavailable));
        });
        done_tx.send(()).unwrap();
    });
    done_rx.recv_timeout(Duration::from_secs(30)).expect("the driver gave up inside the watchdog");
}

/// The one cell where the transports differ (`driver::failover` module
/// docs): only a TCP link can break before the reply to an autocommit
/// statement arrives, and then there is no transaction id to ask about.
#[test]
fn an_autocommit_statement_whose_link_dies_before_the_reply_is_in_doubt() {
    // A node that says it is alive, takes the autocommit mode, reads the
    // statement and dies.
    let dying = TcpListener::bind("127.0.0.1:0").unwrap();
    let dying_addr = dying.local_addr().unwrap().to_string();
    let node = std::thread::spawn(move || {
        let (mut stream, _) = dying.accept().unwrap();
        let alive = RemoteStatus {
            replica: 7,
            alive: true,
            last_validated: 0,
            queued: 0,
            pending_local: 0,
            commits: 0,
            audit_violations: 0,
        };
        for reply in [ClientResp::Status(alive), ClientResp::Done] {
            let _: ClientReq = read_frame(&mut stream).unwrap();
            write_frame(&mut stream, &reply).unwrap();
        }
        let statement: ClientReq = read_frame(&mut stream).unwrap();
        assert!(matches!(statement, ClientReq::Exec { .. }));
    });
    let c = cluster(1);
    let survivor = NodeServer::spawn("127.0.0.1:0", Arc::clone(&c), 0).unwrap();
    let d = RemoteDriver::new(vec![dying_addr, survivor.addr().to_string()]);
    let mut conn = d.connect().unwrap();
    conn.set_autocommit(true).unwrap();
    let r = conn.execute("INSERT INTO kv VALUES (1, 1)");
    assert_eq!(r, Err(DbError::ConnectionLost { in_doubt: true }));
    node.join().unwrap();
    // The connection moved on, and the survivor never saw the statement.
    assert_eq!((conn.failovers(), conn.addr()), (1, survivor.addr().to_string().as_str()));
    assert_eq!(conn.execute("INSERT INTO kv VALUES (1, 1)"), Ok(ExecResult::Affected(1)));
}

#[test]
fn sequential_crashes_until_one_replica_left() {
    let c = cluster(3);
    let d = Driver::new(Arc::clone(&c), DriverConfig::default());
    let mut conn = d.connect().unwrap();
    for round in 0..2 {
        conn.execute(&format!("INSERT INTO kv VALUES ({round}, 0)"))
            .or_else(|e| {
                assert!(matches!(e, DbError::Aborted(AbortReason::ReplicaCrashed)));
                conn.execute(&format!("INSERT INTO kv VALUES ({round}, 0)"))
            })
            .unwrap();
        conn.commit().unwrap();
        assert!(c.quiesce(Duration::from_secs(5)));
        let victim = conn.replica();
        c.crash(victim.index());
    }
    // One replica left; it has everything.
    let survivors = c.alive();
    assert_eq!(survivors.len(), 1);
    assert_eq!(survivors[0].database().table_len("kv"), 2);
}
