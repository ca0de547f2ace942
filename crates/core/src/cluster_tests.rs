//! Behavioural tests for the SRCA-Rep cluster.

use crate::cluster::{Cluster, ClusterConfig};
use crate::model::check_one_copy_si;
use crate::msg::Outcome;
use crate::node::ReplicationMode;
use crate::replica::InDoubt;
use crate::session::Connection;
use sirep_common::{AbortReason, DbError};
use sirep_storage::Value;
use std::time::Duration;

const Q: Duration = Duration::from_secs(10);

fn kv_cluster(n: usize) -> Cluster {
    let c = Cluster::new(ClusterConfig::builder().replicas(n).build());
    c.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    c
}

fn get(c: &Cluster, node: usize, k: i64) -> Option<i64> {
    let mut s = c.session(node);
    let r = s.execute(&format!("SELECT v FROM kv WHERE k = {k}")).unwrap();
    let out = r.rows().first().map(|row| row[0].as_int().unwrap());
    s.commit().unwrap();
    out
}

#[test]
fn update_propagates_to_all_replicas() {
    let c = kv_cluster(3);
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
    s.commit().unwrap();
    assert!(c.quiesce(Q));
    for k in 0..3 {
        assert_eq!(get(&c, k, 1), Some(10), "replica {k} missing the write");
    }
    let m = c.metrics();
    assert_eq!(sirep_common::Metrics::get(&m.commits_update), 1);
    // The writeset was delivered at all 3 replicas.
    assert_eq!(sirep_common::Metrics::get(&m.ws_delivered), 3);
}

#[test]
fn readonly_transactions_do_not_coordinate() {
    let c = kv_cluster(2);
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
    s.commit().unwrap();
    c.quiesce(Q);
    let delivered_before = sirep_common::Metrics::get(&c.metrics().ws_delivered);
    let mut r = c.session(1);
    let res = r.execute("SELECT v FROM kv WHERE k = 1").unwrap();
    assert_eq!(res.rows()[0][0], Value::Int(10));
    r.commit().unwrap();
    let m = c.metrics();
    assert_eq!(sirep_common::Metrics::get(&m.ws_delivered), delivered_before);
    assert_eq!(sirep_common::Metrics::get(&m.commits_readonly), 1);
}

#[test]
fn concurrent_conflicting_updates_one_aborts() {
    let c = kv_cluster(2);
    let mut setup = c.session(0);
    setup.execute("INSERT INTO kv VALUES (1, 0)").unwrap();
    setup.commit().unwrap();
    assert!(c.quiesce(Q));

    let mut a = c.session(0);
    let mut b = c.session(1);
    a.execute("UPDATE kv SET v = 1 WHERE k = 1").unwrap();
    b.execute("UPDATE kv SET v = 2 WHERE k = 1").unwrap();
    // Both executed on their snapshots at different replicas; certification
    // lets exactly one through.
    let ra = a.commit();
    let rb = b.commit();
    assert!(
        ra.is_ok() ^ rb.is_ok(),
        "exactly one of two conflicting transactions must commit: {ra:?} / {rb:?}"
    );
    assert!(c.quiesce(Q));
    let winner = if ra.is_ok() { 1 } else { 2 };
    for k in 0..2 {
        assert_eq!(get(&c, k, 1), Some(winner));
    }
    let m = c.metrics();
    assert_eq!(m.forced_aborts(), 1);
}

#[test]
fn disjoint_concurrent_updates_both_commit() {
    let c = kv_cluster(2);
    let mut a = c.session(0);
    let mut b = c.session(1);
    a.execute("INSERT INTO kv VALUES (1, 1)").unwrap();
    b.execute("INSERT INTO kv VALUES (2, 2)").unwrap();
    a.commit().unwrap();
    b.commit().unwrap();
    assert!(c.quiesce(Q));
    for k in 0..2 {
        assert_eq!(get(&c, k, 1), Some(1));
        assert_eq!(get(&c, k, 2), Some(2));
    }
}

#[test]
fn client_reads_its_own_writes() {
    let c = kv_cluster(3);
    let mut s = c.session(1);
    s.execute("INSERT INTO kv VALUES (7, 70)").unwrap();
    s.commit().unwrap();
    // Immediately visible at the same replica (committed locally before the
    // commit call returned).
    assert_eq!(get(&c, 1, 7), Some(70));
}

#[test]
fn rollback_discards_everywhere() {
    let c = kv_cluster(2);
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (5, 50)").unwrap();
    s.rollback();
    assert!(c.quiesce(Q));
    for k in 0..2 {
        assert_eq!(get(&c, k, 5), None);
    }
    // No writeset was ever multicast.
    assert_eq!(sirep_common::Metrics::get(&c.metrics().ws_delivered), 0);
}

#[test]
fn many_writers_converge_identically() {
    let c = std::sync::Arc::new(kv_cluster(3));
    let mut handles = Vec::new();
    for node in 0..3 {
        let c2 = std::sync::Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut s = c2.session(node);
            let mut commits = 0;
            for i in 0..40 {
                let key = (node as i64) * 1000 + i; // disjoint keys
                s.execute(&format!("INSERT INTO kv VALUES ({key}, {i})")).unwrap();
                if s.commit().is_ok() {
                    commits += 1;
                }
            }
            commits
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 120);
    assert!(c.quiesce(Q));
    for k in 0..3 {
        assert_eq!(c.node(k).database().table_len("kv"), 120, "replica {k} diverged");
    }
    // All replicas validated the same number of writesets.
    let lv0 = c.node(0).last_validated();
    assert_eq!(lv0.raw(), 120);
    for k in 1..3 {
        assert_eq!(c.node(k).last_validated(), lv0);
    }
}

#[test]
fn contended_counter_full_cluster() {
    let c = std::sync::Arc::new(kv_cluster(3));
    {
        let mut s = c.session(0);
        s.execute("INSERT INTO kv VALUES (1, 0)").unwrap();
        s.commit().unwrap();
    }
    assert!(c.quiesce(Q));
    let mut handles = Vec::new();
    for node in 0..3 {
        let c2 = std::sync::Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut s = c2.session(node);
            let mut done = 0;
            while done < 20 {
                let r = s.execute("UPDATE kv SET v = v + 1 WHERE k = 1").and_then(|_| s.commit());
                if r.is_ok() {
                    done += 1;
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(c.quiesce(Q));
    for k in 0..3 {
        assert_eq!(get(&c, k, 1), Some(60), "replica {k} lost increments");
    }
}

#[test]
fn crash_surfaces_to_clients_and_survivors_continue() {
    let c = kv_cluster(3);
    let mut s0 = c.session(0);
    s0.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
    s0.commit().unwrap();
    assert!(c.quiesce(Q));

    c.crash(0);
    // The crashed replica's sessions fail.
    let err = s0.execute("SELECT v FROM kv WHERE k = 1").unwrap_err();
    assert!(matches!(err, DbError::Aborted(_)), "got {err:?}");
    // Survivors keep working.
    let mut s1 = c.session(1);
    s1.execute("UPDATE kv SET v = 11 WHERE k = 1").unwrap();
    s1.commit().unwrap();
    assert!(c.quiesce(Q));
    assert_eq!(get(&c, 1, 1), Some(11));
    assert_eq!(get(&c, 2, 1), Some(11));
    assert_eq!(c.alive().len(), 2);
}

#[test]
fn indoubt_resolution_committed_transaction() {
    let c = kv_cluster(3);
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (9, 90)").unwrap();
    let xact = s.xact_id().expect("in transaction");
    s.commit().unwrap();
    assert!(c.quiesce(Q));
    c.crash(0);
    // Fail over to replica 1 and ask about the in-doubt transaction: the
    // writeset was received (uniform delivery), so the answer is Committed.
    let r = c.node(1).inquire(xact).unwrap();
    assert_eq!(r, InDoubt::Known(Outcome::Committed));
}

#[test]
fn indoubt_resolution_never_received() {
    let c = kv_cluster(2);
    // A transaction id from replica 0 whose writeset was never multicast.
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (1, 1)").unwrap();
    let xact = s.xact_id().unwrap();
    // Crash before commit: the writeset never existed.
    c.crash(0);
    assert!(s.commit().is_err());
    let r = c.node(1).inquire(xact).unwrap();
    assert_eq!(r, InDoubt::NeverReceived, "uniform delivery: never arrived → aborted");
}

#[test]
fn validation_failure_reported_as_retryable() {
    let c = kv_cluster(2);
    {
        let mut s = c.session(0);
        s.execute("INSERT INTO kv VALUES (1, 0)").unwrap();
        s.commit().unwrap();
    }
    assert!(c.quiesce(Q));
    let mut a = c.session(0);
    let mut b = c.session(1);
    a.execute("UPDATE kv SET v = 1 WHERE k = 1").unwrap();
    b.execute("UPDATE kv SET v = 2 WHERE k = 1").unwrap();
    let ra = a.commit();
    let rb = b.commit();
    let err = match (ra, rb) {
        (Err(e), Ok(())) | (Ok(()), Err(e)) => e,
        other => panic!("expected one failure: {other:?}"),
    };
    match err {
        DbError::Aborted(reason) => assert!(reason.is_retryable()),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn srca_opt_mode_still_replicates() {
    let cfg = ClusterConfig::builder().replicas(3).mode(ReplicationMode::SrcaOpt).build();
    let c = Cluster::new(cfg);
    c.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    let mut s = c.session(2);
    s.execute("INSERT INTO kv VALUES (1, 1)").unwrap();
    s.commit().unwrap();
    assert!(c.quiesce(Q));
    for k in 0..3 {
        assert_eq!(get(&c, k, 1), Some(1));
    }
}

#[test]
fn history_checker_passes_on_real_execution() {
    let cfg = ClusterConfig::builder().replicas(3).track_history(true).build();
    let c = std::sync::Arc::new(Cluster::new(cfg));
    c.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    {
        let mut s = c.session(0);
        for k in 0..10 {
            s.execute(&format!("INSERT INTO kv VALUES ({k}, 0)")).unwrap();
        }
        s.commit().unwrap();
    }
    assert!(c.quiesce(Q));
    // Concurrent mixed workload: updates + read-only sum transactions.
    let mut handles = Vec::new();
    for node in 0..3 {
        let c2 = std::sync::Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut s = c2.session(node);
            for i in 0..30 {
                if i % 3 == 0 {
                    let _ = s.execute("SELECT v FROM kv WHERE k = 2");
                    let _ = s.execute("SELECT v FROM kv WHERE k = 3");
                    let _ = s.commit();
                } else {
                    let k = (node + i) % 10;
                    let _ = s.execute(&format!("UPDATE kv SET v = v + 1 WHERE k = {k}"));
                    let _ = s.commit();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(c.quiesce(Q));
    let (specs, exec) = c.collect_history().expect("a whole history");
    assert!(!specs.is_empty());
    let witness = check_one_copy_si(&specs, &exec)
        .unwrap_or_else(|v| panic!("1-copy-SI violated by SRCA-Rep: {v}"));
    assert_eq!(witness.len(), 2 * specs.len());
}

#[test]
fn autocommit_mode_commits_each_statement() {
    let c = kv_cluster(2);
    let mut s = c.session(0);
    s.set_autocommit(true).unwrap();
    s.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
    assert!(!s.in_transaction(), "autocommit leaves no open transaction");
    // Already replicating without an explicit commit call.
    assert!(c.quiesce(Q));
    assert_eq!(get(&c, 1, 1), Some(10));
    // Turning autocommit on mid-transaction commits the open work first.
    s.set_autocommit(false).unwrap();
    s.execute("INSERT INTO kv VALUES (2, 20)").unwrap();
    assert!(s.in_transaction());
    s.set_autocommit(true).unwrap();
    assert!(!s.in_transaction());
    assert!(c.quiesce(Q));
    assert_eq!(get(&c, 1, 2), Some(20));
}

#[test]
fn abort_reasons_surface_from_local_db_conflicts() {
    // Two sessions at the SAME replica conflicting → the database's
    // first-updater-wins kicks in (not middleware validation).
    let c = kv_cluster(1);
    {
        let mut s = c.session(0);
        s.execute("INSERT INTO kv VALUES (1, 0)").unwrap();
        s.commit().unwrap();
    }
    let mut a = c.session(0);
    let mut b = c.session(0);
    // Start b's snapshot before a commits so the two are concurrent.
    b.execute("SELECT v FROM kv WHERE k = 1").unwrap();
    a.execute("UPDATE kv SET v = 1 WHERE k = 1").unwrap();
    a.commit().unwrap();
    assert!(c.quiesce(Q));
    let err = b.execute("UPDATE kv SET v = 2 WHERE k = 1").unwrap_err();
    assert_eq!(err, DbError::Aborted(AbortReason::SerializationFailure));
}
