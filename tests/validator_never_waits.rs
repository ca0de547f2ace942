//! §4.2 on a `ReplicaNode`: the delivery thread certifies, so it must never
//! wait in the database — that wait is the hidden deadlock. It applies a
//! ready remote writeset itself only while no tuple lock stands in the way.
//! A local transaction holding one sends the writeset to an applier, which
//! waits in the database instead, and delivery goes on. (tests/
//! hidden_deadlock.rs shows the deadlock itself on Fig. 1's `Srca`, and its
//! resolution on a `Cluster` in both `SrcaOpt` and `SrcaRep`.)

use si_rep::common::{AbortReason, DbError, Metrics};
use si_rep::core::{Cluster, ClusterConfig, Connection};
use si_rep::storage::Key;
use std::thread;
use std::time::{Duration, Instant};

const Q: Duration = Duration::from_secs(20);

/// Replica `replica`'s committed `v` of row `k`, read from its database
/// directly: a session's begin would wait for the hole this test opens.
fn committed_v(c: &Cluster, replica: usize, k: i64) -> i64 {
    let txn = c.node(replica).database().begin().unwrap();
    let row = txn.read("kv", &Key::single(k)).unwrap().expect("the row exists");
    txn.commit().unwrap();
    row[1].as_int().unwrap()
}

/// Poll `done` until it holds, failing with `what` after `Q`.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Q;
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_remote_writeset_behind_a_local_lock_waits_in_an_applier_not_in_delivery() {
    let schema = "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))";
    let c = Cluster::new(ClusterConfig::builder().replicas(2).schema(schema).build());
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (1, 0)").unwrap(); // x
    s.execute("INSERT INTO kv VALUES (2, 0)").unwrap(); // y
    s.commit().unwrap();
    assert!(c.quiesce(Q));

    // A local transaction at R1 holds x's tuple lock and is not certified.
    let mut local = c.session(1);
    local.execute("UPDATE kv SET v = 10 WHERE k = 1").unwrap();

    // A remote writeset on x is certified at R1 first, then one on y.
    let mut remote = c.session(0);
    remote.execute("UPDATE kv SET v = 20 WHERE k = 1").unwrap();
    remote.commit().unwrap();
    remote.execute("UPDATE kv SET v = 30 WHERE k = 2").unwrap();
    remote.commit().unwrap();

    // R1 certifies and commits y while x's apply is parked in an applier
    // behind the local: the delivery thread did not wait for x's lock.
    eventually("R1's delivery thread waited behind the local's lock", || {
        committed_v(&c, 1, 2) == 30
    });
    eventually("no applier took x's writeset", || c.node(1).database().active_txns() == 2);
    assert_eq!(committed_v(&c, 1, 1), 0, "x's apply went past the local's lock");
    assert_eq!(c.node(1).queue_len(), 1, "x's writeset is still queued at R1");
    assert!(c.node(1).status().holes_open, "y committed ahead of x");
    let handed_over = Metrics::get(&c.node(1).metrics.ws_apply_retries);
    assert_eq!(handed_over, 1, "the delivery thread tried x and handed it over once");

    // The local fails validation against the queued x, which frees the lock.
    let verdict = local.commit();
    assert_eq!(verdict, Err(DbError::Aborted(AbortReason::ValidationFailure)));
    assert!(c.quiesce(Q));
    for k in 0..2 {
        assert_eq!([1, 2].map(|row| committed_v(&c, k, row)), [20, 30], "replica {k}");
    }
    assert!(c.audit_is_clean(), "{:?}", c.audit_violations());
}
