//! Reproduces §4.2's **hidden deadlock** — the cycle spanning the
//! middleware queue and the database lock table that plain SRCA (Fig. 1)
//! suffers from — and shows that adjustment 2 (concurrent commits), as the
//! shipped `ReplicaNode` implements it with and without adjustment 3,
//! resolves it.
//!
//! The construction (2 replicas, keys x and y initialized everywhere):
//!
//! 1. `T_j` local at R0 updates `y` → holds y's tuple lock at R0;
//! 2. `T_r` local at R1 updates `y`, commits → validated, queued at R0;
//!    R0's applier starts applying `WS_r = {y}` and blocks behind `T_j`;
//! 3. `T_i` local at R0 updates `x`, requests commit → validation passes
//!    (disjoint from `T_r`), queued at R0 *behind* `T_r`. With the serial
//!    queue, `T_i`'s commit now waits for `T_r`;
//! 4. `T_j` updates `x` → blocks behind `T_i` inside the database.
//!
//! Database wait graph: `T_j → T_i`, `T_r → T_j` — no cycle. Middleware:
//! `T_i → T_r`. Together: `T_i → T_r → T_j → T_i`. Stuck.

use si_rep::core::srca::Srca;
use si_rep::core::{Cluster, ClusterConfig, Connection, ReplicationMode};
use si_rep::storage::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const SCHEMA: &str = "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))";

/// Load x = 1 and y = 2 through replica 0.
fn load<C: Connection>(mut s: C) {
    s.execute("INSERT INTO kv VALUES (1, 0)").unwrap(); // x
    s.execute("INSERT INTO kv VALUES (2, 0)").unwrap(); // y
    s.commit().unwrap();
}

/// Drive the §4.2 interleaving over sessions `session(k)` pinned to
/// replica `k`. Returns whether all participants terminated within the
/// budget.
fn drive<C: Connection + 'static>(session: impl Fn(usize) -> C) -> bool {
    // 1. T_j at R0 holds y.
    let mut tj = session(0);
    tj.execute("UPDATE kv SET v = 10 WHERE k = 2").unwrap();

    // 2. T_r at R1 updates y and commits; its writeset queues at R0 and
    //    blocks behind T_j inside the database.
    let mut tr = session(1);
    tr.execute("UPDATE kv SET v = 20 WHERE k = 2").unwrap();
    tr.commit().unwrap();
    // Give R0's applier time to start applying WS_r and block.
    thread::sleep(Duration::from_millis(150));

    // 3. T_i at R0 updates x and requests commit (validation passes; queued
    //    behind T_r in R0's queue).
    let ti_done = Arc::new(AtomicBool::new(false));
    let ti_handle = {
        let ti_done = Arc::clone(&ti_done);
        let mut ti = session(0);
        thread::spawn(move || {
            ti.execute("UPDATE kv SET v = 30 WHERE k = 1").unwrap();
            let r = ti.commit();
            ti_done.store(true, Ordering::SeqCst);
            r
        })
    };
    thread::sleep(Duration::from_millis(150));

    // 4. T_j requests x → blocks behind T_i inside the database (or, with
    //    adjustment 2, T_i has already committed and T_j aborts on the
    //    version check).
    let tj_done = Arc::new(AtomicBool::new(false));
    let tj_handle = {
        let tj_done = Arc::clone(&tj_done);
        thread::spawn(move || {
            let r = tj.execute("UPDATE kv SET v = 40 WHERE k = 1");
            let c = match r {
                Ok(_) => tj.commit(),
                Err(e) => Err(e),
            };
            tj_done.store(true, Ordering::SeqCst);
            c
        })
    };

    // Wait and see whether the system makes progress.
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while std::time::Instant::now() < deadline {
        if ti_done.load(Ordering::SeqCst) && tj_done.load(Ordering::SeqCst) {
            let _ = ti_handle.join();
            let _ = tj_handle.join();
            return true;
        }
        thread::sleep(Duration::from_millis(20));
    }
    // Leak the stuck threads; the caller shuts the system down, which wakes
    // them with Shutdown errors.
    std::thread::spawn(move || {
        let _ = ti_handle.join();
        let _ = tj_handle.join();
    });
    false
}

#[test]
fn serial_srca_exhibits_the_hidden_deadlock() {
    let sys = Srca::new(2);
    sys.execute_ddl(SCHEMA).unwrap();
    load(sys.session(0));
    assert!(sys.quiesce(Duration::from_secs(5)));
    let completed = drive(|k| sys.session(k));
    assert!(!completed, "Fig. 1 SRCA with serial queues should stall on the §4.2 construction");
    // The queues are stuck too.
    assert!(!sys.quiesce(Duration::from_millis(500)));
    sys.shutdown();
}

/// Run the construction on a 2-replica `Cluster` in `mode` and check that it
/// completes, that both replicas agree on y, and that the audit is clean.
fn replica_nodes_resolve_the_hidden_deadlock(mode: ReplicationMode) {
    let cfg = ClusterConfig::builder().replicas(2).mode(mode).schema(SCHEMA).build();
    let c = Cluster::new(cfg);
    load(c.session(0));
    assert!(c.quiesce(Duration::from_secs(5)), "{mode:?}: load did not drain");
    assert!(drive(|k| c.session(k)), "{mode:?}: adjustment 2 must break the cycle");
    assert!(c.quiesce(Duration::from_secs(5)), "{mode:?}: queues did not drain");
    for k in 0..2 {
        let mut s = c.session(k);
        let r = s.execute("SELECT v FROM kv WHERE k = 2").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(20), "{mode:?}: replica {k} diverged on y");
        s.commit().unwrap();
    }
    assert!(c.audit_is_clean(), "{mode:?}: {:?}", c.audit_violations());
}

/// Adjustments 1+2: concurrent commits of non-conflicting writesets.
#[test]
fn concurrent_commit_resolves_the_hidden_deadlock() {
    replica_nodes_resolve_the_hidden_deadlock(ReplicationMode::SrcaOpt);
}

/// Adjustments 1+2+3: hole synchronization on top of concurrent commits.
#[test]
fn hole_sync_also_resolves_it() {
    replica_nodes_resolve_the_hidden_deadlock(ReplicationMode::SrcaRep);
}
