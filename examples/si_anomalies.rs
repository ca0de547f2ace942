//! Snapshot-isolation semantics, end to end:
//!
//! 1. **lost updates are prevented** — two concurrent increments of the
//!    same row at different replicas: one commits, one aborts
//!    (first-committer-wins certification);
//! 2. **write skew is allowed** — SI, not serializability, exactly as the
//!    paper's Definition 1 permits;
//! 3. the execution, as the replicas' journals record it, passes the
//!    **1-copy-SI checker** built from the paper's Definition 3 /
//!    Theorem 1.
//!
//! `tests/one_copy_si.rs` shows the same checker rejecting §4.3.2's
//! counterexample (why SRCA-Opt is not 1-copy-SI), a lost update and a
//! long fork.
//!
//! Run with: `cargo run --example si_anomalies`

use si_rep::core::{check_one_copy_si, Cluster, ClusterConfig, Connection};
use std::time::Duration;

fn main() {
    // --- 1 + 2: behaviour on a live cluster --------------------------------
    let cfg = ClusterConfig::builder().replicas(2).track_history(true).build();
    let cluster = Cluster::new(cfg);
    cluster.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    {
        let mut s = cluster.session(0);
        s.execute("INSERT INTO kv VALUES (1, 100)").unwrap();
        s.execute("INSERT INTO kv VALUES (2, 100)").unwrap();
        s.commit().unwrap();
    }
    cluster.quiesce(Duration::from_secs(5));

    // Lost update prevented: both increment k=1 concurrently.
    let mut a = cluster.session(0);
    let mut b = cluster.session(1);
    a.execute("UPDATE kv SET v = v + 10 WHERE k = 1").unwrap();
    b.execute("UPDATE kv SET v = v + 10 WHERE k = 1").unwrap();
    let (ra, rb) = (a.commit(), b.commit());
    println!("concurrent increments: a={ra:?}, b={rb:?}");
    assert!(ra.is_ok() ^ rb.is_ok(), "exactly one must win");

    // Write skew allowed: disjoint writes after overlapping reads.
    cluster.quiesce(Duration::from_secs(5));
    let mut a = cluster.session(0);
    let mut b = cluster.session(1);
    a.execute("SELECT v FROM kv WHERE k = 1").unwrap();
    a.execute("SELECT v FROM kv WHERE k = 2").unwrap();
    b.execute("SELECT v FROM kv WHERE k = 1").unwrap();
    b.execute("SELECT v FROM kv WHERE k = 2").unwrap();
    a.execute("UPDATE kv SET v = 0 WHERE k = 1").unwrap();
    b.execute("UPDATE kv SET v = 0 WHERE k = 2").unwrap();
    a.commit().expect("write skew side A");
    b.commit().expect("write skew side B");
    println!("write skew committed on both sides (SI, not serializability)");

    // --- 3: the journaled execution is 1-copy-SI ----------------------------
    cluster.quiesce(Duration::from_secs(5));
    let (specs, exec) = cluster.collect_history().expect("the journals hold the whole history");
    assert_eq!(specs.len(), 4, "setup, the winning increment and both skew sides");
    let witness = check_one_copy_si(&specs, &exec).expect("execution must be 1-copy-SI");
    println!(
        "1-copy-SI verified over {} committed transactions (witness schedule: {} events)",
        specs.len(),
        witness.len()
    );
    println!("si_anomalies OK");
}
