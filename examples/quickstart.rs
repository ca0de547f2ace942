//! Quickstart: bring up a 3-replica SI-Rep cluster, write through one
//! replica, read it back from another, and look at the protocol counters.
//!
//! Run with: `cargo run --example quickstart`

use si_rep::core::{Cluster, ClusterConfig, Connection};
use std::time::Duration;

fn main() {
    // A 3-replica cluster: each replica is a middleware/database pair, all
    // connected by uniform-reliable total-order multicast.
    let cluster = Cluster::new(ClusterConfig::builder().replicas(3).build());

    // Schemas are installed identically at every replica before the run.
    cluster
        .execute_ddl("CREATE TABLE accounts (id INT, owner TEXT, balance FLOAT, PRIMARY KEY (id))")
        .expect("ddl");

    // Connect to replica 0 (the driver crate adds discovery + failover; a
    // plain session pins to one replica like a JDBC connection).
    let mut alice = cluster.session(0);
    alice.execute("INSERT INTO accounts VALUES (1, 'alice', 100.0)").expect("insert");
    alice.execute("INSERT INTO accounts VALUES (2, 'bob', 50.0)").expect("insert");
    // The commit extracts the writeset, certifies it and multicasts it to
    // every replica; it returns once committed at the local replica.
    alice.commit().expect("commit");

    // A transfer: reads and writes in one snapshot-isolated transaction.
    alice.execute("UPDATE accounts SET balance = balance - 25 WHERE id = 1").expect("debit");
    alice.execute("UPDATE accounts SET balance = balance + 25 WHERE id = 2").expect("credit");
    alice.commit().expect("transfer commit");

    // Lazily-applied writesets reach the other replicas within moments.
    cluster.quiesce(Duration::from_secs(5));
    let mut bob = cluster.session(2);
    let rows = bob
        .execute("SELECT id, owner, balance FROM accounts ORDER BY id")
        .expect("select")
        .rows()
        .to_vec();
    println!("state as seen from replica 2:");
    for r in &rows {
        println!("  account {} ({}) balance {}", r[0], r[1], r[2]);
    }
    bob.commit().expect("ro commit");
    assert_eq!(rows[0][2], si_rep::storage::Value::Float(75.0));
    assert_eq!(rows[1][2], si_rep::storage::Value::Float(75.0));

    // The full observability report: counters, queue-depth gauges with
    // their high-water marks, stage latencies, and the 1-copy-SI auditor's
    // verdict.
    let report = cluster.metrics();
    println!("\nprotocol counters: {}", report.summary());
    println!("queue-depth gauges (current / high-water):");
    for (name, reading) in report.gauges.fields() {
        println!("  {name:<18} {:>4} / {:>4}", reading.current, reading.high_water);
    }
    assert!(report.violations.is_empty(), "auditor: {:?}", report.violations);
    println!("auditor: clean (0 invariant violations)");

    // Each replica keeps a journal of typed protocol events; the cluster can
    // render them as a Perfetto/Chrome trace (see README: load the JSON at
    // ui.perfetto.dev), and the report renders as Prometheus text.
    let events: usize = cluster.journal_events().iter().map(|(_, v)| v.len()).sum();
    println!("journal: {events} protocol events across the cluster");
    println!("perfetto trace: {} bytes of JSON", cluster.perfetto_json().len());
    println!("prometheus text: {} lines", report.prometheus_text().lines().count());
    println!("quickstart OK");
}
