//! Failover demo (§5.4 of the paper): a TPC-W-style bookstore runs on a
//! 3-replica cluster; clients connect through the failover driver; one
//! replica crashes mid-run. Committed transactions survive, clients
//! reconnect automatically, and in-doubt commits are resolved by
//! transaction identifier.
//!
//! Run with: `cargo run --example bookstore_failover`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use si_rep::core::{Cluster, ClusterConfig, Connection};
use si_rep::driver::{Driver, DriverConfig, Policy};
use si_rep::workloads::{setup_cluster, Tpcw, Workload};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::builder().replicas(3).build()));
    let workload =
        Tpcw { items: 200, customers: 100, initial_orders: 50, countries: 10, authors: 30 };
    setup_cluster(&cluster, &workload).expect("setup");
    let driver = Arc::new(Driver::new(
        Arc::clone(&cluster),
        DriverConfig::builder().policy(Policy::RoundRobin).build(),
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let lost = Arc::new(AtomicU64::new(0));
    let failovers = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for client in 0..6usize {
            let driver = Arc::clone(&driver);
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&committed);
            let lost = Arc::clone(&lost);
            let failovers = Arc::clone(&failovers);
            let workload = workload.clone();
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(client as u64);
                let mut conn = driver.connect().expect("connect");
                while !stop.load(Ordering::Relaxed) {
                    let tmpl = workload.next(&mut rng, client);
                    let before = conn.failovers();
                    let r = (|| {
                        for sql in &tmpl.statements {
                            conn.execute(sql)?;
                        }
                        conn.commit()
                    })();
                    match r {
                        Ok(()) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            let _ = conn.rollback();
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    failovers.fetch_add((conn.failovers() - before) as u64, Ordering::Relaxed);
                }
            });
        }

        // Let the store run, then pull the plug on replica 0.
        std::thread::sleep(Duration::from_millis(300));
        println!("crashing replica 0 ...");
        cluster.crash(0);
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });

    cluster.quiesce(Duration::from_secs(10));
    println!(
        "committed: {}  retried-after-crash: {}  failovers: {}",
        committed.load(Ordering::Relaxed),
        lost.load(Ordering::Relaxed),
        failovers.load(Ordering::Relaxed)
    );

    // Every surviving replica holds the same committed state.
    let count = |k: usize| {
        let mut s = cluster.session(k);
        let r = s.execute("SELECT COUNT(*) FROM orders").expect("count");
        let n = r.rows()[0][0].as_int().unwrap();
        s.commit().unwrap();
        n
    };
    let (n1, n2) = (count(1), count(2));
    println!("orders at replica 1: {n1}, replica 2: {n2}");
    assert_eq!(n1, n2, "survivors diverged!");
    assert!(cluster.alive().len() == 2);
    println!("bookstore_failover OK");
}
