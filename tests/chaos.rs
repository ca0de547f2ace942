//! Chaos test: continuous transfer load through the failover driver while
//! replicas repeatedly crash and recover. Invariants at the end:
//!
//! 1. every acknowledged commit is durable (total balance = initial +
//!    acknowledged increments);
//! 2. all live replicas converge to identical state;
//! 3. every error surfaced to a client is a documented retryable kind.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use si_rep::core::{Cluster, ClusterConfig, Connection};
use si_rep::driver::{Driver, DriverConfig};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn crash_recover_cycles_under_load() {
    let c = Arc::new(Cluster::new(ClusterConfig::builder().replicas(3).build()));
    c.execute_ddl("CREATE TABLE acc (id INT, bal INT, PRIMARY KEY (id))").unwrap();
    {
        let mut s = c.session(0);
        for id in 0..10 {
            s.execute(&format!("INSERT INTO acc VALUES ({id}, 0)")).unwrap();
        }
        s.commit().unwrap();
    }
    assert!(c.quiesce(Duration::from_secs(10)));

    let driver = Arc::new(Driver::new(Arc::clone(&c), DriverConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicI64::new(0));

    std::thread::scope(|scope| {
        // 4 clients hammering increments through the failover driver.
        for t in 0..4u64 {
            let driver = Arc::clone(&driver);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t);
                'outer: while !stop.load(Ordering::Relaxed) {
                    let Ok(mut conn) = driver.connect() else {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    };
                    for _ in 0..20 {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        let id = rng.gen_range(0..10);
                        let r = (|| {
                            conn.execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {id}"))?;
                            conn.commit()
                        })();
                        match r {
                            Ok(()) => {
                                acked.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(e) => {
                                let _ = conn.rollback();
                                assert!(
                                    matches!(
                                        e,
                                        si_rep::common::DbError::Aborted(_)
                                            | si_rep::common::DbError::ConnectionLost { .. }
                                    ),
                                    "unexpected client error: {e:?}"
                                );
                            }
                        }
                    }
                }
            });
        }
        // The chaos monkey: crash and recover replicas in a rolling pattern,
        // never taking more than one down at a time.
        let monkey = {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for round in 0..3usize {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let victim = round % 3;
                    c.crash(victim);
                    std::thread::sleep(Duration::from_millis(120));
                    c.recover(victim).expect("recovery failed");
                    std::thread::sleep(Duration::from_millis(120));
                }
            })
        };
        monkey.join().unwrap();
        stop.store(true, Ordering::Relaxed);
    });

    assert!(c.quiesce(Duration::from_secs(20)), "cluster failed to quiesce after chaos");
    let n = acked.load(Ordering::SeqCst);
    assert!(n > 0, "no transactions survived the chaos run");
    assert_eq!(c.alive().len(), 3, "all replicas should be back");
    let mut sums = Vec::new();
    for k in 0..3 {
        let mut s = c.session(k);
        let r = s.execute("SELECT SUM(bal) FROM acc").unwrap();
        sums.push(r.rows()[0][0].as_int().unwrap());
        s.commit().unwrap();
    }
    let report = c.metrics();
    assert!(report.violations.is_empty(), "auditor tripped: {:?}", report.violations);
    assert_eq!(sums[0], sums[1], "replicas 0/1 diverged: {sums:?}");
    assert_eq!(sums[1], sums[2], "replicas 1/2 diverged: {sums:?}");
    assert_eq!(sums[0], n, "acked increments lost or duplicated: acked={n} sum={}", sums[0]);
}
