//! Cross-crate consistency tests: heavy concurrent load through the public
//! API, then replica-convergence and invariant checks.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use si_rep::core::{Cluster, ClusterConfig, Connection, ReplicationMode, System};
use si_rep::driver::{Driver, DriverConfig};
use std::sync::Arc;
use std::time::Duration;

const Q: Duration = Duration::from_secs(20);

fn money_cluster(n: usize, mode: ReplicationMode) -> Arc<Cluster> {
    let cfg = ClusterConfig::builder().replicas(n).mode(mode).build();
    let c = Arc::new(Cluster::new(cfg));
    c.execute_ddl("CREATE TABLE acc (id INT, bal INT, PRIMARY KEY (id))").unwrap();
    let mut s = c.session(0);
    for id in 0..20 {
        s.execute(&format!("INSERT INTO acc VALUES ({id}, 1000)")).unwrap();
    }
    s.commit().unwrap();
    assert!(c.quiesce(Q));
    c
}

fn total_balance(c: &Cluster, k: usize) -> i64 {
    let mut s = c.session(k);
    let r = s.execute("SELECT SUM(bal) FROM acc").unwrap();
    let v = r.rows()[0][0].as_int().unwrap();
    s.commit().unwrap();
    v
}

/// Random transfers between accounts conserve the total balance, at every
/// replica, under both protocol variants (SRCA-Opt is still SI per replica
/// and certification still prevents lost updates — what it loses is the
/// global reads-from consistency, not money).
fn transfers_conserve_money(mode: ReplicationMode) {
    let c = money_cluster(3, mode);
    let mut handles = Vec::new();
    for node in 0..3 {
        let c2 = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(node as u64 + 99);
            let mut s = c2.session(node);
            let mut committed = 0;
            while committed < 30 {
                let from = rng.gen_range(0..20);
                let to = (from + rng.gen_range(1..20)) % 20;
                let amt = rng.gen_range(1..50);
                let r = (|| {
                    s.execute(&format!("UPDATE acc SET bal = bal - {amt} WHERE id = {from}"))?;
                    s.execute(&format!("UPDATE acc SET bal = bal + {amt} WHERE id = {to}"))?;
                    s.commit()
                })();
                match r {
                    Ok(()) => committed += 1,
                    Err(_) => s.rollback(),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(c.quiesce(Q));
    for k in 0..3 {
        assert_eq!(total_balance(&c, k), 20_000, "money vanished at replica {k}");
    }
    let report = c.metrics();
    assert!(report.violations.is_empty(), "auditor tripped: {:?}", report.violations);
}

#[test]
fn srca_rep_transfers_conserve_money() {
    transfers_conserve_money(ReplicationMode::SrcaRep);
}

#[test]
fn srca_opt_transfers_conserve_money() {
    transfers_conserve_money(ReplicationMode::SrcaOpt);
}

#[test]
fn driver_load_with_failover_preserves_acked_commits() {
    // Clients hammer the cluster through the failover driver while a
    // replica crashes. Every commit that was acknowledged must be present
    // at the survivors; every error must be one of the documented retryable
    // kinds.
    let c = money_cluster(3, ReplicationMode::SrcaRep);
    let driver = Arc::new(Driver::new(Arc::clone(&c), DriverConfig::default()));
    let acked = Arc::new(std::sync::atomic::AtomicI64::new(0));
    let mut handles = Vec::new();
    for t in 0..4 {
        let driver = Arc::clone(&driver);
        let acked = Arc::clone(&acked);
        handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(t);
            let mut conn = driver.connect().unwrap();
            for _ in 0..60 {
                let id = rng.gen_range(0..20);
                let r = (|| {
                    conn.execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {id}"))?;
                    conn.commit()
                })();
                match r {
                    Ok(()) => {
                        acked.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                    Err(e) => {
                        let _ = conn.rollback();
                        assert!(
                            matches!(e, si_rep::common::DbError::Aborted(_)),
                            "unexpected error kind: {e:?}"
                        );
                    }
                }
            }
        }));
    }
    std::thread::sleep(Duration::from_millis(60));
    c.crash(1);
    for h in handles {
        h.join().unwrap();
    }
    assert!(c.quiesce(Q));
    let n = acked.load(std::sync::atomic::Ordering::SeqCst);
    // Acked increments are all present at both survivors.
    assert_eq!(total_balance(&c, 0), 20_000 + n);
    assert_eq!(total_balance(&c, 2), 20_000 + n);
    let report = c.metrics();
    assert!(report.violations.is_empty(), "auditor tripped: {:?}", report.violations);
}

#[test]
fn replicas_validate_identically_under_contention() {
    let c = money_cluster(2, ReplicationMode::SrcaRep);
    let mut handles = Vec::new();
    for node in 0..2 {
        let c2 = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut s = c2.session(node);
            let mut rng = SmallRng::seed_from_u64(node as u64);
            for _ in 0..80 {
                let id = rng.gen_range(0..3); // heavy contention on 3 rows
                let _ = s
                    .execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {id}"))
                    .and_then(|_| s.commit());
                if s.in_transaction() {
                    s.rollback();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(c.quiesce(Q));
    // Identical validation decisions → identical last tids and state.
    assert_eq!(c.node(0).last_validated(), c.node(1).last_validated());
    assert_eq!(total_balance(&c, 0), total_balance(&c, 1));
    let m = c.metrics();
    assert!(m.forced_aborts() > 0, "contention should force some aborts");
    assert!(m.violations.is_empty(), "auditor tripped: {:?}", m.violations);
}

#[test]
fn system_trait_object_round_robin() {
    let c = money_cluster(3, ReplicationMode::SrcaRep);
    let sys: &dyn System = c.as_ref();
    let mut conns: Vec<Box<dyn Connection>> = (0..3).map(|_| sys.connect().unwrap()).collect();
    for (i, conn) in conns.iter_mut().enumerate() {
        conn.execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {i}")).unwrap();
        conn.commit().unwrap();
    }
    assert!(c.quiesce(Q));
    assert_eq!(total_balance(&c, 0), 20_003);
}
