//! Online recovery (paper §8 future work, implemented as an extension):
//! a crashed replica re-joins via state transfer from a donor + catch-up
//! over the live total-order stream, while the rest of the cluster keeps
//! processing transactions.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use si_rep::core::{Cluster, ClusterConfig, Connection};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const Q: Duration = Duration::from_secs(20);

fn cluster(n: usize) -> Arc<Cluster> {
    let c = Arc::new(Cluster::new(ClusterConfig::builder().replicas(n).build()));
    c.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    let mut s = c.session(0);
    for k in 0..10 {
        s.execute(&format!("INSERT INTO kv VALUES ({k}, 0)")).unwrap();
    }
    s.commit().unwrap();
    assert!(c.quiesce(Q));
    c
}

fn sum_at(c: &Cluster, k: usize) -> i64 {
    let mut s = c.session(k);
    let r = s.execute("SELECT SUM(v) FROM kv").unwrap();
    let v = r.rows()[0][0].as_int().unwrap();
    s.commit().unwrap();
    v
}

#[test]
fn recovered_replica_catches_up_quiescent() {
    let c = cluster(3);
    c.crash(2);
    // Work happens while replica 2 is down.
    let mut s = c.session(0);
    for _ in 0..5 {
        s.execute("UPDATE kv SET v = v + 1 WHERE k = 1").unwrap();
        s.commit().unwrap();
    }
    assert!(c.quiesce(Q));
    // Bring it back.
    c.recover(2).unwrap();
    assert!(c.quiesce(Q));
    assert_eq!(c.alive().len(), 3);
    assert_eq!(sum_at(&c, 2), 5, "recovered replica missed writesets");
    // And it participates again: writes through it replicate everywhere.
    let mut s2 = c.session(2);
    s2.execute("UPDATE kv SET v = v + 10 WHERE k = 2").unwrap();
    s2.commit().unwrap();
    assert!(c.quiesce(Q));
    for k in 0..3 {
        assert_eq!(sum_at(&c, k), 15, "replica {k} inconsistent after recovery");
    }
}

#[test]
fn recovery_under_live_load() {
    let c = cluster(3);
    c.crash(1);
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(std::sync::atomic::AtomicI64::new(0));
    let mut handles = Vec::new();
    for node in [0usize, 2] {
        let c2 = Arc::clone(&c);
        let stop2 = Arc::clone(&stop);
        let committed2 = Arc::clone(&committed);
        handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(node as u64);
            let mut s = c2.session(node);
            while !stop2.load(Ordering::Relaxed) {
                let k = rng.gen_range(0..10);
                let r = s
                    .execute(&format!("UPDATE kv SET v = v + 1 WHERE k = {k}"))
                    .and_then(|_| s.commit());
                match r {
                    Ok(()) => {
                        committed2.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => s.rollback(),
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
    }
    // Let load run, recover mid-stream, keep loading, then stop.
    std::thread::sleep(Duration::from_millis(100));
    c.recover(1).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert!(c.quiesce(Q));
    let n = committed.load(Ordering::SeqCst);
    assert!(n > 0);
    for k in 0..3 {
        assert_eq!(sum_at(&c, k), n, "replica {k} diverged after live recovery");
    }
    // The recovered replica accepts local transactions.
    let mut s = c.session(1);
    s.execute("UPDATE kv SET v = v + 1 WHERE k = 0").unwrap();
    s.commit().unwrap();
    assert!(c.quiesce(Q));
    assert_eq!(sum_at(&c, 0), n + 1);
}

#[test]
fn repeated_crash_and_recovery() {
    let c = cluster(2);
    for round in 1..=3i64 {
        c.crash(1);
        let mut s = c.session(0);
        s.execute(&format!("UPDATE kv SET v = v + {round} WHERE k = 3")).unwrap();
        s.commit().unwrap();
        assert!(c.quiesce(Q));
        c.recover(1).unwrap();
        assert!(c.quiesce(Q));
        let expect: i64 = (1..=round).sum();
        assert_eq!(sum_at(&c, 1), expect, "round {round}");
    }
}

#[test]
fn recover_rejects_live_replica() {
    let c = cluster(2);
    assert!(c.recover(0).is_err());
}

#[test]
fn recovery_transfers_indoubt_outcomes() {
    use si_rep::core::{InDoubt, Outcome};
    let c = cluster(3);
    let mut s = c.session(0);
    s.execute("UPDATE kv SET v = 7 WHERE k = 7").unwrap();
    let xact = s.xact_id().unwrap();
    s.commit().unwrap();
    assert!(c.quiesce(Q));
    c.crash(2);
    c.recover(2).unwrap();
    assert!(c.quiesce(Q));
    // The recovered replica can answer in-doubt inquiries about
    // transactions that committed before it even existed.
    let r = c.node(2).inquire(xact).unwrap();
    assert_eq!(r, InDoubt::Known(Outcome::Committed));
}

/// The donor crash-stops in the middle of the state transfer (via the
/// `mid_state_transfer` crash-point): the recovering replica must discard
/// the partial transfer and restart with another donor, not install state
/// from a dead one.
#[test]
fn donor_crash_mid_state_transfer_retries_with_another_donor() {
    use sirep_common::CrashPoint;
    let c = cluster(3);
    c.crash(2);
    let mut s = c.session(0);
    for _ in 0..5 {
        s.execute("UPDATE kv SET v = v + 1 WHERE k = 3").unwrap();
        s.commit().unwrap();
    }
    assert!(c.quiesce(Q));
    // recover() picks the lowest-id live donor first: replica 0. Arm the
    // crash-point there so the first transfer attempt dies under us.
    c.arm_crash_point(CrashPoint::MidStateTransfer, 0);
    c.recover(2).unwrap();
    assert!(c.armed_crash_points().is_empty(), "the crash-point must have fired");
    assert!(!c.node(0).is_alive(), "the donor crash-stopped mid-transfer");
    assert!(c.quiesce(Q));
    // The retry used replica 1 as donor, and the recovered node is whole.
    assert_eq!(sum_at(&c, 2), 5, "recovered replica installed a bad transfer");
    // The recovered replica is a first-class member again.
    let mut s2 = c.session(2);
    s2.execute("UPDATE kv SET v = v + 1 WHERE k = 4").unwrap();
    s2.commit().unwrap();
    assert!(c.quiesce(Q));
    assert_eq!(sum_at(&c, 1), 6);
    assert!(c.audit_is_clean());
    // The fired point is on the donor's journal, once.
    let events = c.journal_events();
    let fired = events.iter().find(|(id, _)| id.index() == 0).map_or(0, |(_, evs)| {
        let fired = |e: &&sirep_common::Event| {
            matches!(
                e.kind,
                sirep_common::EventKind::CrashPointFired { point: CrashPoint::MidStateTransfer }
            )
        };
        evs.iter().filter(fired).count()
    });
    assert_eq!(fired, 1, "CrashPointFired must be journaled on the donor exactly once");
}
