//! The chaos harness: seeded fault injection (drop/delay,
//! partitions) plus named crash-points, driven hard while the online
//! 1-copy-SI auditor watches. Invariants:
//!
//! 1. the fault schedule is a pure function of the seed — same seed, same
//!    script ⇒ byte-identical schedule (fingerprint equality);
//! 2. no acknowledged write is ever lost, no matter which faults fire;
//! 3. the auditor stays clean through every seed;
//! 4. every crash point fires, is journaled, and ends in its §5.4 outcome.
//!
//! The sweep width is `SIREP_CHAOS_SEEDS` (default 2 for the quick tier;
//! `scripts/check.sh`'s full tier sets 256). Each seed runs under a
//! watchdog, so a hang fails the test naming the seed, and its fingerprint
//! is written to `results/CHAOS_<seed>.json` so it can be replayed exactly.

use si_rep::common::wire::Wire;
use si_rep::common::{AbortReason, CrashPoint, DbError};
use si_rep::core::{Cluster, ClusterConfig, Connection};
use si_rep::driver::{Driver, DriverConfig, Policy};
use si_rep::gcs::{
    Cast, Delivery, FaultConfig, FaultRecord, Group, GroupConfig, Member, SimGroup, SimMember,
};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const Q: Duration = Duration::from_secs(20);

// --- determinism: same seed ⇒ identical fault schedule -------------------

/// One scripted run: 4 members, 300 round-robin multicasts from one thread
/// under the full chaos mix, an explicit heal, and a full drain. Returns
/// the fault fingerprint, the retained schedule, and the per-member
/// delivery streams. With `drain_during_sends` every member is drained by
/// its own thread from the first send on, so how far each receiver has got
/// when a partition heals differs from run to run.
type ScriptedRun = ((u64, u64), Vec<FaultRecord>, Vec<Vec<(u64, u64)>>);

fn drain_totals(m: &SimMember<u64>) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(300);
    while out.len() < 300 {
        let d = m.recv_timeout(Duration::from_secs(10)).expect("delivery lost");
        if let Delivery::TotalOrder { seq, msg, .. } = d {
            out.push((seq, msg));
        }
    }
    out
}

fn scripted_run(seed: u64, drain_during_sends: bool) -> ScriptedRun {
    let group: SimGroup<u64> = SimGroup::new(GroupConfig::instant());
    let members: Vec<SimMember<u64>> = (0..4).map(|_| group.join()).collect();
    for m in &members {
        while let Some(d) = m.try_recv() {
            assert!(matches!(d, Delivery::ViewChange(_)), "unexpected early delivery");
        }
    }
    group.install_faults(FaultConfig::chaos(seed));
    let send_all = || {
        for i in 0..300u64 {
            // A planned partition may be isolating this sender; its multicast
            // is then held and re-sequenced at heal — still never lost.
            members[(i % 4) as usize].handle().multicast_total(i).unwrap();
        }
        group.heal(); // release whatever partition is still active
    };
    let streams: Vec<Vec<(u64, u64)>> = if drain_during_sends {
        std::thread::scope(|scope| {
            let drains: Vec<_> =
                members.iter().map(|m| scope.spawn(move || drain_totals(m))).collect();
            send_all();
            drains.into_iter().map(|d| d.join().expect("receiver panicked")).collect()
        })
    } else {
        send_all();
        members.iter().map(drain_totals).collect()
    };
    (group.fault_fingerprint().expect("plan installed"), group.fault_log(), streams)
}

/// What a partition's heal releases is counted in log indices, not in
/// copies a receiver had not picked up yet: the schedule stays a pure
/// function of seed and script while receivers race the sender.
#[test]
fn same_seed_fingerprints_identically_while_receivers_drain() {
    let (fp1, log1, streams1) = scripted_run(0xFA57, true);
    let (fp2, log2, streams2) = scripted_run(0xFA57, true);
    assert_eq!(fp1, fp2, "same seed must fingerprint identically");
    assert_eq!(log1, log2, "same seed must produce the identical schedule");
    assert!(
        log1.iter()
            .any(|r| matches!(r, FaultRecord::PartitionHeal { flushed, .. } if *flushed > 0)),
        "the script must heal a partition that held something back"
    );
    assert_eq!(streams1, streams2);
    assert_eq!(scripted_run(0xFA57, false).0, fp1, "and identically to the drained-after run");
}

#[test]
fn same_seed_reproduces_identical_fault_schedule() {
    let (fp1, log1, streams1) = scripted_run(0xFA57, false);
    let (fp2, log2, streams2) = scripted_run(0xFA57, false);
    assert_eq!(fp1, fp2, "same seed must fingerprint identically");
    assert_eq!(log1, log2, "same seed must produce the identical schedule");
    assert!(fp1.0 > 0, "the chaos mix must actually inject faults");
    // Total order held under chaos: every member saw the same stream, and
    // every payload arrived exactly once.
    for s in &streams1[1..] {
        assert_eq!(s, &streams1[0], "members disagree on total order under faults");
    }
    assert_eq!(streams1[0].len(), 300);
    let mut payloads: Vec<u64> = streams1[0].iter().map(|(_, m)| *m).collect();
    payloads.sort_unstable();
    assert_eq!(payloads, (0..300).collect::<Vec<_>>(), "payload lost or duplicated");
    // And the runs agree with each other end to end.
    assert_eq!(streams1, streams2);
    // A different seed yields a different schedule.
    let (fp3, _, _) = scripted_run(0xFA58, false);
    assert_ne!(fp1, fp3, "different seeds should not collide");
}

// --- crash-points ---------------------------------------------------------

fn cluster(n: usize) -> Arc<Cluster> {
    let gcs = GroupConfig::instant();
    let c = Arc::new(Cluster::new(ClusterConfig::builder().replicas(n).gcs(gcs).build()));
    c.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    let mut s = c.session(0);
    for k in 0..10 {
        s.execute(&format!("INSERT INTO kv VALUES ({k}, 0)")).unwrap();
    }
    s.commit().unwrap();
    assert!(c.quiesce(Q));
    c
}

fn int_at(c: &Cluster, replica: usize, sql: &str) -> i64 {
    let mut s = c.session(replica);
    let r = s.execute(sql).unwrap();
    let v = r.rows()[0][0].as_int().unwrap();
    s.commit().unwrap();
    v
}

fn sum_at(c: &Cluster, k: usize) -> i64 {
    int_at(c, k, "SELECT SUM(v) FROM kv")
}

/// Account 1's balance at replica `k`: the transfers it has committed.
fn credited_at(c: &Cluster, k: usize) -> i64 {
    int_at(c, k, "SELECT v FROM kv WHERE k = 1")
}

/// Moves one unit from account 0 to account 1: `kv`'s total stays 0.
fn transfer(conn: &mut dyn Connection) -> Result<(), DbError> {
    conn.execute("UPDATE kv SET v = v - 1 WHERE k = 0")?;
    conn.execute("UPDATE kv SET v = v + 1 WHERE k = 1")?;
    conn.commit()
}

/// Waits until the armed point has fired and `victim` is down: the point
/// disarms when it fires, and the replica is down a moment later.
fn wait_fired(c: &Cluster, victim: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline
        && (!c.armed_crash_points().is_empty() || c.node(victim).is_alive())
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(c.armed_crash_points().is_empty(), "the crash-point never fired");
    assert!(!c.node(victim).is_alive());
}

/// Arms `point` on `c` and drives one transfer through it, asserting what
/// the client sees (§5.4). Returns the replica that crashed. The `match` is
/// the variant witness: a new `CrashPoint` does not compile without a row.
fn fire(c: &Arc<Cluster>, point: CrashPoint) -> usize {
    let driver =
        Driver::new(Arc::clone(c), DriverConfig::builder().policy(Policy::Primary).build());
    match point {
        // §5.4 case 1/2: the origin dies before the multicast. The commit is
        // a retryable abort, no survivor ever holds the transfer, and the
        // client's retry commits at a survivor.
        CrashPoint::BeforeMulticast => {
            let mut conn = driver.connect().unwrap();
            c.arm_crash_point(point, 0);
            assert_eq!(transfer(&mut conn), Err(DbError::Aborted(AbortReason::ReplicaCrashed)));
            assert_eq!(conn.failovers(), 1);
            wait_fired(c, 0);
            assert!(c.quiesce(Q));
            for k in [1, 2] {
                assert_eq!(credited_at(c, k), 0, "survivor {k} holds a commit never multicast");
            }
            transfer(&mut conn).unwrap();
            0
        }
        // §5.4 case 3: the writeset is on the wire when the origin dies; a
        // survivor resolves the in-doubt commit as committed.
        CrashPoint::AfterMulticastBeforeLocalCommit => {
            let mut conn = driver.connect().unwrap();
            c.arm_crash_point(point, 0);
            assert_eq!(transfer(&mut conn), Ok(()));
            assert_eq!(conn.failovers(), 1);
            0
        }
        // A remote dies holding a validated writeset it has not committed;
        // the origin's commit is unaffected, and recovery restores the
        // dropped apply by state transfer.
        CrashPoint::AfterDeliverBeforeCommit => {
            c.arm_crash_point(point, 2);
            transfer(&mut driver.connect().unwrap()).unwrap();
            2
        }
        // The donor dies mid-transfer; recovery retries with another donor.
        CrashPoint::MidStateTransfer => {
            c.crash(2);
            transfer(&mut driver.connect().unwrap()).unwrap();
            assert!(c.quiesce(Q));
            c.arm_crash_point(point, 0);
            c.recover(2).unwrap();
            0
        }
    }
}

/// Every crash point in turn, each on a fresh cluster: it fires, its
/// replica journals it, the client sees its §5.4 outcome, and once every
/// replica is back, all hold the one committed transfer, the total is
/// conserved and the auditor is clean.
#[test]
fn every_crash_point_fires_with_its_section_5_4_outcome() {
    // `wire_codec!` gives every variant a tag, so decoding every one-byte
    // tag yields each point once.
    let points: Vec<CrashPoint> =
        (0..=u8::MAX).filter_map(|tag| CrashPoint::from_wire(&[tag]).ok()).collect();
    assert!(points.contains(&CrashPoint::BeforeMulticast));
    for point in points {
        let c = cluster(3);
        let victim = fire(&c, point);
        wait_fired(&c, victim);
        let id = c.node(victim).id();
        let fired = c.journal_events().into_iter().find(|(r, _)| *r == id).map_or(0, |(_, evs)| {
            let here = |e: &&si_rep::common::Event| {
                e.kind == si_rep::common::EventKind::CrashPointFired { point }
            };
            evs.iter().filter(here).count()
        });
        assert_eq!(fired, 1, "{point:?}: not journaled once at replica {victim}");
        let holds_the_transfer = |k: usize, when: &str| {
            assert_eq!(sum_at(&c, k), 0, "{point:?}: replica {k} {when}: total not conserved");
            assert_eq!(credited_at(&c, k), 1, "{point:?}: replica {k} {when}: transfer missing");
        };
        assert!(c.quiesce(Q), "{point:?}: survivors did not drain");
        let down: Vec<usize> = (0..3).filter(|&k| !c.node(k).is_alive()).collect();
        for k in (0..3).filter(|k| !down.contains(k)) {
            holds_the_transfer(k, "before recovery");
        }
        for &k in &down {
            c.recover(k).unwrap();
        }
        assert!(c.quiesce(Q), "{point:?}: recovery did not drain");
        for k in 0..3 {
            holds_the_transfer(k, "after recovery");
        }
        assert!(c.audit_is_clean(), "{point:?}: {:?}", c.audit_violations());
    }
}

/// Crash a remote replica while its applier is draining a group-commit
/// batch. A burst of concurrent, non-conflicting commits queues several
/// ready writesets at replica 2 (the applier drains every ready entry into
/// one engine transaction); the crash-point fires after the batch is picked
/// up but before the engine commit. Recovery must restore every batched apply exactly once —
/// no lost entry, no double-applied entry, auditor clean.
#[test]
fn crash_mid_batch_group_commit_recovers() {
    let c = cluster(3);
    c.arm_crash_point(CrashPoint::AfterDeliverBeforeCommit, 2);
    // Disjoint keys per thread, so certification passes all of them and
    // the burst is free to coalesce into ready batches.
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let c = &c;
            scope.spawn(move || {
                for i in 0..5usize {
                    let mut s = c.session(t % 2);
                    let k = t * 2 + (i % 2);
                    s.execute(&format!("UPDATE kv SET v = v + 1 WHERE k = {k}")).unwrap();
                    s.commit().unwrap();
                }
            });
        }
    });
    wait_fired(&c, 2);
    assert!(c.quiesce(Q));
    assert_eq!(sum_at(&c, 0), 20);
    assert_eq!(sum_at(&c, 1), 20);
    c.recover(2).unwrap();
    assert!(c.quiesce(Q));
    assert_eq!(sum_at(&c, 2), 20, "a batched apply was lost or double-applied across the crash");
    assert!(c.audit_is_clean(), "{:?}", c.audit_violations());
}

// --- the seed sweep -------------------------------------------------------

fn sweep_seeds() -> u64 {
    std::env::var("SIREP_CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

/// One full chaos run: message-level faults from the seed, a monkey doing
/// explicit partition/heal cycles and firing the mid-commit crash-point,
/// four clients hammering increments through the failover driver.
///
/// Accounting is exact: the driver resolves every in-doubt commit to a
/// definitive outcome, so `Ok` ⇒ committed and `Err(Aborted)` ⇒ not
/// committed, and the final SUM must equal the acked count at every
/// replica.
fn sweep_one_seed(seed: u64) {
    let c = cluster(3);
    let mut fc = FaultConfig::chaos(seed);
    // Planned partitions only heal on multicast traffic; a fully blocked
    // client generates none, so the cluster harness uses explicit monkey
    // partitions for liveness and keeps the message-level faults seeded.
    fc.partition_prob = 0.0;
    c.install_faults(fc);

    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicI64::new(0));
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            scope.spawn(move || {
                let driver = Driver::new(
                    Arc::clone(&c),
                    DriverConfig::builder().inquiry_attempts(8).build(),
                );
                'outer: while !stop.load(Ordering::Relaxed) {
                    let Ok(mut conn) = driver.connect() else {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    };
                    for i in 0..20u64 {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        let k = (t * 20 + i) % 10;
                        let r = (|| {
                            conn.execute(&format!("UPDATE kv SET v = v + 1 WHERE k = {k}"))?;
                            conn.commit()
                        })();
                        match r {
                            Ok(()) => {
                                acked.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(e) => {
                                let _ = conn.rollback();
                                // The monkey never takes the whole cluster
                                // down, so `Unavailable` here would mean
                                // the bounded in-doubt retry gave up too
                                // early — a harness invariant violation.
                                assert!(
                                    matches!(
                                        e,
                                        DbError::Aborted(_) | DbError::ConnectionLost { .. }
                                    ),
                                    "seed {seed}: unexpected client error: {e:?}"
                                );
                            }
                        }
                    }
                }
            });
        }
        // The monkey alternates partition/heal cycles on replica 2 with
        // crash-point kills (and recoveries) of replica 0 — never both at
        // once, so at least one unimpaired replica always exists.
        let monkey = {
            let c = Arc::clone(&c);
            scope.spawn(move || {
                for _round in 0..3usize {
                    c.partition(&[2]);
                    std::thread::sleep(Duration::from_millis(40));
                    c.heal_partition();
                    std::thread::sleep(Duration::from_millis(20));
                    c.arm_crash_point(CrashPoint::AfterMulticastBeforeLocalCommit, 0);
                    let deadline = Instant::now() + Duration::from_millis(800);
                    while Instant::now() < deadline && !c.armed_crash_points().is_empty() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    // If no client happened to commit through replica 0 in
                    // time, withdraw the trap (it must not fire into the
                    // final accounting phase). Whether it fired is what the
                    // disarm reports — `is_alive` still reads true between
                    // the firing and the crash it causes.
                    if !c.disarm_crash_point(CrashPoint::AfterMulticastBeforeLocalCommit) {
                        let landed = Instant::now() + Q;
                        while c.node(0).is_alive() {
                            assert!(Instant::now() < landed, "seed {seed}: fired, never crashed");
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        std::thread::sleep(Duration::from_millis(30));
                        c.recover(0).expect("recovery failed");
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        monkey.join().unwrap();
        stop.store(true, Ordering::Relaxed);
    });

    assert!(c.quiesce(Q), "seed {seed}: cluster failed to quiesce");
    assert_eq!(c.alive().len(), 3, "seed {seed}: a replica stayed down");
    let n = acked.load(Ordering::SeqCst);
    assert!(n > 0, "seed {seed}: no transactions survived");
    let report = c.metrics();
    assert!(report.violations.is_empty(), "seed {seed}: auditor tripped: {:?}", report.violations);
    for k in 0..3 {
        assert_eq!(sum_at(&c, k), n, "seed {seed}: replica {k} lost or duplicated acked writes");
    }
    let (count, hash) = c.fault_fingerprint().expect("plan installed");
    assert!(count > 0, "seed {seed}: the chaos mix injected nothing");
    assert!(report.gauges.faults_injected.current > 0, "fault gauge not wired");
    // Replay breadcrumb for a failing seed.
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write(
        format!("results/CHAOS_{seed}.json"),
        format!(
            "{{\"seed\":{seed},\"fault_count\":{count},\"fingerprint\":\"{hash:016x}\",\"acked\":{n}}}\n"
        ),
    );
}

/// Far beyond a seed's ≈ 0.5 s, and beyond the longest a client may
/// legitimately sit in in-doubt resolution (8 bounded inquiries).
const SEED_WATCHDOG: Duration = Duration::from_secs(90);

#[test]
fn seed_sweep_holds_one_copy_si_and_loses_no_acked_write() {
    for i in 0..sweep_seeds() {
        let seed = 0xC0FFEE + i * 7919;
        // The sender is dropped when the seed's thread ends, however it ends.
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let run = std::thread::spawn(move || {
            let _done = done;
            sweep_one_seed(seed);
        });
        if finished.recv_timeout(SEED_WATCHDOG) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
            panic!("seed {seed}: still running after {SEED_WATCHDOG:?} — a hang");
        }
        if let Err(panic) = run.join() {
            std::panic::resume_unwind(panic);
        }
    }
}
