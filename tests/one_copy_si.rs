//! The paper's Def. 3 (1-copy-SI), decided by the exact checker of
//! `sirep_core::model`:
//!
//! - end to end, the paper's Theorem 1: proptest generates random
//!   transaction scripts (mixes of reads and key-ranged updates, randomly
//!   assigned to replicas and interleaved by real threads), and every
//!   execution SRCA-Rep produces is 1-copy-SI. The history is the
//!   replicas' journals, read by `history_from_journals`;
//! - on named histories: write skew is 1-copy-SI; a lost update, a long
//!   fork and §4.3.2's history of adjustment 2 without adjustment 3 are
//!   not;
//! - §4.3.2's history once more as journal events, which pins how
//!   `history_from_journals` maps events to begins, commits, readsets and
//!   writesets, and journals it must refuse.

use proptest::prelude::*;
use si_rep::common::{Event, EventKind, GlobalTid, ReplicaId, XactId};
use si_rep::core::{
    check_one_copy_si, history_from_journals, Cluster, ClusterConfig, Connection, HistoryGap, Op,
    ReplicatedExecution, ReplicationMode, TxSpec, Violation,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// One client's transaction script.
#[derive(Debug, Clone)]
struct Script {
    steps: Vec<Txn>,
}

#[derive(Debug, Clone)]
enum Txn {
    ReadOnly { keys: Vec<u8> },
    Update { reads: Vec<u8>, writes: Vec<u8> },
}

fn txn_strategy() -> impl Strategy<Value = Txn> {
    let keys = prop::collection::vec(0u8..8, 1..4);
    prop_oneof![
        keys.clone().prop_map(|keys| Txn::ReadOnly { keys }),
        (prop::collection::vec(0u8..8, 0..3), prop::collection::vec(0u8..8, 1..3))
            .prop_map(|(reads, writes)| Txn::Update { reads, writes }),
    ]
}

fn script_strategy() -> impl Strategy<Value = Script> {
    prop::collection::vec(txn_strategy(), 3..10).prop_map(|steps| Script { steps })
}

fn run_scripts(replicas: usize, scripts: Vec<Script>) {
    let cfg = ClusterConfig::builder()
        .replicas(replicas)
        .mode(ReplicationMode::SrcaRep)
        .track_history(true)
        .build();
    let cluster = Arc::new(Cluster::new(cfg));
    cluster.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    {
        let mut s = cluster.session(0);
        for k in 0..8 {
            s.execute(&format!("INSERT INTO kv VALUES ({k}, 0)")).unwrap();
        }
        s.commit().unwrap();
    }
    assert!(cluster.quiesce(Duration::from_secs(10)));
    let mut handles = Vec::new();
    for (i, script) in scripts.into_iter().enumerate() {
        let cluster = Arc::clone(&cluster);
        let node = i % replicas;
        handles.push(std::thread::spawn(move || {
            let mut s = cluster.session(node);
            for txn in script.steps {
                let result = (|| {
                    match &txn {
                        Txn::ReadOnly { keys } => {
                            for k in keys {
                                s.execute(&format!("SELECT v FROM kv WHERE k = {k}"))?;
                            }
                        }
                        Txn::Update { reads, writes } => {
                            for k in reads {
                                s.execute(&format!("SELECT v FROM kv WHERE k = {k}"))?;
                            }
                            for k in writes {
                                s.execute(&format!("UPDATE kv SET v = v + 1 WHERE k = {k}"))?;
                            }
                        }
                    }
                    s.commit()
                })();
                if result.is_err() {
                    s.rollback();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(cluster.quiesce(Duration::from_secs(10)));
    let (specs, exec) = cluster.collect_history().expect("the journals hold the whole history");
    // The setup transaction at least: an empty history passes vacuously.
    assert!(!specs.is_empty());
    if let Err(v) = check_one_copy_si(&specs, &exec) {
        panic!("1-copy-SI violated: {v}\nspecs: {specs:#?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 20,
        .. ProptestConfig::default()
    })]

    #[test]
    fn srca_rep_is_one_copy_si_2_replicas(
        scripts in prop::collection::vec(script_strategy(), 2..5)
    ) {
        run_scripts(2, scripts);
    }

    #[test]
    fn srca_rep_is_one_copy_si_3_replicas(
        scripts in prop::collection::vec(script_strategy(), 3..6)
    ) {
        run_scripts(3, scripts);
    }
}

/// Deterministic regression: the checker accepts a quiet sequential run.
#[test]
fn sequential_run_is_one_copy_si() {
    run_scripts(
        2,
        vec![Script {
            steps: vec![
                Txn::Update { reads: vec![0], writes: vec![1] },
                Txn::ReadOnly { keys: vec![0, 1] },
                Txn::Update { reads: vec![], writes: vec![0, 1] },
            ],
        }],
    );
}

// ---------------------------------------------------------------------
// Named histories
// ---------------------------------------------------------------------

use Op::{Begin as B, Commit as C};

/// A history over transactions `1..`, each `(local replica, readset,
/// writeset)`, and the replicas' schedules.
fn history(
    txns: &[(usize, &[&str], &[&str])],
    schedules: Vec<Vec<Op<u32>>>,
) -> (BTreeMap<u32, TxSpec>, ReplicatedExecution<u32>) {
    let mut specs = BTreeMap::new();
    let mut locality = BTreeMap::new();
    for (t, &(local, reads, writes)) in (1..).zip(txns) {
        specs.insert(t, TxSpec::new(reads.iter().copied(), writes.iter().copied()));
        locality.insert(t, local);
    }
    (specs, ReplicatedExecution { schedules, locality })
}

/// T1 at R0 writes x, T2 at R1 writes y, each having read both and seen
/// neither write: SI admits it, serializability would not.
#[test]
fn write_skew_is_one_copy_si() {
    let (specs, exec) = history(
        &[(0, &["x", "y"], &["x"]), (1, &["x", "y"], &["y"])],
        vec![vec![B(1), B(2), C(2), C(1)], vec![B(2), B(1), C(1), C(2)]],
    );
    check_one_copy_si(&specs, &exec).expect("write skew is SI");
}

/// T2 at R1 read x before T1's write of x was applied there and then wrote
/// x itself: R1's schedule has T1 commit inside T2, and T1's update is lost.
#[test]
fn a_lost_update_is_not_one_copy_si() {
    let (specs, exec) = history(
        &[(0, &["x"], &["x"]), (1, &["x"], &["x"])],
        vec![vec![B(1), C(1), B(2), C(2)], vec![B(2), B(1), C(1), C(2)]],
    );
    let err = check_one_copy_si(&specs, &exec).unwrap_err();
    assert!(matches!(err, Violation::NotSiSchedule { .. }), "{err}");
}

/// Each replica commits its own write first and a reader there sees only
/// that one: T3 at R0 sees x but not y, T4 at R1 sees y but not x. No one
/// copy orders the two writes for both readers.
#[test]
fn a_long_fork_is_not_one_copy_si() {
    let (specs, exec) = history(
        &[(0, &[], &["x"]), (1, &[], &["y"]), (0, &["x", "y"], &[]), (1, &["x", "y"], &[])],
        vec![vec![B(1), C(1), B(3), C(3), B(2), C(2)], vec![B(2), C(2), B(4), C(4), B(1), C(1)]],
    );
    let err = check_one_copy_si(&specs, &exec).unwrap_err();
    assert!(matches!(err, Violation::NoGlobalSchedule { .. }), "{err}");
}

/// §4.3.2: T_i (x) and T_j (y), concurrent at R2, validated in that order.
/// R0 commits them in order and T_a begins between them; R1, applying them
/// concurrently (adjustment 2), commits T_j first, and without the hole
/// synchronisation of adjustment 3 T_b begins in the hole. T_a read x but
/// not y, T_b y but not x: no one-copy schedule has both.
fn section_4_3_2() -> (BTreeMap<u32, TxSpec>, ReplicatedExecution<u32>) {
    history(
        &[(2, &[], &["x"]), (2, &[], &["y"]), (0, &["x", "y"], &[]), (1, &["x", "y"], &[])],
        vec![
            vec![B(1), C(1), B(3), C(3), B(2), C(2)],
            vec![B(2), C(2), B(4), C(4), B(1), C(1)],
            vec![B(1), B(2), C(1), C(2)],
        ],
    )
}

#[test]
fn adjustment_2_without_3_is_not_one_copy_si() {
    let (specs, exec) = section_4_3_2();
    let err = check_one_copy_si(&specs, &exec).unwrap_err();
    assert!(matches!(err, Violation::NoGlobalSchedule { .. }), "{err}");
}

// ---------------------------------------------------------------------
// The same history as journals
// ---------------------------------------------------------------------

/// The transactions of [`section_4_3_2`] as journaled: T_i, T_j, T_a, T_b.
const IDS: [(u64, u64); 4] = [(2, 1), (2, 2), (0, 1), (1, 1)];

fn id(t: u32) -> XactId {
    let (origin, seq) = IDS[t as usize - 1];
    XactId::new(ReplicaId::new(origin), seq)
}

/// §4.3.2's history as SRCA-Opt journals it. Object digests: x = 1, y = 2.
fn section_4_3_2_journals() -> Vec<(ReplicaId, Vec<Event>)> {
    use EventKind::*;
    let (ti, tj, ta, tb) = (id(1), id(2), id(3), id(4));
    let (cert, gi, gj) = (GlobalTid::ZERO, GlobalTid::new(1), GlobalTid::new(2));
    let delivered = |xact, tid, key: u64| {
        let keys: Arc<[u64]> = Arc::from([key]);
        [TotalOrderDeliver { xact, cert }, ValidationVerdict { xact, cert, tid: Some(tid), keys }]
    };
    let origin = |xact| {
        [
            TxBegin { xact, gated: false },
            CertCapture { xact, cert, reads: Arc::from([]) },
            Multicast { xact },
        ]
    };
    let begin = |xact| TxBegin { xact, gated: false };
    let read_only =
        |xact| LocalReadOnly { xact, snapshot: gi, gated: false, reads: Arc::from([1, 2]) };
    let commit = |xact, tid| Commit { xact, tid };
    fn stream(k: u64, kinds: impl IntoIterator<Item = EventKind>) -> (ReplicaId, Vec<Event>) {
        let r = ReplicaId::new(k);
        (
            r,
            (0..)
                .zip(kinds)
                .map(|(seq, kind)| Event { seq, at_ns: seq, replica: r, kind })
                .collect(),
        )
    }
    let both = || delivered(ti, gi, 1).into_iter().chain(delivered(tj, gj, 2));
    vec![
        stream(0, both().chain([commit(ti, gi), begin(ta), read_only(ta), commit(tj, gj)])),
        stream(
            1,
            both().chain([
                commit(tj, gj),
                HoleOpened { tid: gj },
                begin(tb),
                read_only(tb),
                HoleClosed { tid: gi },
                commit(ti, gi),
            ]),
        ),
        stream(
            2,
            origin(ti)
                .into_iter()
                .chain(origin(tj))
                .chain(both())
                .chain([commit(ti, gi), commit(tj, gj)]),
        ),
    ]
}

#[test]
fn journaled_adjustment_2_without_3_is_not_one_copy_si() {
    let (specs, exec) = history_from_journals(&section_4_3_2_journals()).expect("whole journals");
    // Event for event, the fixture's history.
    let (fixture, fixture_exec) = section_4_3_2();
    let obj = |o: &String| format!("{:016x}", if o == "x" { 1 } else { 2 });
    let op = |o: &Op<u32>| match *o {
        B(t) => B(id(t)),
        C(t) => C(id(t)),
    };
    let want: Vec<Vec<Op<XactId>>> =
        fixture_exec.schedules.iter().map(|s| s.iter().map(op).collect()).collect();
    assert_eq!(exec.schedules, want);
    assert_eq!(specs.len(), fixture.len());
    for (&t, spec) in &fixture {
        let got = &specs[&id(t)];
        assert_eq!(got.readset, spec.readset.iter().map(obj).collect(), "readset of T{t}");
        assert_eq!(got.writeset, spec.writeset.iter().map(obj).collect(), "writeset of T{t}");
        assert_eq!(exec.locality[&id(t)], fixture_exec.locality[&t], "locality of T{t}");
    }
    let err = check_one_copy_si(&specs, &exec).unwrap_err();
    assert!(matches!(err, Violation::NoGlobalSchedule { .. }), "{err}");
}

/// A history with a piece missing would pass vacuously, so the builder
/// refuses it: a ring that dropped events, a replica that rejoined from a
/// state transfer, two streams of one replica.
#[test]
fn journals_missing_history_are_refused() {
    let mut dropped = section_4_3_2_journals();
    dropped[1].1.remove(0);
    assert_eq!(
        history_from_journals(&dropped).unwrap_err(),
        HistoryGap::Dropped(ReplicaId::new(1))
    );
    let mut reset = section_4_3_2_journals();
    let seq = reset[0].1.len() as u64;
    let kind = EventKind::ReplicaReset {
        last_validated: GlobalTid::new(2),
        max_committed: GlobalTid::new(2),
    };
    reset[0].1.push(Event { seq, at_ns: seq, replica: ReplicaId::new(0), kind });
    assert_eq!(history_from_journals(&reset).unwrap_err(), HistoryGap::Reset(ReplicaId::new(0)));
    let twice = [&section_4_3_2_journals()[..], &section_4_3_2_journals()[2..]].concat();
    assert_eq!(
        history_from_journals(&twice).unwrap_err(),
        HistoryGap::Duplicate(ReplicaId::new(2))
    );
}
