//! 1-copy-SI auditor tests.
//!
//! One checker (`si_rep::core::Checker`) runs online behind `Auditor`,
//! offline in `audit_scraped_journals`, and over model traces; these tests
//! drive all of it through that one `EventKind` vocabulary:
//!
//! - clean protocol runs report zero violations in every mode, live and
//!   over their own journals — including over *every suffix* of those
//!   journals, which is what a wrapped ring hands the offline audit;
//! - each invariant of the table in DESIGN.md §10 is tripped once by a
//!   crafted event sequence (the live protocol, correctly, never produces
//!   one, so this is the only way to prove the checker would fire).

use si_rep::common::{Event, EventKind, GlobalTid, ReplicaId, XactId};
use si_rep::core::{
    audit_scraped_journals, AuditKind, AuditViolation, Checker, Cluster, ClusterConfig, Connection,
    ReplicationMode, VIOLATION_CAP,
};
use std::sync::Arc;
use std::time::Duration;

const Q: Duration = Duration::from_secs(20);

fn run_small_workload(mode: ReplicationMode) -> Cluster {
    let c = Cluster::new(ClusterConfig::builder().replicas(3).mode(mode).build());
    c.execute_ddl("CREATE TABLE acc (id INT, bal INT, PRIMARY KEY (id))").unwrap();
    let mut s = c.session(0);
    for id in 0..8 {
        s.execute(&format!("INSERT INTO acc VALUES ({id}, 100)")).unwrap();
    }
    s.commit().unwrap();
    // Concurrent writers from two replicas, with real conflicts.
    let mut a = c.session(1);
    let mut b = c.session(2);
    for i in 0..10 {
        a.execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {}", i % 8)).unwrap();
        let _ = a.commit(); // validation aborts are fine — the auditor watches
        b.execute(&format!("UPDATE acc SET bal = bal - 1 WHERE id = {}", (i + 3) % 8)).unwrap();
        let _ = b.commit(); // the verdicts, not the outcome
    }
    assert!(c.quiesce(Q), "cluster failed to drain");
    c
}

/// Clean runs of both decentralized protocols keep the auditor clean, live
/// and over their journals.
#[test]
fn clean_runs_report_no_violations() {
    for mode in [ReplicationMode::SrcaRep, ReplicationMode::SrcaOpt] {
        let c = run_small_workload(mode);
        let report = c.metrics();
        assert!(
            report.violations.is_empty(),
            "{mode:?} tripped the auditor: {:?}",
            report.violations
        );
        assert!(c.audit_is_clean());
        assert_eq!(audit_scraped_journals(&c.journal_events()), Vec::new(), "{mode:?}");
    }
}

/// Suffix closure — the guard on the benchmark's correctness gate, which
/// audits 8 192-event rings cut out of ≈ 100 k-transaction runs: whatever a
/// clean run journals must audit clean from *any* starting point. Conflicting
/// writers on two replicas and a reader run long enough for the rings to
/// really wrap, while the third replica crashes and recovers (its journal
/// restarts with a `ReplicaReset`).
#[test]
fn every_suffix_of_a_clean_runs_journals_audits_clean() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const UPDATES_PER_WRITER: usize = 1300;
    let c = Arc::new(Cluster::new(ClusterConfig::builder().replicas(3).build()));
    c.execute_ddl("CREATE TABLE acc (id INT, bal INT, PRIMARY KEY (id))").unwrap();
    let mut s = c.session(0);
    for id in 0..8 {
        s.execute(&format!("INSERT INTO acc VALUES ({id}, 100)")).unwrap();
    }
    s.commit().unwrap();
    assert!(c.quiesce(Q));

    let done = AtomicUsize::new(0);
    let wait_for = |n: usize| {
        let deadline = std::time::Instant::now() + 3 * Q;
        while done.load(Ordering::Acquire) < n {
            assert!(std::time::Instant::now() < deadline, "writers stalled");
            std::thread::yield_now();
        }
    };
    std::thread::scope(|scope| {
        for k in 0..2 {
            let (c, done) = (&c, &done);
            scope.spawn(move || {
                let mut s = c.session(k);
                for i in 0..UPDATES_PER_WRITER {
                    // Engine and validation aborts are the point: the
                    // auditor watches the verdicts, not the outcome.
                    let id = (i * (k + 2) + k) % 8;
                    let sql = format!("UPDATE acc SET bal = bal + 1 WHERE id = {id}");
                    if s.execute(&sql).and_then(|_| s.commit()).is_err() {
                        s.rollback();
                    }
                    if i % 4 == k {
                        s.execute("SELECT bal FROM acc WHERE id = 3").unwrap();
                        s.commit().unwrap(); // read-only fast path
                    }
                    done.fetch_add(1, Ordering::Release);
                }
            });
        }
        // Crash the pure applier mid-run; bring it back for the last fifth.
        wait_for(UPDATES_PER_WRITER);
        c.crash(2);
        wait_for(2 * UPDATES_PER_WRITER * 4 / 5);
        c.recover(2).unwrap();
        let mut s = c.session(2);
        for _ in 0..20 {
            s.execute("SELECT bal FROM acc WHERE id = 1").unwrap();
            s.commit().unwrap();
        }
    });
    assert!(c.quiesce(Q), "cluster failed to drain");
    let live = c.metrics().violations;
    assert!(live.is_empty(), "online auditor tripped: {live:?}");

    let journals = c.journal_events();
    assert_eq!(journals.len(), 3);
    for (replica, events) in &journals[..2] {
        assert!(events[0].seq > 0, "{replica}'s ring did not wrap: the test lost its point");
    }
    assert!(
        matches!(journals[2].1[0], Event { seq: 0, kind: EventKind::ReplicaReset { .. }, .. }),
        "the recovered replica's journal starts with its reset: {:?}",
        journals[2].1[0]
    );
    assert_eq!(audit_scraped_journals(&journals), Vec::new(), "full journals");

    // Every suffix of the recovered replica's journal and of the last 1000
    // events of the wrapped ones, every 101st suffix of the rest.
    for (replica, events) in &journals {
        let dense_from = if events[0].seq == 0 { 0 } else { events.len() - 1000 };
        for k in (0..dense_from).step_by(101).chain(dense_from..events.len()) {
            let v = audit_scraped_journals(&[(*replica, events[k..].to_vec())]);
            assert!(v.is_empty(), "{replica} cut at {k} (seq {}): {v:?}", events[k].seq);
        }
    }
    // All replicas cut independently: the cross-journal checks see slices
    // that overlap every which way.
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..40 {
        let mut cuts = Vec::new();
        let cut: Vec<(ReplicaId, Vec<Event>)> = journals
            .iter()
            .map(|(replica, events)| {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let k = (rng >> 33) as usize % events.len();
                cuts.push(k);
                (*replica, events[k..].to_vec())
            })
            .collect();
        let v = audit_scraped_journals(&cut);
        assert!(v.is_empty(), "cuts {cuts:?}: {v:?}");
    }
}

// ----------------------------------------------------------------------
// Each invariant tripped once, through the one API
// ----------------------------------------------------------------------

const R0: ReplicaId = ReplicaId::new(0);
const R1: ReplicaId = ReplicaId::new(1);

fn t(n: u64) -> GlobalTid {
    GlobalTid::new(n)
}

fn x(origin: u64, n: u64) -> XactId {
    XactId::new(ReplicaId::new(origin), n)
}

fn pass(xact: XactId, cert: u64, tid: u64, keys: &[u64]) -> EventKind {
    EventKind::ValidationVerdict { xact, cert: t(cert), tid: Some(t(tid)), keys: keys.into() }
}

fn fail(xact: XactId, cert: u64) -> EventKind {
    EventKind::ValidationVerdict { xact, cert: t(cert), tid: None, keys: Arc::default() }
}

fn commit(xact: XactId, tid: u64) -> EventKind {
    EventKind::Commit { xact, tid: t(tid) }
}

fn begin(gated: bool) -> EventKind {
    EventKind::TxBegin { xact: x(0, 99), gated }
}

fn pruned(watermark: u64) -> EventKind {
    EventKind::WsListPruned { watermark: t(watermark), removed: 1 }
}

/// Feed `(replica, event)` pairs to a fresh checker (every replica observed
/// from its start, streams not finished).
fn check(events: &[(ReplicaId, EventKind)]) -> Vec<AuditViolation> {
    let mut c = Checker::default();
    for (replica, kind) in events {
        c.observe(*replica, kind);
    }
    c.violations().to_vec()
}

fn kinds(v: &[AuditViolation]) -> Vec<AuditKind> {
    v.iter().map(|v| v.kind).collect()
}

/// One scraped journal: `events` numbered from `first_seq`.
fn journal(replica: ReplicaId, first_seq: u64, events: Vec<EventKind>) -> (ReplicaId, Vec<Event>) {
    let events = events
        .into_iter()
        .zip(first_seq..)
        .map(|(kind, seq)| Event { seq, at_ns: seq * 1000, replica, kind })
        .collect();
    (replica, events)
}

/// A clean two-replica history: same verdicts, increasing tids, a properly
/// paired hole, a gated begin and a read-only snapshot outside it, monotone
/// pruning, deliveries above the watermark.
fn clean_journal(replica: ReplicaId) -> (ReplicaId, Vec<Event>) {
    let deliver = |xact, cert| EventKind::TotalOrderDeliver { xact, cert: t(cert) };
    journal(
        replica,
        0,
        vec![
            deliver(x(0, 1), 0),
            pass(x(0, 1), 0, 1, &[1]),
            deliver(x(1, 1), 0),
            pass(x(1, 1), 0, 2, &[2]),
            deliver(x(0, 2), 1),
            fail(x(0, 2), 1),
            commit(x(1, 1), 2),
            EventKind::HoleOpened { tid: t(2) },
            commit(x(0, 1), 1),
            EventKind::HoleClosed { tid: t(1) },
            begin(true),
            EventKind::LocalReadOnly {
                xact: x(0, 99),
                snapshot: t(2),
                gated: true,
                reads: Arc::default(),
            },
            pruned(1),
            pruned(2),
            deliver(x(1, 2), 2),
            pass(x(1, 2), 2, 3, &[1, 2]), // same keys, serialized after both
            commit(x(1, 2), 3),
        ],
    )
}

#[test]
fn clean_history_has_no_violations() {
    assert_eq!(audit_scraped_journals(&[clean_journal(R0), clean_journal(R1)]), Vec::new());
}

/// #1 (Theorem 1): every replica reaches the same verdict for the same
/// delivered writeset — online and across scraped journals.
#[test]
fn row1_divergent_verdicts() {
    let v = check(&[(R0, pass(x(0, 1), 0, 1, &[1])), (R1, fail(x(0, 1), 0))]);
    assert_eq!(kinds(&v), [AuditKind::CommitOrderDivergence]);
    assert_eq!(v[0].replica, R1);
    // Same tid-vs-tid: a different tid is a divergence too.
    let v = check(&[(R0, pass(x(0, 1), 0, 1, &[1])), (R1, pass(x(0, 1), 0, 2, &[1]))]);
    assert_eq!(kinds(&v), [AuditKind::CommitOrderDivergence]);

    let mut js = [clean_journal(R0), clean_journal(R1)];
    js[1].1[1].kind = fail(x(0, 1), 0);
    let v = audit_scraped_journals(&js);
    assert!(v.iter().any(|v| v.detail.contains("first reporter saw")), "{v:?}");
    assert!(v.iter().all(|v| v.replica == R1 && v.kind == AuditKind::CommitOrderDivergence));
}

/// #2: validation-pass tids strictly increase per replica.
#[test]
fn row2_non_monotone_pass_tids() {
    let v = check(&[(R0, pass(x(0, 1), 0, 5, &[1])), (R0, pass(x(0, 2), 0, 5, &[2]))]);
    assert_eq!(kinds(&v), [AuditKind::CommitOrderDivergence]);
    assert!(v[0].detail.contains("not above"), "{}", v[0].detail);
}

/// #3: a commit's tid equals its verdict's tid; a commit whose verdict was
/// never seen (truncated away, or transferred during recovery) is skipped.
#[test]
fn row3_commit_contradicting_verdict() {
    let v = check(&[(R0, pass(x(2, 1), 0, 3, &[1])), (R0, commit(x(2, 1), 4))]);
    assert_eq!(kinds(&v), [AuditKind::CommitOrderDivergence]);
    assert!(v[0].detail.contains("certification assigned"), "{}", v[0].detail);
    assert_eq!(check(&[(R0, commit(x(2, 1), 4))]), Vec::new());
}

/// #4 first-committer-wins: two concurrent passes with intersecting
/// writesets; a conflicting pass certified *after* the first is fine.
#[test]
fn row4_conflicting_concurrent_passes() {
    let v = check(&[(R0, pass(x(0, 1), 0, 1, &[7])), (R0, pass(x(1, 1), 0, 2, &[7, 9]))]);
    assert_eq!(kinds(&v), [AuditKind::FirstCommitterWins]);
    // Each replica reports the pair; only first reports are cross-checked.
    let v = check(&[
        (R0, pass(x(0, 1), 0, 1, &[7])),
        (R0, pass(x(1, 1), 0, 2, &[7])),
        (R1, pass(x(0, 1), 0, 1, &[7])),
        (R1, pass(x(1, 1), 0, 2, &[7])),
    ]);
    assert_eq!(kinds(&v), [AuditKind::FirstCommitterWins]);
    assert_eq!(
        check(&[(R0, pass(x(0, 1), 0, 1, &[7])), (R0, pass(x(1, 1), 1, 2, &[7]))]),
        Vec::new()
    );
    assert_eq!(
        check(&[(R0, pass(x(0, 1), 0, 1, &[7])), (R0, pass(x(1, 1), 0, 2, &[8]))]),
        Vec::new()
    );
}

/// #4 offline — impossible before verdicts carried key digests: two scraped
/// journals, each holding one of two concurrent passes on a shared key (R1's
/// ring has already dropped the first). Also the out-of-order direction: the
/// older pass is met second.
#[test]
fn row4_offline_across_scraped_journals() {
    let older = journal(R0, 0, vec![pass(x(0, 1), 0, 1, &[7])]);
    let newer = journal(R1, 500, vec![pass(x(1, 1), 0, 2, &[7, 9])]);
    for js in [[older.clone(), newer.clone()], [newer, older]] {
        let v = audit_scraped_journals(&js);
        assert_eq!(kinds(&v), [AuditKind::FirstCommitterWins], "{v:?}");
    }
}

/// #5: no writeset is delivered with its cert below a watermark that pruned.
/// #6: the watermark never regresses (equal is fine).
#[test]
fn row5_row6_prune_watermark() {
    let stale = EventKind::TotalOrderDeliver { xact: x(1, 9), cert: t(3) };
    let v = check(&[(R0, pruned(5)), (R0, pruned(5)), (R0, stale.clone())]);
    assert_eq!(kinds(&v), [AuditKind::PruneWatermarkViolation]);
    assert!(v[0].detail.contains("below prune watermark"), "{}", v[0].detail);
    let v = check(&[(R0, pruned(9)), (R0, pruned(4))]);
    assert_eq!(kinds(&v), [AuditKind::PruneWatermarkViolation]);
    assert!(v[0].detail.contains("regressed"), "{}", v[0].detail);
    // The regression does not lower what later deliveries are held to.
    let v = check(&[(R0, pruned(9)), (R0, pruned(4)), (R0, stale)]);
    assert_eq!(v.len(), 2);
}

/// #7 (adjustment 3): a hole-gated begin never happens with a validated tid
/// uncommitted below the commit frontier. SRCA-Opt begins say `gated: false`
/// and are not held to it; once the hole drains, begins are clean again.
#[test]
fn row7_begin_during_hole() {
    let hole = [
        (R0, pass(x(0, 1), 0, 1, &[1])),
        (R0, pass(x(0, 2), 0, 2, &[2])),
        (R0, commit(x(0, 2), 2)), // tid 1 is now a hole at R0
    ];
    let then = |more: &[EventKind]| {
        check(&hole.iter().cloned().chain(more.iter().map(|k| (R0, k.clone()))).collect::<Vec<_>>())
    };
    assert_eq!(kinds(&then(&[begin(true)])), [AuditKind::HoleSyncViolation]);
    assert_eq!(then(&[begin(false)]), Vec::new());
    assert_eq!(then(&[commit(x(0, 1), 1), begin(true)]), Vec::new());
}

/// #8: a read-only snapshot never claims commits from the future and, when
/// gated, is hole-free at or below it.
#[test]
fn row8_read_only_snapshot() {
    let ro = |snapshot, gated| EventKind::LocalReadOnly {
        xact: x(0, 9),
        snapshot: t(snapshot),
        gated,
        reads: Arc::default(),
    };
    let v = check(&[(R0, pass(x(0, 1), 0, 1, &[1])), (R0, commit(x(0, 1), 1)), (R0, ro(2, true))]);
    assert_eq!(kinds(&v), [AuditKind::HoleSyncViolation]);
    assert!(v[0].detail.contains("above max committed"), "{}", v[0].detail);

    let hole = [
        (R0, pass(x(0, 1), 0, 1, &[1])),
        (R0, pass(x(0, 2), 0, 2, &[2])),
        (R0, commit(x(0, 2), 2)),
    ];
    let with = |k: EventKind| check(&hole.iter().cloned().chain([(R0, k)]).collect::<Vec<_>>());
    let v = with(ro(2, true));
    assert_eq!(kinds(&v), [AuditKind::HoleSyncViolation]);
    assert!(v[0].detail.contains("uncommitted below it"), "{}", v[0].detail);
    assert_eq!(with(ro(2, false)), Vec::new(), "SRCA-Opt forgoes the hole rule");
    assert_eq!(with(ro(0, true)), Vec::new(), "snapshot below the hole");
}

/// #9: hole open/close events alternate, and none is open when a quiesced
/// stream ends. Open and close are tagged with the commit that *caused* the
/// transition, so their tids differ by design.
#[test]
fn row9_hole_alternation() {
    let open = |n| EventKind::HoleOpened { tid: t(n) };
    let close = |n| EventKind::HoleClosed { tid: t(n) };
    assert_eq!(audit_scraped_journals(&[journal(R0, 0, vec![open(213), close(165)])]), Vec::new());

    let v = audit_scraped_journals(&[journal(R0, 0, vec![open(3), open(4), close(5)])]);
    assert_eq!(kinds(&v), [AuditKind::HoleSyncViolation]);
    assert!(v[0].detail.contains("already open"), "{}", v[0].detail);

    let v = audit_scraped_journals(&[journal(R0, 0, vec![close(7)])]);
    assert_eq!(kinds(&v), [AuditKind::HoleSyncViolation]);
    assert!(v[0].detail.contains("without a recorded open"), "{}", v[0].detail);

    let v = audit_scraped_journals(&[journal(R1, 0, vec![open(3)])]);
    assert_eq!(kinds(&v), [AuditKind::HoleSyncViolation]);
    assert!(v[0].detail.contains("still open"), "{}", v[0].detail);
    assert_eq!(v[0].replica, R1);
}

/// Unknown prefix — a ring-truncated journal (first `seq` > 0) and a replica
/// that rejoined from a state transfer are the same mode: the hole state is
/// adopted from the first hole event, the read-only upper bound waits for a
/// known frontier, and nothing seen before the cut is held against it.
#[test]
fn unknown_prefix_suppresses_exactly_what_it_cannot_know() {
    let close = EventKind::HoleClosed { tid: t(7) };
    let ro = EventKind::LocalReadOnly {
        xact: x(0, 9),
        snapshot: t(40),
        gated: true,
        reads: Arc::default(),
    };
    // Truncated: the open, and the commits behind snapshot 40, were dropped.
    assert_eq!(
        audit_scraped_journals(&[journal(R0, 10, vec![close.clone(), ro.clone()])]),
        Vec::new()
    );
    // The same events from seq 0 are two violations.
    assert_eq!(audit_scraped_journals(&[journal(R0, 0, vec![close.clone(), ro.clone()])]).len(), 2);

    // A reset supplies the frontier: the upper bound is checked again, while
    // hole state and pending tids restart unknown.
    let reset = |max| EventKind::ReplicaReset { last_validated: t(50), max_committed: t(max) };
    let stale_hole = [
        (R0, pass(x(0, 1), 0, 1, &[1])),
        (R0, pass(x(0, 2), 0, 2, &[2])),
        (R0, commit(x(0, 2), 2)), // hole: tid 1 — then R0 crashes and recovers
    ];
    let after = |more: Vec<EventKind>| {
        check(
            &stale_hole
                .iter()
                .cloned()
                .chain(more.into_iter().map(|k| (R0, k)))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(after(vec![reset(40), begin(true), close.clone(), ro.clone()]), Vec::new());
    let v = after(vec![reset(39), ro]);
    assert_eq!(kinds(&v), [AuditKind::HoleSyncViolation]);
    // Certification resumes above the transferred `last_validated`.
    let v = after(vec![reset(40), pass(x(1, 5), 50, 50, &[5])]);
    assert_eq!(kinds(&v), [AuditKind::CommitOrderDivergence]);
    assert_eq!(after(vec![reset(40), pass(x(1, 5), 50, 51, &[5])]), Vec::new());
}

/// A restarted node exports a fresh journal under the same replica id:
/// per-stream state (watermarks, holes) must not leak across entries.
#[test]
fn duplicate_replica_entries_are_independent_streams() {
    let js = [journal(R0, 0, vec![pruned(9)]), journal(R0, 0, vec![pruned(1)])];
    assert_eq!(audit_scraped_journals(&js), Vec::new());
}

#[test]
fn violation_count_is_capped() {
    let closes = (0..VIOLATION_CAP as u64 + 40).map(|i| EventKind::HoleClosed { tid: t(i) });
    let v = audit_scraped_journals(&[journal(R0, 0, closes.collect())]);
    assert_eq!(v.len(), VIOLATION_CAP);
}

/// The online wrapper: `Auditor::reporter` is the one call that feeds both
/// the checker and the journal ring.
#[test]
fn auditor_report_feeds_checker_and_journal() {
    use si_rep::common::JournalWriter;
    use si_rep::core::replica::Report;
    use si_rep::core::Auditor;
    let a = Auditor::new();
    let mut j = JournalWriter::new(R0);
    a.reporter(&mut j).report(pass(x(0, 1), 0, 1, &[7]), &[]);
    assert!(a.is_clean());
    a.reporter(&mut j).report(pass(x(1, 1), 0, 2, &[7]), &[]);
    assert!(!a.is_clean());
    assert_eq!(kinds(&a.violations()), vec![AuditKind::FirstCommitterWins]);
    assert_eq!(j.len(), 2);
    // What went into the ring is what the offline audit then sees.
    assert_eq!(audit_scraped_journals(&[(R0, j.snapshot())]).len(), 1);
}
