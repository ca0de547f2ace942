//! The replica core (`core/src/replica.rs`) from tier-1: SRCA-Rep's
//! decisions checked on the pure state machine, with no thread, clock or
//! database — plain values in, decisions and events out.
//!
//! - Theorem 1: cores fed one total-order stream assign the same verdicts
//!   and tids, and each verdict is the paper's literal reverse scan;
//! - §4.3.3: a commit the hole rule admits while a begin waits and no local
//!   runs opens no hole, and a drained queue leaves none;
//! - recovery: a core started from another's state transfer decides the
//!   rest of the stream as the donor does;
//! - P7: an in-doubt inquiry answers "committed" only once the writeset
//!   has left the queue.

use proptest::prelude::*;
use si_rep::common::{EventKind, GlobalTid, MemberId, ReplicaId, XactId};
use si_rep::core::msg::{Outcome, WsMsg};
use si_rep::core::{InDoubt, ReplicaCore};
use si_rep::gcs::View;
use si_rep::storage::{Key, WriteSet, WsOp};
use std::collections::BTreeSet;
use std::sync::Arc;

const REPLICAS: u64 = 3;

/// A core of a gated (SRCA-Rep) replica that has installed the full view.
fn core() -> ReplicaCore {
    let mut core = ReplicaCore::new(true, 1024);
    let members = (0..REPLICAS).map(|r| MemberId::of(r, 0)).collect();
    core.view_change(View { id: 1, members });
    core
}

/// One multicast writeset of the stream: its origin, the keys it writes
/// (of four) and how far behind `lastvalidated` its cert is.
#[derive(Debug, Clone)]
struct Cast {
    origin: u64,
    keys: BTreeSet<i64>,
    lag: u64,
}

fn cast() -> impl Strategy<Value = Cast> {
    (0..REPLICAS, prop::collection::btree_set(0i64..4, 1..3), 0u64..4)
        .prop_map(|(origin, keys, lag)| Cast { origin, keys, lag })
}

/// The `n`-th writeset of a stream, its cert taken `lag` behind what the
/// stream has certified so far (a replica's `lastvalidated` at capture).
fn message(n: usize, c: &Cast, certified: GlobalTid) -> WsMsg {
    let mut ws = WriteSet::new();
    for &k in &c.keys {
        ws.push(Arc::from("t"), Key::single(k), WsOp::Delete);
    }
    WsMsg {
        origin: ReplicaId::new(c.origin),
        xact: XactId::new(ReplicaId::new(c.origin), n as u64 + 1),
        cert: GlobalTid::new(certified.raw().saturating_sub(c.lag)),
        ws: Arc::new(ws),
    }
}

/// Certify and queue `m` at `core`; the tid, or `None` for an abort. The
/// verdict must be the paper's literal scan of the same list.
fn certify(core: &mut ReplicaCore, m: &WsMsg) -> Result<Option<GlobalTid>, TestCaseError> {
    let passed = core.passes(m.cert, &m.ws);
    prop_assert_eq!(passed, core.ws_list().passes_scan(m.cert, &m.ws), "index vs scan");
    let d = core.deliver(m, passed, 0, false).expect("every xact is new");
    prop_assert_eq!(d.tid.is_some(), passed);
    Ok(d.tid)
}

/// Commit every queued entry, smallest ready first, as appliers would.
fn drain(core: &mut ReplicaCore) {
    loop {
        let batch = core.claim(usize::MAX);
        if batch.is_empty() {
            return;
        }
        core.commit(batch.iter().map(|e| (e.tid, e.xact)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Theorem 1: every replica runs the same certification on the same
    /// inputs in the same order, so all assign the same verdicts and tids —
    /// whatever each has committed meanwhile (one commits as it goes, one
    /// in bursts, one never).
    #[test]
    fn replicas_fed_one_stream_assign_the_same_verdicts_and_tids(
        stream in prop::collection::vec((cast(), 0u8..4), 1..80),
    ) {
        let mut cores = [core(), core(), core()];
        for (n, (c, burst)) in stream.iter().enumerate() {
            let m = message(n, c, cores[0].last_validated());
            let mut verdicts = Vec::new();
            for core in &mut cores {
                verdicts.push(certify(core, &m)?);
            }
            prop_assert!(verdicts.iter().all(|v| *v == verdicts[0]), "{:?}", verdicts);
            drain(&mut cores[0]);
            if *burst == 0 {
                drain(&mut cores[1]);
            }
        }
    }

    /// §4.3.3: while a begin waits and no local runs, the rule admits only
    /// commits that open no new hole; every smallest pending tid is
    /// admitted, so the queue drains, and then no hole is left.
    #[test]
    fn the_hole_rule_admits_no_hole_while_a_begin_waits(
        stream in prop::collection::vec(cast(), 1..24),
        ops in prop::collection::vec((0u8..5, 0usize..8), 1..120),
    ) {
        let mut core = core();
        for (n, c) in stream.iter().enumerate() {
            let m = message(n, c, core.last_validated());
            certify(&mut core, &m)?;
        }
        let mut claimed: Vec<(GlobalTid, XactId)> = Vec::new();
        let (mut waiting, mut running) = (0, 0);
        let begin = XactId::new(ReplicaId::new(0), 1 << 20);
        for (op, i) in ops {
            match op {
                0 => claimed.extend(core.claim(i % 3 + 1).iter().map(|e| (e.tid, e.xact))),
                1 if !claimed.is_empty() => {
                    let (tid, xact) = claimed[i % claimed.len()];
                    if !core.may_commit(tid) {
                        continue;
                    }
                    let strict = waiting > 0 && running == 0;
                    claimed.retain(|&(t, _)| t != tid);
                    let (commits, _) = core.commit([(tid, xact)]);
                    let opened = matches!(commits[0].0, Some(EventKind::HoleOpened { .. }));
                    prop_assert!(!(strict && opened), "tid {} opened a hole past the rule", tid);
                }
                2 if core.holes_exist() => {
                    core.wait_begin();
                    waiting += 1;
                }
                2 | 3 if !core.holes_exist() => {
                    let waited = op == 3 && waiting > 0;
                    waiting -= usize::from(waited);
                    core.begin(begin, waited);
                    running += 1;
                }
                4 if running > 0 => {
                    core.local_finished();
                    running -= 1;
                }
                _ => {}
            }
        }
        // Drain as the appliers do, committing only what the rule admits:
        // the smallest pending tid always is.
        while core.sizes().queued > 0 {
            claimed.extend(core.claim(usize::MAX).iter().map(|e| (e.tid, e.xact)));
            let admitted: Vec<_> =
                claimed.iter().copied().filter(|&(tid, _)| core.may_commit(tid)).collect();
            prop_assert!(!admitted.is_empty(), "the queue is stuck: {:?}", claimed);
            for (tid, xact) in admitted {
                if core.may_commit(tid) {
                    claimed.retain(|&(t, _)| t != tid);
                    core.commit([(tid, xact)]);
                }
            }
        }
        prop_assert!(!core.holes_exist(), "a drained queue left a hole");
    }

    /// Recovery (§8): a core started from another's state transfer —
    /// mid-stream, with entries queued, claimed and holes open — decides
    /// the rest of the stream as its donor does.
    #[test]
    fn a_transferred_core_decides_the_rest_of_the_stream_as_its_donor(
        stream in prop::collection::vec(cast(), 2..60),
        split in 0usize..60,
        commits in 0usize..8,
    ) {
        let split = split % stream.len();
        let mut donor = core();
        for (n, c) in stream[..split].iter().enumerate() {
            let m = message(n, c, donor.last_validated());
            certify(&mut donor, &m)?;
        }
        // Commit a few claimed entries out of order, leaving holes.
        let claimed = donor.claim(usize::MAX);
        donor.commit(claimed.iter().rev().take(commits).map(|e| (e.tid, e.xact)));
        let (mut joiner, _reset) = donor.transfer(0);
        for (n, c) in stream.iter().enumerate().skip(split) {
            let m = message(n, c, donor.last_validated());
            prop_assert_eq!(certify(&mut joiner, &m)?, certify(&mut donor, &m)?);
        }
        drain(&mut joiner);
        prop_assert!(!joiner.holes_exist() && joiner.sizes().queued == 0);
    }

    /// P7: a verdict is recorded at delivery, but "committed" is promised
    /// to a failed-over client only once the writeset has left the queue —
    /// claimed but uncommitted is not yet.
    #[test]
    fn an_inquiry_answers_committed_only_after_the_commit(
        stream in prop::collection::vec(cast(), 1..40),
        ops in prop::collection::vec((any::<bool>(), 0usize..8), 0..60),
    ) {
        let mut core = core();
        let mut queued: Vec<(GlobalTid, XactId)> = Vec::new();
        let mut decided = Vec::new();
        for (n, c) in stream.iter().enumerate() {
            let m = message(n, c, core.last_validated());
            if let Some(tid) = certify(&mut core, &m)? {
                queued.push((tid, m.xact));
            }
            decided.push(m.xact);
        }
        let mut claimed = Vec::new();
        for (commit, i) in ops {
            if commit && !claimed.is_empty() {
                let (tid, xact) = claimed.remove(i % claimed.len());
                queued.retain(|&(t, _)| t != tid);
                core.commit([(tid, xact)]);
            } else {
                claimed.extend(core.claim(1).iter().map(|e| (e.tid, e.xact)));
            }
            for &xact in &decided {
                let still_queued = queued.iter().any(|&(_, x)| x == xact);
                let answer = core.inquire(xact);
                match core.outcome(xact) {
                    Some(Outcome::Committed) if still_queued => prop_assert_eq!(answer, None),
                    Some(o) => prop_assert_eq!(answer, Some(InDoubt::Known(o))),
                    None => prop_assert!(false, "{:?} was delivered", xact),
                }
            }
        }
    }
}
