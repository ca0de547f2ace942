//! The replica core (`core/src/replica.rs`) from tier-1: SRCA-Rep's
//! decisions checked on the pure state machine, with no thread, clock or
//! database — plain values in, decisions out, and the events it reports
//! recorded by a sink that feeds them to the auditor's checker.
//!
//! - Theorem 1: cores fed one total-order stream assign the same verdicts
//!   and tids, and each verdict is the paper's literal reverse scan;
//! - §4.3.3: a commit the hole rule admits while a begin waits and no local
//!   runs opens no hole, and a drained queue leaves none;
//! - recovery: a core started from another's state transfer decides the
//!   rest of the stream as the donor does;
//! - P7: an in-doubt inquiry answers "committed" only once the writeset
//!   has left the queue;
//! - the journal: every event three cores report, in order, is a stream
//!   the auditor's checker accepts.

use proptest::prelude::*;
use si_rep::common::{EventKind, GlobalTid, MemberId, ReplicaId, Stage, XactId};
use si_rep::core::msg::{Outcome, WsMsg};
use si_rep::core::replica::Report;
use si_rep::core::{Checker, InDoubt, ReplicaCore};
use si_rep::gcs::View;
use si_rep::storage::{Key, WriteSet, WsOp};
use std::collections::BTreeSet;
use std::sync::Arc;

const REPLICAS: u64 = 3;

/// The auditor's checker fed every event the cores report, in order, and
/// the events of the last transition.
#[derive(Default)]
struct Audit {
    checker: Checker,
    last: Vec<EventKind>,
}

impl Audit {
    /// The sink for one transition of replica `r`'s core.
    fn at(&mut self, r: u64) -> At<'_> {
        self.last.clear();
        At(self, ReplicaId::new(r))
    }
}

/// A recording sink (see [`Audit::at`]).
struct At<'a>(&'a mut Audit, ReplicaId);

impl Report for At<'_> {
    fn report(&mut self, kind: EventKind, _ends: &[(Stage, u64)]) -> u64 {
        self.0.checker.observe(self.1, &kind);
        self.0.last.push(kind);
        0
    }
}

/// A core of a gated (SRCA-Rep) replica that has installed the full view.
fn core() -> ReplicaCore {
    let mut core = ReplicaCore::new(true, 1024);
    let members = (0..REPLICAS).map(|r| MemberId::of(r, 0)).collect();
    core.view_change(View { id: 1, members }, &mut Audit::default().at(0));
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
fn certify(
    core: &mut ReplicaCore,
    m: &WsMsg,
    sink: &mut At<'_>,
) -> Result<Option<GlobalTid>, TestCaseError> {
    let passed = core.passes(m.cert, &m.ws);
    prop_assert_eq!(passed, core.ws_list().passes_scan(m.cert, &m.ws), "index vs scan");
    let d = core.deliver(m, passed, 0, false, sink).expect("every xact is new");
    prop_assert_eq!(d.tid.is_some(), passed);
    Ok(d.tid)
}

/// Commit every queued entry, smallest ready first, as appliers would.
fn drain(core: &mut ReplicaCore, sink: &mut At<'_>) {
    loop {
        let batch = core.claim(usize::MAX, sink);
        if batch.is_empty() {
            return;
        }
        core.commit(batch.iter().map(|e| (e.tid, e.xact, 0)), None, sink);
    }
}

/// Commit every queued entry as appliers do, only what the hole rule
/// admits — the smallest pending tid always is —, after those `claimed`.
fn drain_admitted(
    core: &mut ReplicaCore,
    claimed: &mut Vec<(GlobalTid, XactId)>,
    sink: &mut At<'_>,
) -> Result<(), TestCaseError> {
    while core.sizes().queued > 0 {
        claimed.extend(core.claim(usize::MAX, sink).iter().map(|e| (e.tid, e.xact)));
        let admitted: Vec<_> =
            claimed.iter().copied().filter(|&(tid, _)| core.may_commit(tid)).collect();
        prop_assert!(!admitted.is_empty(), "the queue is stuck: {:?}", claimed);
        for (tid, xact) in admitted {
            if core.may_commit(tid) {
                claimed.retain(|&(t, _)| t != tid);
                core.commit([(tid, xact, 0)], None, sink);
            }
        }
    }
    Ok(())
}

/// One core's applier claims and local begins, driven by a random schedule.
#[derive(Default)]
struct Schedule {
    claimed: Vec<(GlobalTid, XactId)>,
    waiting: usize,
    running: usize,
}

impl Schedule {
    /// Op `op` on `core`, picking with `i`: 0 claims, 1 commits a claimed
    /// entry the hole rule admits, 2 begins a local (or waits, with holes
    /// open), 3 resumes a waiting begin, 4 ends a local. A commit returns
    /// its tid and whether a begin waited while no local ran.
    fn step(
        &mut self,
        core: &mut ReplicaCore,
        op: u8,
        i: usize,
        sink: &mut At<'_>,
    ) -> Option<(GlobalTid, bool)> {
        let begin = XactId::new(ReplicaId::new(0), 1 << 20);
        match op {
            0 => self.claimed.extend(core.claim(i % 3 + 1, sink).iter().map(|e| (e.tid, e.xact))),
            1 if !self.claimed.is_empty() => {
                let (tid, xact) = self.claimed[i % self.claimed.len()];
                if core.may_commit(tid) {
                    let strict = self.waiting > 0 && self.running == 0;
                    self.claimed.retain(|&(t, _)| t != tid);
                    core.commit([(tid, xact, 0)], None, sink);
                    return Some((tid, strict));
                }
            }
            2 if core.holes_exist() => {
                core.wait_begin();
                self.waiting += 1;
            }
            2 | 3 if !core.holes_exist() => {
                let waited = op == 3 && self.waiting > 0;
                self.waiting -= usize::from(waited);
                core.begin(begin, waited.then_some(0), sink);
                self.running += 1;
            }
            4 if self.running > 0 => {
                core.local_finished();
                self.running -= 1;
            }
            _ => {}
        }
        None
    }
}

/// Deliver the `n`-th writeset of `stream` to `core`; the first core to
/// get there makes it, its cert no lower than its origin's last — a
/// replica's certs are progress promises.
fn deliver_nth(
    core: &mut ReplicaCore,
    n: usize,
    stream: &[Cast],
    made: &mut Vec<WsMsg>,
    sink: &mut At<'_>,
) -> Result<(), TestCaseError> {
    if made.len() == n {
        let mut m = message(n, &stream[n], core.last_validated());
        let last = made.iter().rev().find(|p| p.origin == m.origin).map(|p| p.cert);
        m.cert = m.cert.max(last.unwrap_or(GlobalTid::ZERO));
        made.push(m);
    }
    certify(core, &made[n], sink).map(drop)
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
        let mut audit = Audit::default();
        let mut cores = [core(), core(), core()];
        for (n, (c, burst)) in stream.iter().enumerate() {
            let m = message(n, c, cores[0].last_validated());
            let mut verdicts = Vec::new();
            for (r, core) in cores.iter_mut().enumerate() {
                verdicts.push(certify(core, &m, &mut audit.at(r as u64))?);
            }
            prop_assert!(verdicts.iter().all(|v| *v == verdicts[0]), "{:?}", verdicts);
            drain(&mut cores[0], &mut audit.at(0));
            if *burst == 0 {
                drain(&mut cores[1], &mut audit.at(1));
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
        let mut audit = Audit::default();
        let mut core = core();
        for (n, c) in stream.iter().enumerate() {
            let m = message(n, c, core.last_validated());
            certify(&mut core, &m, &mut audit.at(0))?;
        }
        let mut schedule = Schedule::default();
        for (op, i) in ops {
            let Some((tid, strict)) = schedule.step(&mut core, op, i, &mut audit.at(0)) else {
                continue;
            };
            let opened = audit.last.iter().any(|e| matches!(e, EventKind::HoleOpened { .. }));
            prop_assert!(!(strict && opened), "tid {} opened a hole past the rule", tid);
        }
        // Drain as the appliers do, committing only what the rule admits:
        // the smallest pending tid always is.
        drain_admitted(&mut core, &mut schedule.claimed, &mut audit.at(0))?;
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
        let mut audit = Audit::default();
        let mut donor = core();
        for (n, c) in stream[..split].iter().enumerate() {
            let m = message(n, c, donor.last_validated());
            certify(&mut donor, &m, &mut audit.at(0))?;
        }
        // Commit a few claimed entries out of order, leaving holes.
        let claimed = donor.claim(usize::MAX, &mut audit.at(0));
        let out_of_order = claimed.iter().rev().take(commits).map(|e| (e.tid, e.xact, 0));
        donor.commit(out_of_order, None, &mut audit.at(0));
        let mut joiner = donor.transfer();
        joiner.reset(&mut audit.at(1));
        for (n, c) in stream.iter().enumerate().skip(split) {
            let m = message(n, c, donor.last_validated());
            let joined = certify(&mut joiner, &m, &mut audit.at(1))?;
            prop_assert_eq!(joined, certify(&mut donor, &m, &mut audit.at(0))?);
        }
        drain(&mut joiner, &mut audit.at(1));
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
        let mut audit = Audit::default();
        let mut core = core();
        let mut queued: Vec<(GlobalTid, XactId)> = Vec::new();
        let mut decided = Vec::new();
        for (n, c) in stream.iter().enumerate() {
            let m = message(n, c, core.last_validated());
            if let Some(tid) = certify(&mut core, &m, &mut audit.at(0))? {
                queued.push((tid, m.xact));
            }
            decided.push(m.xact);
        }
        let mut claimed = Vec::new();
        for (commit, i) in ops {
            if commit && !claimed.is_empty() {
                let (tid, xact) = claimed.remove(i % claimed.len());
                queued.retain(|&(t, _)| t != tid);
                core.commit([(tid, xact, 0)], None, &mut audit.at(0));
            } else {
                claimed.extend(core.claim(1, &mut audit.at(0)).iter().map(|e| (e.tid, e.xact)));
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

    /// The journal (DESIGN.md §10): three cores fed one stream, each
    /// delivering, claiming, committing what the hole rule admits and
    /// beginning and ending locals on its own schedule, then draining —
    /// every event they report, in order, is a stream the auditor's
    /// checker accepts.
    #[test]
    fn the_checker_accepts_every_event_the_cores_report(
        stream in prop::collection::vec(cast(), 1..24),
        ops in prop::collection::vec((0u8..6, 0usize..8, 0..REPLICAS), 1..160),
    ) {
        let mut audit = Audit::default();
        let mut cores = [core(), core(), core()];
        let mut schedules: [Schedule; 3] = Default::default();
        let (mut made, mut delivered) = (Vec::new(), [0; 3]);
        for (op, i, r) in ops {
            let k = r as usize;
            if op < 5 {
                schedules[k].step(&mut cores[k], op, i, &mut audit.at(r));
            } else if delivered[k] < stream.len() {
                deliver_nth(&mut cores[k], delivered[k], &stream, &mut made, &mut audit.at(r))?;
                delivered[k] += 1;
            }
        }
        for r in 0..REPLICAS {
            let k = r as usize;
            for n in delivered[k]..stream.len() {
                deliver_nth(&mut cores[k], n, &stream, &mut made, &mut audit.at(r))?;
            }
            drain_admitted(&mut cores[k], &mut schedules[k].claimed, &mut audit.at(r))?;
            audit.checker.finish(ReplicaId::new(r));
        }
        let violations = audit.checker.violations();
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }
}
