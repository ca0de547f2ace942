//! The SRCA-Rep model: sirep-core's [`ReplicaCore`] over sirep-gcs's
//! [`SeqLog`]. One [`State`] is the group's log (its members are the live
//! replicas, its cursors their delivery positions), one [`Replica`] per
//! replica (the shipped core plus its shell's member id, claimed batches
//! and committed tids) and one [`TxnState`] per client. Transitions call
//! the cores the way `node.rs` and the sequencer's shells do, one lock hold
//! each (DESIGN.md §17: the exceptions and the soundness argument). The
//! core reports its events into the trace itself; the model adds only the
//! shell's (`Multicast`, `LocalReadOnly`, `ApplyDone`). Storage, the sockets
//! and the clients stay abstract.
//!
//! [`Mutation`]s are seeded faults: each must produce a counterexample,
//! proving the explorer fail-closed. None is a knob in the core — the
//! environment skips a gate the shell asks, or misbehaves itself. Two
//! (`NonatomicBeginSnapshot`, `EagerInquire`) are exact abstractions of
//! real bugs this model found in `sirep-core`; one (`LateJoin`) is a fault
//! of the group's join.

use crate::{Prop, ProtocolModel, TraceEvent, Violation};
use sirep_common::{EventKind, GlobalTid, MemberId, ReplicaId, Stage, XactId};
use sirep_core::msg::{Outcome, WsMsg};
use sirep_core::replica::{CoreKey, InDoubt, ReplicaCore, Report};
use sirep_gcs::{SeqLog, View};
use sirep_storage::{Key, WriteSet, WsOp};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

/// Replica index (dense, `0..scenario.replicas`).
pub type Rep = u8;
/// Transaction index (dense, `0..scenario.txns.len()`).
pub type Txn = u8;
/// Global transaction id, dense from 1 in validation order.
pub type Tid = u64;

/// One client transaction of a scenario: where it is local, and which
/// abstract keys it writes (a bitmask; `0` = read-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TxnSpec {
    pub origin: Rep,
    pub ws: u8,
}

/// An exploration scenario: the fixed cast of transactions and the fault
/// budget. The explorer enumerates every interleaving of one scenario.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Scenario {
    pub replicas: u8,
    pub txns: Vec<TxnSpec>,
    /// How many replicas may crash during the run.
    pub max_crashes: u8,
    /// Whether crashed replicas may recover via state transfer.
    pub allow_recover: bool,
    /// Outstanding claimed-but-uncommitted applier batches per replica
    /// (the real node runs 2 applier threads by default).
    pub max_appliers: u8,
}

impl Scenario {
    /// Human-readable one-line form (reports, counterexample headers).
    #[must_use]
    pub fn describe(&self) -> String {
        let txns: Vec<String> = self
            .txns
            .iter()
            .enumerate()
            .map(|(i, t)| format!("T{i}@R{}{}", t.origin, ws_name(t.ws)))
            .collect();
        format!(
            "replicas={} txns=[{}] crashes<={}{}",
            self.replicas,
            txns.join(", "),
            self.max_crashes,
            if self.allow_recover { " +recover" } else { "" }
        )
    }
}

fn ws_name(ws: u8) -> String {
    if ws == 0 {
        return ":ro".to_string();
    }
    let keys: Vec<String> =
        (0..8).filter(|k| ws & (1 << k) != 0).map(|k| format!("k{k}")).collect();
    format!(":w[{}]", keys.join(","))
}

/// A seeded fault in the abstract protocol. The conformance self-tests
/// require every mutation to yield a counterexample (fail-closed proof).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mutation {
    /// Global validation always passes — the environment hands the core
    /// "passed" without asking it to certify. Expected: P2 (two
    /// concurrent conflicting writers both commit).
    SkipCertification,
    /// Begins never wait for holes and the group-commit gate is always
    /// open — the environment never asks the core's gates, exactly the
    /// SRCA-Opt ablation (§4.3.2 / Fig. 7) with the core still gated.
    /// Expected: P1 (a begin observes a snapshot with a hole).
    DropHoleGate,
    /// Local commit-time conflict detection against already-committed
    /// versions (the engine's first-updater-wins) is skipped.
    /// Expected: P2.
    BreakFirstCommitterWins,
    /// The begin's engine snapshot and its recorded watermark are taken
    /// in two separate steps instead of atomically under the state lock —
    /// the shape of the real pre-fix `SrcaOpt` begin bug. Expected: P3.
    NonatomicBeginSnapshot,
    /// In-doubt resolution answers "committed" from the outcome log as
    /// soon as the verdict is known, without the queue check of
    /// `ReplicaCore::inquire` — the shape of the real pre-fix `inquire`
    /// bug. Expected: P7.
    EagerInquire,
    /// A recovering replica joins the log at its end, not at its donor's
    /// cursor: what the donor had yet to read is lost. Expected: L1.
    LateJoin,
    /// Sequencer: an appender does not `claim`. Expected: S3.
    SkipClaim,
    /// Sequencer: an appender takes for every member behind, owned or not.
    /// Expected: S2.
    DoubleClaim,
    /// Sequencer: a short write's leftover is dropped. Expected: S1.
    ReleaseBeforeCarry,
}

impl Mutation {
    pub const ALL: [Mutation; 9] = [
        Mutation::SkipCertification,
        Mutation::DropHoleGate,
        Mutation::BreakFirstCommitterWins,
        Mutation::NonatomicBeginSnapshot,
        Mutation::EagerInquire,
        Mutation::LateJoin,
        Mutation::SkipClaim,
        Mutation::DoubleClaim,
        Mutation::ReleaseBeforeCarry,
    ];

    /// Stable CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mutation::SkipCertification => "skip-certification",
            Mutation::DropHoleGate => "drop-hole-gate",
            Mutation::BreakFirstCommitterWins => "break-first-committer-wins",
            Mutation::NonatomicBeginSnapshot => "nonatomic-begin-snapshot",
            Mutation::EagerInquire => "eager-inquire",
            Mutation::LateJoin => "late-join",
            Mutation::SkipClaim => "skip-claim",
            Mutation::DoubleClaim => "double-claim",
            Mutation::ReleaseBeforeCarry => "release-before-carry",
        }
    }

    #[must_use]
    pub fn from_name(name: &str) -> Option<Mutation> {
        Mutation::ALL.into_iter().find(|m| m.name() == name)
    }
}

// ======================================================================
// State
// ======================================================================

/// Client-visible lifecycle of one transaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    #[default]
    NotStarted,
    /// Blocked in begin until the origin has no holes (§4.3.3).
    WaitingBegin,
    /// `NonatomicBeginSnapshot` only: the engine snapshot is taken but
    /// the watermark not yet recorded (the pre-fix race window); `true`:
    /// the begin had waited for holes.
    SnapTaken(bool),
    Active,
    /// Writeset multicast; waiting for the total-order verdict.
    Submitted,
    /// The origin's own verdict passed: its session may commit.
    Validated,
    /// The origin crashed after the multicast (§5.4 case 3).
    InDoubt,
    Committed,
    Aborted,
    /// Committed via the certification-free read-only fast path.
    RoCommitted,
}

/// One frame of the group's log.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogEntry {
    /// A multicast writeset with the origin's certification watermark.
    Ws { txn: Txn, cert: Tid },
    /// A view as [`SeqLog::admit`] and [`SeqLog::evict`] append it.
    View { id: u64, members: Rc<[MemberId]> },
}

/// The group's log: the shipped sequencer core.
pub type Log = SeqLog<LogEntry, ()>;

/// The view frame of the log's current member table.
fn view(log: &Log) -> LogEntry {
    let members = log.members().map(|(id, ())| MemberId::new(id)).collect();
    LogEntry::View { id: log.view_id(), members }
}

/// One replica: its core, and what its shell holds.
#[derive(Clone)]
pub struct Replica {
    /// The member id the log minted at its last join.
    pub member: u64,
    /// Shared between states until a transition changes it.
    pub core: Rc<ReplicaCore>,
    /// Claimed, uncommitted applier batches (ascending tids each).
    pub batches: Vec<Vec<Tid>>,
    /// The tids its database committed (bit `tid`): the versions
    /// first-updater-wins reads.
    pub committed: u32,
}

impl Replica {
    fn has_committed(&self, tid: Tid) -> bool {
        self.committed & (1 << tid) != 0
    }
}

/// Per-transaction model state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct TxnState {
    pub phase: Phase,
    /// What the engine snapshot actually contains (frontier at the
    /// moment `db.begin()` ran).
    pub db_snapshot: Tid,
    /// The recorded/journaled snapshot watermark.
    pub snapshot: Tid,
    /// Certification watermark captured at commit request.
    pub cert: Tid,
    /// Global tid assigned at validation (0 = none yet).
    pub tid: Tid,
    /// The first verdict reached on its writeset, which all must agree on (P5).
    pub verdict: Option<bool>,
}

/// One global configuration of the model.
#[derive(Clone)]
pub struct State {
    /// Shared between states until a transition changes it.
    pub log: Rc<Log>,
    pub reps: Vec<Replica>,
    pub txns: Vec<TxnState>,
    pub crashes: u8,
}

/// A replica as the explorer memoizes it: its core by [`ReplicaCore::key`].
type ReplicaKey = (u64, Vec<Vec<Tid>>, u32, CoreKey);

/// [`State`] as the explorer memoizes it. The log comes last: it is the
/// slowest to compare, and states next to each other often share it.
pub type StateKey = (Vec<TxnState>, u8, Vec<ReplicaKey>, Rc<Log>);

impl State {
    /// Is replica `r` a member of the group?
    pub fn alive(&self, r: Rep) -> bool {
        self.log.contains(self.reps[r as usize].member)
    }

    /// The log entry at `r`'s cursor, if it has one to deliver.
    fn next_entry(&self, r: Rep) -> Option<&LogEntry> {
        self.log.pending(self.reps[r as usize].member)?.1.next()
    }

    /// The transaction that validated as `tid`.
    fn txn_of_tid(&self, tid: Tid) -> Option<Txn> {
        self.txns.iter().position(|tx| tx.tid == tid).map(|t| t as Txn)
    }

    /// The replica's core, to change it.
    fn core(&mut self, r: Rep) -> &mut ReplicaCore {
        Rc::make_mut(&mut self.reps[r as usize].core)
    }
}

// ======================================================================
// Transitions
// ======================================================================

/// One transition label. Enumerated in `Ord` order, which fixes the
/// deterministic exploration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Label {
    /// Attempt to begin: waits on holes (SRCA-Rep) or proceeds.
    Begin(Txn),
    /// A waiting begin resumes once the holes have drained.
    Resume(Txn),
    /// `NonatomicBeginSnapshot` only: record the watermark (second step).
    Record(Txn),
    /// Commit request: local validation, cert capture, multicast.
    Submit(Txn),
    /// Read-only fast-path commit (no multicast, no certification).
    RoCommit(Txn),
    /// A validated local transaction commits on its session thread.
    LocalCommit(Txn),
    /// Replica processes its next total-order log entry.
    Deliver(Rep),
    /// An applier claims the first `k` ready queue entries as a batch.
    Claim(Rep, u8),
    /// Group-commit claimed batch `b` (hole gate on its smallest tid).
    GroupCommit(Rep, u8),
    /// Crash-stop a replica: the log evicts it behind its writesets.
    Crash(Rep),
    /// Resolve an in-doubt transaction at a surviving replica (§5.4).
    Resolve(Txn, Rep),
    /// A crashed replica recovers via state transfer from a donor.
    Recover(Rep, Rep),
}

/// Outcome-log capacity of a model core: more than any scope delivers.
const OUTCOME_CAP: usize = 64;

type Events = Vec<TraceEvent>;

/// The model's [`Report`] sink: replica `r`'s events into the trace, with
/// stamps 0.
fn trace(r: Rep, events: &mut Events) -> impl Report + '_ {
    move |kind, _: &[(Stage, u64)]| {
        events.push(TraceEvent { replica: r, kind });
        0
    }
}

/// The SRCA-Rep model: a scenario plus an optional set of seeded
/// mutations.
#[derive(Debug, Clone)]
pub struct SrcaModel {
    pub scenario: Scenario,
    pub mutations: BTreeSet<Mutation>,
    /// Each transaction's writeset: a row of table `t` per key bit.
    writesets: Vec<Arc<WriteSet>>,
}

impl SrcaModel {
    #[must_use]
    pub fn new(scenario: Scenario) -> SrcaModel {
        SrcaModel::with_mutations(scenario, [])
    }

    #[must_use]
    pub fn with_mutations(
        scenario: Scenario,
        mutations: impl IntoIterator<Item = Mutation>,
    ) -> SrcaModel {
        let writesets = scenario
            .txns
            .iter()
            .map(|t| {
                let mut ws = WriteSet::new();
                for k in (0..8i64).filter(|k| t.ws & (1 << k) != 0) {
                    ws.push(Arc::from("t"), Key::single(k), WsOp::Delete);
                }
                Arc::new(ws)
            })
            .collect();
        SrcaModel { scenario, mutations: mutations.into_iter().collect(), writesets }
    }

    fn has(&self, m: Mutation) -> bool {
        self.mutations.contains(&m)
    }

    fn xact(&self, t: Txn) -> XactId {
        XactId::new(ReplicaId::new(u64::from(self.scenario.txns[t as usize].origin)), u64::from(t))
    }

    fn ws(&self, t: Txn) -> u8 {
        self.scenario.txns[t as usize].ws
    }

    fn origin(&self, t: Txn) -> Rep {
        self.scenario.txns[t as usize].origin
    }

    /// The transaction that validated as `tid`.
    fn xact_of_tid(&self, s: &State, tid: Tid) -> XactId {
        self.xact(s.txn_of_tid(tid).unwrap_or_default())
    }

    /// P1: the snapshot taken at `r` now must be a prefix `{1..snap}` of
    /// the commit order — no pending tid at or below the frontier.
    fn check_snapshot_prefix(&self, s: &State, r: Rep, t: Txn) -> Vec<Violation> {
        let holes = s.reps[r as usize].core.holes();
        let snap = holes.max_committed();
        let hole: Vec<Tid> = holes.pending().filter(|&p| p <= snap).map(GlobalTid::raw).collect();
        if hole.is_empty() {
            return Vec::new();
        }
        let detail = format!("T{t} began at R{r} with snapshot {snap} while {hole:?} are pending");
        vec![Violation::of(Prop::SnapshotPrefix, detail)]
    }

    /// P2: no two concurrent committed writers on the same key. Checked
    /// when the second of the pair gets its verdict.
    fn check_first_committer_wins(&self, s: &State, t: Txn, tid: Tid) -> Vec<Violation> {
        let mut out = Vec::new();
        for (i, other) in s.txns.iter().enumerate() {
            let o = i as Txn;
            if o == t || other.tid == 0 {
                continue;
            }
            let concurrent = s.txns[t as usize].db_snapshot < other.tid && other.db_snapshot < tid;
            if concurrent && self.ws(o) & self.ws(t) != 0 {
                let detail = format!("T{t} and T{o} are concurrent, share a key and both passed");
                out.push(Violation::of(Prop::FirstCommitterWins, detail));
            }
        }
        out
    }

    /// P6 for a batch about to commit at `r`: no member may open a new hole
    /// while a begin waits and no local runs (§4.3.3). Members commit in
    /// ascending order, so each one's frontier is the previous member's.
    fn check_hole_discipline(&self, s: &State, r: Rep, batch: &[Tid]) -> Vec<Violation> {
        let holes = s.reps[r as usize].core.holes();
        if holes.waiting_to_start() == 0 || holes.running_locals() > 0 {
            return Vec::new();
        }
        let mut frontier = holes.max_committed().raw();
        let mut out = Vec::new();
        for &tid in batch {
            if holes.pending().any(|p| frontier < p.raw() && p.raw() < tid) {
                let detail =
                    format!("R{r} committed {tid} of {batch:?}, opening a hole for a begin");
                out.push(Violation::of(Prop::HoleDiscipline, detail));
            }
            frontier = frontier.max(tid);
        }
        out
    }

    /// Take the engine snapshot for `t` (a `Begin` that need not wait, or a
    /// `Resume`), and record the watermark with it — or later, under the
    /// nonatomic mutant.
    fn begin(&self, s: &mut State, t: Txn, waited: bool, events: &mut Events) -> Vec<Violation> {
        let r = self.origin(t);
        let viols = self.check_snapshot_prefix(s, r, t);
        s.txns[t as usize].db_snapshot = s.reps[r as usize].core.holes().max_committed().raw();
        if self.has(Mutation::NonatomicBeginSnapshot) {
            s.txns[t as usize].phase = Phase::SnapTaken(waited);
        } else {
            self.record(s, t, waited, events);
        }
        viols
    }

    /// The core's begin: the recorded watermark and `TxBegin`.
    fn record(&self, s: &mut State, t: Txn, waited: bool, events: &mut Events) {
        let r = self.origin(t);
        let (snapshot, _) =
            s.core(r).begin(self.xact(t), waited.then_some(0), &mut trace(r, events));
        let tx = &mut s.txns[t as usize];
        tx.snapshot = snapshot.raw();
        tx.phase = Phase::Active;
    }

    /// Commit `batch` at `r` through the core, as `finalize_batch` does:
    /// the database commits the tids, the core reports each one's hole
    /// transition and commit.
    fn commit(&self, s: &mut State, r: Rep, batch: &[Tid], events: &mut Events) {
        let entries: Vec<(GlobalTid, XactId, u64)> =
            batch.iter().map(|&tid| (GlobalTid::new(tid), self.xact_of_tid(s, tid), 0)).collect();
        s.core(r).commit(entries, None, &mut trace(r, events));
        for &tid in batch {
            s.reps[r as usize].committed |= 1 << tid;
        }
    }

    /// A local transaction of `t`'s origin ended without committing.
    fn abort(&self, s: &mut State, t: Txn) {
        s.txns[t as usize].phase = Phase::Aborted;
        s.core(self.origin(t)).local_finished();
    }

    /// Process the log entry at `r`'s cursor, and move the cursor on.
    fn deliver(&self, s: &mut State, r: Rep, events: &mut Events) -> Vec<Violation> {
        let entry = s.next_entry(r).cloned().expect("enabled: an entry is pending");
        Rc::make_mut(&mut s.log).advance(s.reps[r as usize].member, 1);
        let (t, cert) = match entry {
            LogEntry::Ws { txn, cert } => (txn, cert),
            LogEntry::View { id, members } => {
                let view = View { id, members: members.to_vec() };
                s.core(r).view_change(view, &mut trace(r, events));
                return Vec::new();
            }
        };
        let m = WsMsg {
            origin: ReplicaId::new(u64::from(self.origin(t))),
            xact: self.xact(t),
            cert: GlobalTid::new(cert),
            ws: Arc::clone(&self.writesets[t as usize]),
        };
        let core = s.core(r);
        let passed = self.has(Mutation::SkipCertification) || core.passes(m.cert, &m.ws);
        let Some(d) = core.deliver(&m, passed, 0, false, &mut trace(r, events)) else {
            return Vec::new();
        };
        let watermark = core.ws_list().watermark().raw();
        // The origin hands its session the verdict.
        if d.local.is_some() {
            if d.tid.is_some() {
                s.txns[t as usize].phase = Phase::Validated;
            } else {
                self.abort(s, t);
            }
        }
        let mut viols = Vec::new();
        // P4: certifying below the watermark means pruned entries were not
        // checked.
        if cert < watermark {
            let detail = format!("R{r} certified T{t} at cert {cert}, below watermark {watermark}");
            viols.push(Violation::of(Prop::WatermarkSoundness, detail));
        }
        // P5: every replica must reach the same verdict and assign the same
        // tid (Thm 1).
        let tid = d.tid.map_or(0, GlobalTid::raw);
        let tx = &mut s.txns[t as usize];
        match (tx.verdict, tx.tid) {
            (None, _) => {
                tx.verdict = Some(passed);
                if passed {
                    tx.tid = tid;
                    viols.extend(self.check_first_committer_wins(s, t, tid));
                }
            }
            (Some(p0), t0) if p0 != passed || (passed && t0 != tid) => {
                let detail =
                    format!("R{r} decided ({passed}, {tid}) for T{t}, another ({p0}, {t0})");
                viols.push(Violation::of(Prop::VerdictAgreement, detail));
            }
            (Some(_), _) => {}
        }
        viols
    }
}

impl ProtocolModel for SrcaModel {
    type State = State;
    type Key = StateKey;
    type Label = Label;

    fn initial(&self) -> State {
        // The group forms: every replica joins, and all of them start past
        // the formation views with the last one installed.
        let mut log = Log::default();
        let members: Vec<u64> = (0..self.scenario.replicas)
            .map(|r| log.admit(u64::from(r), (), 0, view).expect("a model replica id fits"))
            .collect();
        for &m in &members {
            log.advance(m, log.end());
        }
        log.trim();
        let mut core = ReplicaCore::new(true, OUTCOME_CAP);
        if let LogEntry::View { id, members } = view(&log) {
            core.view_change(
                View { id, members: members.to_vec() },
                &mut trace(0, &mut Vec::new()),
            );
        }
        let core = Rc::new(core);
        let replica =
            |member| Replica { member, core: Rc::clone(&core), batches: Vec::new(), committed: 0 };
        State {
            log: Rc::new(log),
            reps: members.into_iter().map(replica).collect(),
            txns: vec![TxnState::default(); self.scenario.txns.len()],
            crashes: 0,
        }
    }

    fn key(&self, s: &State) -> StateKey {
        let rep = |r: &Replica| (r.member, r.batches.clone(), r.committed, r.core.key());
        (s.txns.clone(), s.crashes, s.reps.iter().map(rep).collect(), Rc::clone(&s.log))
    }

    fn enabled(&self, s: &State) -> Vec<Label> {
        let mut out = Vec::new();
        for (i, tx) in s.txns.iter().enumerate() {
            let t = i as Txn;
            let alive = s.alive(self.origin(t));
            let rep = &s.reps[self.origin(t) as usize];
            match tx.phase {
                Phase::NotStarted if alive => out.push(Label::Begin(t)),
                Phase::WaitingBegin if alive && !rep.core.holes_exist() => {
                    out.push(Label::Resume(t));
                }
                Phase::SnapTaken(_) if alive => out.push(Label::Record(t)),
                Phase::Active if alive => {
                    if self.ws(t) == 0 {
                        out.push(Label::RoCommit(t));
                    } else {
                        out.push(Label::Submit(t));
                    }
                }
                Phase::Validated if alive => out.push(Label::LocalCommit(t)),
                Phase::InDoubt => {
                    let live = s.reps.iter().enumerate().filter(|&(k, _)| s.alive(k as Rep));
                    for (k, rep2) in live {
                        let answered = if self.has(Mutation::EagerInquire) {
                            rep2.core.outcome(self.xact(t)).is_some()
                        } else {
                            matches!(rep2.core.inquire(self.xact(t)), Some(InDoubt::Known(_)))
                        };
                        if answered {
                            out.push(Label::Resolve(t, k as Rep));
                        }
                    }
                }
                _ => {}
            }
        }
        for (k, rep) in s.reps.iter().enumerate() {
            let r = k as Rep;
            if !s.alive(r) {
                if self.scenario.allow_recover {
                    let donors = (0..self.scenario.replicas).filter(|&d| s.alive(d));
                    out.extend(donors.map(|d| Label::Recover(r, d)));
                }
                continue;
            }
            if s.next_entry(r).is_some() {
                out.push(Label::Deliver(r));
            }
            if rep.batches.len() < usize::from(self.scenario.max_appliers) {
                for kk in 1..=rep.core.sizes().ready {
                    out.push(Label::Claim(r, kk as u8));
                }
            }
            for (b, batch) in rep.batches.iter().enumerate() {
                let gate = GlobalTid::new(batch[0]);
                if self.has(Mutation::DropHoleGate) || rep.core.may_commit(gate) {
                    out.push(Label::GroupCommit(r, b as u8));
                }
            }
            if s.crashes < self.scenario.max_crashes && s.log.members().count() >= 2 {
                out.push(Label::Crash(r));
            }
        }
        out
    }

    #[allow(clippy::too_many_lines)]
    fn apply(&self, s: &State, label: &Label) -> (State, Vec<Violation>, Vec<TraceEvent>) {
        let mut s = s.clone();
        let mut viols = Vec::new();
        let mut events = Vec::new();
        match *label {
            Label::Begin(t) => {
                let r = self.origin(t);
                let gated = !self.has(Mutation::DropHoleGate);
                if gated && s.reps[r as usize].core.holes_exist() {
                    s.core(r).wait_begin();
                    s.txns[t as usize].phase = Phase::WaitingBegin;
                } else {
                    viols = self.begin(&mut s, t, false, &mut events);
                }
            }
            Label::Resume(t) => viols = self.begin(&mut s, t, true, &mut events),
            Label::Record(t) => {
                // Second half of the nonatomic begin: the watermark is read
                // *now*, possibly after commits the engine snapshot cannot
                // contain.
                let waited = matches!(s.txns[t as usize].phase, Phase::SnapTaken(true));
                self.record(&mut s, t, waited, &mut events);
            }
            Label::Submit(t) => {
                let r = self.origin(t);
                let ws = self.ws(t);
                let rep = &s.reps[r as usize];
                // The engine's first-updater-wins: a committed version
                // newer than our snapshot on a key we write aborts us.
                let fuw_conflict = !self.has(Mutation::BreakFirstCommitterWins)
                    && (s.txns[t as usize].db_snapshot + 1..=rep.core.last_validated().raw()).any(
                        |tid| {
                            rep.has_committed(tid)
                                && s.txn_of_tid(tid).is_some_and(|o| self.ws(o) & ws != 0)
                        },
                    );
                let xact = self.xact(t);
                let ws = &self.writesets[t as usize];
                let submitted = if fuw_conflict {
                    None
                } else {
                    s.core(r).submit(xact, ws, Arc::default(), 0, (), &mut trace(r, &mut events))
                };
                match submitted {
                    None => self.abort(&mut s, t),
                    Some(cert) => {
                        let cert = cert.raw();
                        s.txns[t as usize].cert = cert;
                        s.txns[t as usize].phase = Phase::Submitted;
                        let member = s.reps[r as usize].member;
                        Rc::make_mut(&mut s.log).total(member, |_| LogEntry::Ws { txn: t, cert });
                        events.push(TraceEvent { replica: r, kind: EventKind::Multicast { xact } });
                    }
                }
            }
            Label::RoCommit(t) => {
                let r = self.origin(t);
                let tx = s.txns[t as usize];
                // P3: the journaled snapshot must be the snapshot the
                // reads actually saw.
                if tx.snapshot != tx.db_snapshot {
                    let (journaled, read) = (tx.snapshot, tx.db_snapshot);
                    let detail =
                        format!("read-only T{t} journals snapshot {journaled}, read {read}");
                    viols.push(Violation::of(Prop::CaptureMismatch, detail));
                }
                s.txns[t as usize].phase = Phase::RoCommitted;
                s.core(r).local_finished();
                let (xact, snapshot) = (self.xact(t), GlobalTid::new(tx.snapshot));
                let kind =
                    EventKind::LocalReadOnly { xact, snapshot, gated: true, reads: Arc::default() };
                events.push(TraceEvent { replica: r, kind });
            }
            Label::LocalCommit(t) => {
                let r = self.origin(t);
                let tid = s.txns[t as usize].tid;
                self.commit(&mut s, r, &[tid], &mut events);
                s.core(r).local_finished();
                s.txns[t as usize].phase = Phase::Committed;
            }
            Label::Deliver(r) => viols = self.deliver(&mut s, r, &mut events),
            Label::Claim(r, k) => {
                let claimed = s.core(r).claim(usize::from(k), &mut trace(r, &mut events));
                s.reps[r as usize].batches.push(claimed.iter().map(|e| e.tid.raw()).collect());
            }
            Label::GroupCommit(r, b) => {
                // The whole batch commits under one state-lock hold in the
                // real node, so it is one atomic transition here. The gate
                // was checked on the smallest tid in `enabled`; P6 checks
                // each member against the strict §4.3.3 discipline.
                let batch = s.reps[r as usize].batches.remove(usize::from(b));
                viols = self.check_hole_discipline(&s, r, &batch);
                let done = |&tid: &Tid| {
                    let (xact, tid) = (self.xact_of_tid(&s, tid), GlobalTid::new(tid));
                    TraceEvent { replica: r, kind: EventKind::ApplyDone { xact, tid } }
                };
                events.extend(batch.iter().map(done));
                self.commit(&mut s, r, &batch, &mut events);
            }
            Label::Crash(r) => {
                s.crashes += 1;
                s.reps[r as usize].batches.clear();
                Rc::make_mut(&mut s.log).evict(&[s.reps[r as usize].member], view);
                for (i, tx) in s.txns.iter_mut().enumerate() {
                    if self.origin(i as Txn) != r {
                        continue;
                    }
                    tx.phase = match tx.phase {
                        Phase::Submitted | Phase::Validated => Phase::InDoubt,
                        Phase::NotStarted
                        | Phase::WaitingBegin
                        | Phase::SnapTaken(_)
                        | Phase::Active => Phase::Aborted,
                        p => p,
                    };
                }
            }
            Label::Resolve(t, r) => {
                let rep = &s.reps[r as usize];
                if rep.core.outcome(self.xact(t)) == Some(Outcome::Committed) {
                    // P7: reporting "committed" is a promise that the
                    // client's next snapshot at this replica contains the
                    // write.
                    let tid = s.txns[t as usize].tid;
                    if !rep.has_committed(tid) {
                        let detail =
                            format!("R{r} answered T{t} committed before committing {tid}");
                        viols.push(Violation::of(Prop::SessionOrder, detail));
                    }
                    s.txns[t as usize].phase = Phase::Committed;
                } else {
                    s.txns[t as usize].phase = Phase::Aborted;
                }
            }
            Label::Recover(r, d) => {
                let donor = &s.reps[d as usize];
                let mut core = donor.core.transfer();
                core.reset(&mut trace(r, &mut events));
                let committed = donor.committed;
                let from = if self.has(Mutation::LateJoin) {
                    s.log.end()
                } else {
                    s.log.pending(donor.member).expect("the donor is live").0
                };
                let log = Rc::make_mut(&mut s.log);
                let member =
                    log.admit(u64::from(r), (), from, view).expect("a model replica id fits");
                s.reps[r as usize] =
                    Replica { member, core: Rc::new(core), batches: Vec::new(), committed };
            }
        }
        (s, viols, events)
    }

    fn terminal_check(&self, s: &State) -> Vec<Violation> {
        let mut out = Vec::new();
        let any_alive = s.log.members().next().is_some();
        for (i, tx) in s.txns.iter().enumerate() {
            let done = matches!(tx.phase, Phase::Committed | Phase::Aborted | Phase::RoCommitted)
                || (tx.phase == Phase::InDoubt && !any_alive)
                || !s.alive(self.origin(i as Txn));
            if !done {
                let phase = tx.phase;
                out.push(Violation::of(Prop::Liveness, format!("T{i} is stuck in {phase:?}")));
            }
        }
        let mut frontiers = BTreeSet::new();
        for (k, rep) in s.reps.iter().enumerate().filter(|&(k, _)| s.alive(k as Rep)) {
            let holes = rep.core.holes();
            let pending: Vec<Tid> = holes.pending().map(GlobalTid::raw).collect();
            let (queued, batches) = (rep.core.sizes().queued, &rep.batches);
            // Open holes are pending tids.
            if queued > 0 || !pending.is_empty() || !batches.is_empty() {
                let detail = format!(
                    "R{k} is left with {queued} queued, {pending:?} pending, {batches:?} claimed"
                );
                out.push(Violation::of(Prop::Liveness, detail));
            }
            frontiers.insert((rep.core.last_validated(), holes.max_committed()));
        }
        if frontiers.len() > 1 {
            let detail =
                format!("live replicas diverged: (last validated, max committed) in {frontiers:?}");
            out.push(Violation::of(Prop::Liveness, detail));
        }
        out
    }

    fn describe(&self, label: &Label) -> String {
        match *label {
            Label::Begin(t) => {
                format!("T{t} attempts to begin at R{}", self.origin(t))
            }
            Label::Resume(t) => {
                format!("T{t} resumes its begin at R{} (holes drained)", self.origin(t))
            }
            Label::Record(t) => format!(
                "T{t} records its snapshot watermark at R{} (engine snapshot was taken earlier)",
                self.origin(t)
            ),
            Label::Submit(t) => format!(
                "T{t} requests commit at R{}: local validation, cert capture, multicast",
                self.origin(t)
            ),
            Label::RoCommit(t) => {
                format!("read-only T{t} commits on the fast path at R{}", self.origin(t))
            }
            Label::LocalCommit(t) => {
                format!("T{t} commits on its session thread at R{}", self.origin(t))
            }
            Label::Deliver(r) => format!("R{r} processes its next total-order delivery"),
            Label::Claim(r, k) => {
                format!("an applier at R{r} claims the {k} smallest ready entries")
            }
            Label::GroupCommit(r, b) => {
                format!("an applier at R{r} group-commits claimed batch #{b}")
            }
            Label::Crash(r) => format!("R{r} crash-stops"),
            Label::Resolve(t, r) => format!("in-doubt T{t} is resolved at R{r}"),
            Label::Recover(r, d) => format!("R{r} recovers via state transfer from R{d}"),
        }
    }
}
