//! The abstracted SRCA-Rep state machine.
//!
//! One [`State`] is a global configuration: the total-order log (the
//! sequencer's view), one [`RepState`] per replica (certification list,
//! tocommit queue, claimed applier batches, hole tracker, prune
//! watermark), and one [`TxnState`] per client transaction. Transitions
//! mirror `sirep-core`'s real steps at the granularity of its lock holds:
//! everything the node does under one state-lock hold is one atomic model
//! transition (see DESIGN.md §17 for the soundness argument).
//!
//! [`Mutation`]s are seeded faults in the abstract protocol used by the
//! conformance self-tests: each must produce a counterexample, proving
//! the explorer is fail-closed. Two of them (`NonatomicBeginSnapshot`,
//! `EagerInquire`) are exact abstractions of real bugs this model found
//! in `sirep-core` (fixed in the same change that introduced this crate).

use crate::{Prop, ProtocolModel, TraceEvent, Violation};
use sirep_common::{EventKind, GlobalTid, ReplicaId, XactId};
use std::collections::BTreeSet;
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
    /// Global validation always passes — certification is skipped.
    /// Expected: P2 (two concurrent conflicting writers both commit).
    SkipCertification,
    /// Begins never wait for holes and the group-commit gate is always
    /// open — exactly the SRCA-Opt ablation (§4.3.2 / Fig. 7).
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
    /// soon as the verdict is known, before the writeset is committed at
    /// the answering replica — the shape of the real pre-fix `inquire`
    /// bug. Expected: P7.
    EagerInquire,
}

impl Mutation {
    pub const ALL: [Mutation; 5] = [
        Mutation::SkipCertification,
        Mutation::DropHoleGate,
        Mutation::BreakFirstCommitterWins,
        Mutation::NonatomicBeginSnapshot,
        Mutation::EagerInquire,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    NotStarted,
    /// Blocked in begin until the origin has no holes (§4.3.3).
    WaitingBegin,
    /// `NonatomicBeginSnapshot` only: the engine snapshot is taken but
    /// the watermark not yet recorded (the pre-fix race window).
    SnapTaken,
    Active,
    /// Writeset multicast; waiting for the total-order verdict.
    Submitted,
    /// The origin crashed after the multicast (§5.4 case 3).
    InDoubt,
    Committed,
    Aborted,
    /// Committed via the certification-free read-only fast path.
    RoCommitted,
}

/// One entry of the total-order log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogEntry {
    /// A multicast writeset with the origin's certification watermark.
    Ws { txn: Txn, cert: Tid },
    /// A view change excluding a crashed replica (sequenced after all of
    /// its writesets — the uniform-delivery cut).
    View { crashed: Rep },
    /// A recovered replica re-joined the group.
    Join { rep: Rep },
}

/// One tocommit-queue entry at one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QEntry {
    pub tid: Tid,
    pub txn: Txn,
    pub ws: u8,
    /// A local entry owned by its session thread (appliers skip it).
    pub local_running: bool,
    /// Claimed by an applier batch (still blocks conflicting successors
    /// until the commit removes it — mirrors the real queue).
    pub claimed: bool,
}

/// One replica's protocol state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RepState {
    pub alive: bool,
    /// How many log entries this replica has processed.
    pub delivered: u8,
    /// Group view as a replica bitmask.
    pub view: u8,
    /// Next dense tid this replica will assign (identical everywhere —
    /// P5 checks it).
    pub next_tid: Tid,
    /// Certification list: validated `(tid, ws)`, pruned from the front.
    pub wslist: Vec<(Tid, u8)>,
    /// Tocommit queue in ascending tid order.
    pub queue: Vec<QEntry>,
    /// Claimed, uncommitted applier batches (ascending tids each).
    pub batches: Vec<Vec<Tid>>,
    /// Validated-but-uncommitted tids (the hole tracker's pending set).
    pub pending: Vec<Tid>,
    /// Highest tid committed here (the hole tracker's frontier).
    pub max_committed: Tid,
    /// ws_list prune watermark (monotone).
    pub watermark: Tid,
    /// Per-origin progress promise (highest cert seen from each replica).
    pub adverts: Vec<Tid>,
}

impl RepState {
    fn new(replicas: u8) -> RepState {
        RepState {
            alive: true,
            delivered: 0,
            view: (1u16 << replicas).wrapping_sub(1) as u8,
            next_tid: 1,
            wslist: Vec::new(),
            queue: Vec::new(),
            batches: Vec::new(),
            pending: Vec::new(),
            max_committed: 0,
            watermark: 0,
            adverts: vec![0; replicas as usize],
        }
    }

    /// Some pending tid sits below the commit frontier.
    #[must_use]
    pub fn holes_exist(&self) -> bool {
        self.pending.first().is_some_and(|&p| p < self.max_committed)
    }

    /// Would committing `tid` now create a *new* hole? (HoleTracker
    /// semantics: some pending tid strictly between the frontier and
    /// `tid`.)
    #[must_use]
    pub fn creates_new_hole(&self, tid: Tid) -> bool {
        tid > self.max_committed && self.pending.iter().any(|&p| p > self.max_committed && p < tid)
    }

    /// `tid` has been validated and committed at this replica.
    #[must_use]
    pub fn committed_contains(&self, tid: Tid) -> bool {
        tid >= 1 && tid < self.next_tid && !self.pending.contains(&tid)
    }

    /// Queue indices eligible for an applier claim, in ascending tid
    /// order: unclaimed, not session-owned, and not conflicting with any
    /// earlier entry still in the queue (claimed or not) — the blocker
    /// semantics of the real `TocommitQueue`.
    fn ready(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, e) in self.queue.iter().enumerate() {
            if e.claimed || e.local_running {
                continue;
            }
            let blocked = self.queue[..i].iter().any(|f| f.ws & e.ws != 0);
            if !blocked {
                out.push(i);
            }
        }
        out
    }

    /// Commit `tid` here: drop it from pending and advance the frontier.
    /// Returns `(had_holes, has_holes)` for journal rendering.
    fn commit_tid(&mut self, tid: Tid) -> (bool, bool) {
        let had = self.holes_exist();
        self.pending.retain(|&p| p != tid);
        if tid > self.max_committed {
            self.max_committed = tid;
        }
        self.queue.retain(|e| e.tid != tid);
        (had, self.holes_exist())
    }
}

/// Per-transaction model state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
}

/// One global configuration of the model.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct State {
    pub log: Vec<LogEntry>,
    /// Verdict registry parallel to `log`: the first replica to validate
    /// entry `i` records `(passed, tid)`; later replicas must agree (P5).
    pub verdicts: Vec<Option<(bool, Tid)>>,
    pub reps: Vec<RepState>,
    pub txns: Vec<TxnState>,
    pub crashes: u8,
}

impl State {
    /// Local transactions of `origin` blocked in begin (the paper's set A).
    fn waiting(&self, scenario: &Scenario, origin: Rep) -> usize {
        self.txns
            .iter()
            .enumerate()
            .filter(|(i, t)| scenario.txns[*i].origin == origin && t.phase == Phase::WaitingBegin)
            .count()
    }

    /// Local transactions of `origin` begun and not yet finished (the
    /// paper's set B — they may hold engine tuple locks).
    fn running(&self, scenario: &Scenario, origin: Rep) -> usize {
        self.txns
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                scenario.txns[*i].origin == origin
                    && matches!(t.phase, Phase::Active | Phase::Submitted)
            })
            .count()
    }

    /// Log index of transaction `t`'s writeset entry, if multicast.
    fn ws_index(&self, t: Txn) -> Option<usize> {
        self.log.iter().position(|e| matches!(e, LogEntry::Ws { txn, .. } if *txn == t))
    }

    /// The writeset of an assigned tid (via the verdict registry).
    fn ws_of_tid(&self, scenario: &Scenario, tid: Tid) -> u8 {
        for (i, v) in self.verdicts.iter().enumerate() {
            if let Some((true, t)) = v {
                if *t == tid {
                    if let LogEntry::Ws { txn, .. } = self.log[i] {
                        return scenario.txns[txn as usize].ws;
                    }
                }
            }
        }
        0
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
    /// Crash-stop a replica (view change is sequenced behind its log).
    Crash(Rep),
    /// Resolve an in-doubt transaction at a surviving replica (§5.4).
    Resolve(Txn, Rep),
    /// A crashed replica recovers via state transfer from a donor.
    Recover(Rep, Rep),
}

/// The abstract SRCA-Rep model: a scenario plus an optional set of
/// seeded mutations.
#[derive(Debug, Clone)]
pub struct SrcaModel {
    pub scenario: Scenario,
    pub mutations: BTreeSet<Mutation>,
}

impl SrcaModel {
    #[must_use]
    pub fn new(scenario: Scenario) -> SrcaModel {
        SrcaModel { scenario, mutations: BTreeSet::new() }
    }

    #[must_use]
    pub fn with_mutations(
        scenario: Scenario,
        mutations: impl IntoIterator<Item = Mutation>,
    ) -> SrcaModel {
        SrcaModel { scenario, mutations: mutations.into_iter().collect() }
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

    /// The model is of SRCA-Rep, so every begin claims to be hole-gated —
    /// also under `DropHoleGate`, which is a *fault* in that protocol, not
    /// an honest SRCA-Opt run: the journal says "gated" and the begin is not.
    fn tx_begin(&self, t: Txn) -> EventKind {
        EventKind::TxBegin { xact: self.xact(t), gated: true }
    }

    /// The §4.3.3 commit rule, mirroring `HoleTracker::may_commit`.
    fn may_commit(&self, s: &State, r: Rep, tid: Tid) -> bool {
        if self.has(Mutation::DropHoleGate) {
            return true;
        }
        let rep = &s.reps[r as usize];
        s.waiting(&self.scenario, r) == 0
            || s.running(&self.scenario, r) > 0
            || !rep.creates_new_hole(tid)
    }

    /// P1: the snapshot `{1..snap}` at `r` must be a committed prefix —
    /// no pending tid at or below the frontier the snapshot reflects.
    fn check_snapshot_prefix(&self, s: &State, r: Rep, snap: Tid, t: Txn) -> Vec<Violation> {
        let rep = &s.reps[r as usize];
        let hole: Vec<Tid> = rep.pending.iter().copied().filter(|&p| p <= snap).collect();
        if hole.is_empty() {
            Vec::new()
        } else {
            vec![Violation {
                prop: Prop::SnapshotPrefix,
                detail: format!(
                    "T{t} began at R{r} with snapshot {snap} while tids {hole:?} are \
                     validated but uncommitted there — the snapshot is not a prefix \
                     of the commit order (1-copy-SI broken)"
                ),
            }]
        }
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
                out.push(Violation {
                    prop: Prop::FirstCommitterWins,
                    detail: format!(
                        "T{t} (tid {tid}, snapshot {}) and T{o} (tid {}, snapshot {}) are \
                         concurrent, write intersecting keys, and both passed validation \
                         — first-committer-wins is broken",
                        s.txns[t as usize].db_snapshot, other.tid, other.db_snapshot
                    ),
                });
            }
        }
        out
    }

    /// Begin bookkeeping shared by `Begin`/`Resume`: take the snapshot
    /// (atomically, or just the engine half under the nonatomic mutant).
    fn do_begin(&self, s: &mut State, t: Txn) -> (Vec<Violation>, Vec<TraceEvent>) {
        let r = self.origin(t);
        let snap = s.reps[r as usize].max_committed;
        let viols = self.check_snapshot_prefix(s, r, snap, t);
        let tx = &mut s.txns[t as usize];
        tx.db_snapshot = snap;
        if self.has(Mutation::NonatomicBeginSnapshot) {
            // The race window: the engine snapshot exists but the
            // watermark is recorded by a later `Record` transition.
            tx.phase = Phase::SnapTaken;
            (viols, Vec::new())
        } else {
            tx.snapshot = snap;
            tx.phase = Phase::Active;
            (viols, vec![TraceEvent { replica: r, kind: self.tx_begin(t) }])
        }
    }

    /// Commit `tid` at replica `r`, emitting hole + commit events the way
    /// the real node journals them.
    fn do_commit(&self, s: &mut State, r: Rep, tid: Tid, events: &mut Vec<TraceEvent>) {
        let txn = s
            .txns
            .iter()
            .position(|tx| tx.tid == tid)
            .map_or_else(|| XactId::new(ReplicaId::new(u64::from(r)), 99), |i| self.xact(i as Txn));
        let (had, has) = s.reps[r as usize].commit_tid(tid);
        if !had && has {
            events.push(TraceEvent {
                replica: r,
                kind: EventKind::HoleOpened { tid: GlobalTid::new(tid) },
            });
        } else if had && !has {
            events.push(TraceEvent {
                replica: r,
                kind: EventKind::HoleClosed { tid: GlobalTid::new(tid) },
            });
        }
        events.push(TraceEvent {
            replica: r,
            kind: EventKind::Commit { xact: txn, tid: GlobalTid::new(tid) },
        });
    }
}

impl ProtocolModel for SrcaModel {
    type State = State;
    type Label = Label;

    fn initial(&self) -> State {
        State {
            log: Vec::new(),
            verdicts: Vec::new(),
            reps: (0..self.scenario.replicas)
                .map(|_| RepState::new(self.scenario.replicas))
                .collect(),
            txns: vec![
                TxnState {
                    phase: Phase::NotStarted,
                    db_snapshot: 0,
                    snapshot: 0,
                    cert: 0,
                    tid: 0,
                };
                self.scenario.txns.len()
            ],
            crashes: 0,
        }
    }

    #[allow(clippy::too_many_lines)]
    fn enabled(&self, s: &State) -> Vec<Label> {
        let mut out = Vec::new();
        for (i, tx) in s.txns.iter().enumerate() {
            let t = i as Txn;
            let r = self.origin(t);
            let rep = &s.reps[r as usize];
            match tx.phase {
                Phase::NotStarted if rep.alive => out.push(Label::Begin(t)),
                Phase::WaitingBegin if rep.alive && !rep.holes_exist() => {
                    out.push(Label::Resume(t));
                }
                Phase::SnapTaken if rep.alive => out.push(Label::Record(t)),
                Phase::Active if rep.alive => {
                    if self.ws(t) == 0 {
                        out.push(Label::RoCommit(t));
                    } else {
                        out.push(Label::Submit(t));
                    }
                }
                Phase::Submitted if rep.alive => {
                    // The session thread may commit once the origin has
                    // validated the writeset with a pass verdict.
                    if let Some(idx) = s.ws_index(t) {
                        if usize::from(rep.delivered) > idx {
                            if let Some((true, _)) = s.verdicts[idx] {
                                out.push(Label::LocalCommit(t));
                            }
                        }
                    }
                }
                Phase::InDoubt => {
                    if let Some(idx) = s.ws_index(t) {
                        for (k, rep2) in s.reps.iter().enumerate() {
                            if !rep2.alive || usize::from(rep2.delivered) <= idx {
                                continue;
                            }
                            let Some((passed, tid)) = s.verdicts[idx] else { continue };
                            let visible = !passed
                                || rep2.committed_contains(tid)
                                || self.has(Mutation::EagerInquire);
                            if visible {
                                out.push(Label::Resolve(t, k as Rep));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for (k, rep) in s.reps.iter().enumerate() {
            let r = k as Rep;
            if !rep.alive {
                if self.scenario.allow_recover {
                    for (d, donor) in s.reps.iter().enumerate() {
                        if donor.alive {
                            out.push(Label::Recover(r, d as Rep));
                        }
                    }
                }
                continue;
            }
            if usize::from(rep.delivered) < s.log.len() {
                out.push(Label::Deliver(r));
            }
            if rep.batches.len() < usize::from(self.scenario.max_appliers) {
                let ready = rep.ready().len();
                for kk in 1..=ready {
                    out.push(Label::Claim(r, kk as u8));
                }
            }
            for (b, batch) in rep.batches.iter().enumerate() {
                if self.may_commit(s, r, batch[0]) {
                    out.push(Label::GroupCommit(r, b as u8));
                }
            }
            if s.crashes < self.scenario.max_crashes
                && s.reps.iter().filter(|x| x.alive).count() >= 2
            {
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
                if gated && s.reps[r as usize].holes_exist() {
                    s.txns[t as usize].phase = Phase::WaitingBegin;
                } else {
                    let (v, e) = self.do_begin(&mut s, t);
                    viols = v;
                    events = e;
                }
            }
            Label::Resume(t) => {
                let (v, e) = self.do_begin(&mut s, t);
                viols = v;
                events = e;
            }
            Label::Record(t) => {
                // Second half of the nonatomic begin: the watermark is
                // read *now*, possibly after commits the engine snapshot
                // cannot contain.
                let r = self.origin(t);
                let snap = s.reps[r as usize].max_committed;
                let tx = &mut s.txns[t as usize];
                tx.snapshot = snap;
                tx.phase = Phase::Active;
                events.push(TraceEvent { replica: r, kind: self.tx_begin(t) });
            }
            Label::Submit(t) => {
                let r = self.origin(t);
                let ws = self.ws(t);
                let rep = &s.reps[r as usize];
                // Adjustment 1: local validation against the tocommit
                // queue only.
                let queue_conflict = rep.queue.iter().any(|e| e.ws & ws != 0);
                // The engine's first-updater-wins: a committed version
                // newer than our snapshot on a key we write aborts us.
                let fuw_conflict = !self.has(Mutation::BreakFirstCommitterWins)
                    && (s.txns[t as usize].db_snapshot + 1..rep.next_tid).any(|tid| {
                        rep.committed_contains(tid) && s.ws_of_tid(&self.scenario, tid) & ws != 0
                    });
                if queue_conflict || fuw_conflict {
                    s.txns[t as usize].phase = Phase::Aborted;
                    events.push(TraceEvent {
                        replica: r,
                        kind: EventKind::Abort { xact: self.xact(t) },
                    });
                } else {
                    let cert = rep.next_tid - 1;
                    s.txns[t as usize].cert = cert;
                    s.txns[t as usize].phase = Phase::Submitted;
                    s.log.push(LogEntry::Ws { txn: t, cert });
                    s.verdicts.push(None);
                    events.push(TraceEvent {
                        replica: r,
                        kind: EventKind::CertCapture {
                            xact: self.xact(t),
                            cert: GlobalTid::new(cert),
                        },
                    });
                    events.push(TraceEvent {
                        replica: r,
                        kind: EventKind::Multicast { xact: self.xact(t) },
                    });
                }
            }
            Label::RoCommit(t) => {
                let r = self.origin(t);
                let tx = s.txns[t as usize];
                // P3: the journaled snapshot must be the snapshot the
                // reads actually saw.
                if tx.snapshot != tx.db_snapshot {
                    viols.push(Violation {
                        prop: Prop::CaptureMismatch,
                        detail: format!(
                            "read-only T{t} at R{r} journals snapshot {} but its engine \
                             snapshot contains only tids <= {} — the journal (and the \
                             auditor) are told a lie",
                            tx.snapshot, tx.db_snapshot
                        ),
                    });
                }
                s.txns[t as usize].phase = Phase::RoCommitted;
                events.push(TraceEvent {
                    replica: r,
                    kind: EventKind::LocalReadOnly {
                        xact: self.xact(t),
                        snapshot: GlobalTid::new(tx.snapshot),
                        gated: true,
                    },
                });
            }
            Label::LocalCommit(t) => {
                let r = self.origin(t);
                let tid = s.txns[t as usize].tid;
                self.do_commit(&mut s, r, tid, &mut events);
                s.txns[t as usize].phase = Phase::Committed;
            }
            Label::Deliver(r) => {
                let idx = usize::from(s.reps[r as usize].delivered);
                s.reps[r as usize].delivered += 1;
                match s.log[idx] {
                    LogEntry::Ws { txn: t, cert } => {
                        let ws = self.ws(t);
                        events.push(TraceEvent {
                            replica: r,
                            kind: EventKind::TotalOrderDeliver {
                                xact: self.xact(t),
                                cert: GlobalTid::new(cert),
                            },
                        });
                        // P4: certifying below the watermark means pruned
                        // entries were not checked.
                        if cert < s.reps[r as usize].watermark {
                            viols.push(Violation {
                                prop: Prop::WatermarkSoundness,
                                detail: format!(
                                    "R{r} delivered T{t} with cert {cert} below its prune \
                                     watermark {} — conflicts may have been pruned away",
                                    s.reps[r as usize].watermark
                                ),
                            });
                        }
                        // Progress promise + pruning.
                        {
                            let rep = &mut s.reps[r as usize];
                            let o = usize::from(self.origin(t));
                            rep.adverts[o] = rep.adverts[o].max(cert);
                            let wm = (0..rep.adverts.len())
                                .filter(|m| rep.view & (1 << m) != 0)
                                .map(|m| rep.adverts[m])
                                .min()
                                .unwrap_or(0);
                            if wm > rep.watermark {
                                let before = rep.wslist.len();
                                rep.wslist.retain(|&(tid, _)| tid > wm);
                                let removed = (before - rep.wslist.len()) as u64;
                                rep.watermark = wm;
                                // Every watermark move is journaled, as in
                                // the real node.
                                events.push(TraceEvent {
                                    replica: r,
                                    kind: EventKind::WsListPruned {
                                        watermark: GlobalTid::new(wm),
                                        removed,
                                    },
                                });
                            }
                        }
                        let passed = self.has(Mutation::SkipCertification)
                            || !s.reps[r as usize]
                                .wslist
                                .iter()
                                .any(|&(tid, w)| tid > cert && w & ws != 0);
                        let tid = if passed { s.reps[r as usize].next_tid } else { 0 };
                        // P5: every replica must reach the same verdict
                        // and assign the same tid (Thm 1).
                        match s.verdicts[idx] {
                            None => {
                                s.verdicts[idx] = Some((passed, tid));
                                if passed {
                                    s.txns[t as usize].tid = tid;
                                    viols.extend(self.check_first_committer_wins(&s, t, tid));
                                }
                            }
                            Some((p0, t0)) => {
                                if p0 != passed || (passed && t0 != tid) {
                                    viols.push(Violation {
                                        prop: Prop::VerdictAgreement,
                                        detail: format!(
                                            "R{r} decided (passed={passed}, tid={tid}) for T{t} \
                                             but an earlier replica decided (passed={p0}, \
                                             tid={t0}) — Thm 1 broken"
                                        ),
                                    });
                                }
                            }
                        }
                        events.push(TraceEvent {
                            replica: r,
                            kind: EventKind::ValidationVerdict {
                                xact: self.xact(t),
                                cert: GlobalTid::new(cert),
                                tid: passed.then(|| GlobalTid::new(tid)),
                                // The abstract key index stands in for its
                                // hash: any injective map is a digest.
                                keys: if passed {
                                    (0..8u64).filter(|&k| ws & (1 << k) != 0).collect()
                                } else {
                                    Arc::default()
                                },
                            },
                        });
                        if passed {
                            let local =
                                self.origin(t) == r && s.txns[t as usize].phase == Phase::Submitted;
                            let rep = &mut s.reps[r as usize];
                            rep.next_tid += 1;
                            rep.wslist.push((tid, ws));
                            rep.pending.push(tid);
                            rep.pending.sort_unstable();
                            rep.queue.push(QEntry {
                                tid,
                                txn: t,
                                ws,
                                local_running: local,
                                claimed: false,
                            });
                            rep.queue.sort_unstable_by_key(|e| e.tid);
                        } else if self.origin(t) == r
                            && s.txns[t as usize].phase == Phase::Submitted
                        {
                            s.txns[t as usize].phase = Phase::Aborted;
                            events.push(TraceEvent {
                                replica: r,
                                kind: EventKind::Abort { xact: self.xact(t) },
                            });
                        }
                    }
                    LogEntry::View { crashed } => {
                        let rep = &mut s.reps[r as usize];
                        rep.view &= !(1 << crashed);
                        events.push(TraceEvent {
                            replica: r,
                            kind: EventKind::ViewChange {
                                members: u64::from(rep.view.count_ones()),
                            },
                        });
                    }
                    LogEntry::Join { rep: j } => {
                        let rep = &mut s.reps[r as usize];
                        rep.view |= 1 << j;
                        events.push(TraceEvent {
                            replica: r,
                            kind: EventKind::ViewChange {
                                members: u64::from(rep.view.count_ones()),
                            },
                        });
                    }
                }
            }
            Label::Claim(r, k) => {
                let ready = s.reps[r as usize].ready();
                let take: Vec<usize> = ready.into_iter().take(usize::from(k)).collect();
                let mut batch = Vec::new();
                for qi in take {
                    let e = &mut s.reps[r as usize].queue[qi];
                    e.claimed = true;
                    batch.push(e.tid);
                    events.push(TraceEvent {
                        replica: r,
                        kind: EventKind::ApplyStart {
                            xact: self.xact(e.txn),
                            tid: GlobalTid::new(e.tid),
                        },
                    });
                }
                s.reps[r as usize].batches.push(batch);
            }
            Label::GroupCommit(r, b) => {
                // The whole batch commits under one state-lock hold in the
                // real node, so it is one atomic transition here. The gate
                // was checked on the smallest tid in `enabled`; P6 checks
                // each member against the strict §4.3.3 discipline.
                let batch = s.reps[r as usize].batches.remove(usize::from(b));
                let waiting = s.waiting(&self.scenario, r);
                let running = s.running(&self.scenario, r);
                for &tid in &batch {
                    if waiting > 0 && running == 0 && s.reps[r as usize].creates_new_hole(tid) {
                        viols.push(Violation {
                            prop: Prop::HoleDiscipline,
                            detail: format!(
                                "R{r} group-committed tid {tid} (batch {batch:?}) creating a \
                                 new hole while a local begin was waiting and no local was \
                                 running — §4.3.3 forbids this"
                            ),
                        });
                    }
                    let txn = s.reps[r as usize].queue.iter().find(|e| e.tid == tid).map(|e| e.txn);
                    if let Some(t) = txn {
                        events.push(TraceEvent {
                            replica: r,
                            kind: EventKind::ApplyDone {
                                xact: self.xact(t),
                                tid: GlobalTid::new(tid),
                            },
                        });
                    }
                    self.do_commit(&mut s, r, tid, &mut events);
                }
            }
            Label::Crash(r) => {
                s.crashes += 1;
                s.reps[r as usize].alive = false;
                s.reps[r as usize].batches.clear();
                s.log.push(LogEntry::View { crashed: r });
                s.verdicts.push(None);
                for (i, tx) in s.txns.iter_mut().enumerate() {
                    if self.origin(i as Txn) != r {
                        continue;
                    }
                    tx.phase = match tx.phase {
                        Phase::Submitted => Phase::InDoubt,
                        Phase::NotStarted
                        | Phase::WaitingBegin
                        | Phase::SnapTaken
                        | Phase::Active => Phase::Aborted,
                        p => p,
                    };
                }
            }
            Label::Resolve(t, r) => {
                let idx = s.ws_index(t).unwrap_or(usize::MAX);
                let (passed, tid) = s.verdicts[idx].unwrap_or((false, 0));
                if passed {
                    // P7: reporting "committed" is a promise that the
                    // client's next snapshot at this replica contains the
                    // write.
                    if !s.reps[r as usize].committed_contains(tid) {
                        viols.push(Violation {
                            prop: Prop::SessionOrder,
                            detail: format!(
                                "R{r} resolved in-doubt T{t} as committed while tid {tid} \
                                 is still uncommitted there — a failed-over client's next \
                                 begin would miss its own write (session order broken)"
                            ),
                        });
                    }
                    s.txns[t as usize].phase = Phase::Committed;
                } else {
                    s.txns[t as usize].phase = Phase::Aborted;
                }
            }
            Label::Recover(r, donor) => {
                let d = s.reps[donor as usize].clone();
                let rep = &mut s.reps[r as usize];
                rep.alive = true;
                rep.delivered = d.delivered;
                rep.view = d.view | (1 << r);
                rep.next_tid = d.next_tid;
                rep.wslist = d.wslist;
                // Transferred queue entries lose their session ownership
                // and claims: the joiner applies them like remote entries.
                rep.queue = d
                    .queue
                    .into_iter()
                    .map(|e| QEntry { local_running: false, claimed: false, ..e })
                    .collect();
                rep.batches = Vec::new();
                rep.pending = d.pending;
                rep.max_committed = d.max_committed;
                rep.watermark = d.watermark;
                rep.adverts = d.adverts;
                events.push(TraceEvent {
                    replica: r,
                    kind: EventKind::ReplicaReset {
                        last_validated: GlobalTid::new(rep.next_tid - 1),
                        max_committed: GlobalTid::new(rep.max_committed),
                    },
                });
                s.log.push(LogEntry::Join { rep: r });
                s.verdicts.push(None);
            }
        }
        (s, viols, events)
    }

    fn terminal_check(&self, s: &State) -> Vec<Violation> {
        let mut out = Vec::new();
        let any_alive = s.reps.iter().any(|r| r.alive);
        for (i, tx) in s.txns.iter().enumerate() {
            let done = matches!(tx.phase, Phase::Committed | Phase::Aborted | Phase::RoCommitted)
                || (tx.phase == Phase::InDoubt && !any_alive)
                || !s.reps[usize::from(self.origin(i as Txn))].alive;
            if !done {
                out.push(Violation {
                    prop: Prop::Liveness,
                    detail: format!(
                        "terminal state leaves T{i} stuck in {:?} (no transition can ever \
                         run it to completion)",
                        tx.phase
                    ),
                });
            }
        }
        let mut frontiers = BTreeSet::new();
        for (k, rep) in s.reps.iter().enumerate() {
            if !rep.alive {
                continue;
            }
            if !rep.queue.is_empty() || !rep.pending.is_empty() || !rep.batches.is_empty() {
                out.push(Violation {
                    prop: Prop::Liveness,
                    detail: format!(
                        "terminal state leaves R{k} with undrained work: queue={:?} \
                         pending={:?} batches={:?}",
                        rep.queue.iter().map(|e| e.tid).collect::<Vec<_>>(),
                        rep.pending,
                        rep.batches
                    ),
                });
            }
            if rep.holes_exist() {
                out.push(Violation {
                    prop: Prop::Liveness,
                    detail: format!(
                        "terminal state leaves R{k} with open holes: {:?}",
                        rep.pending
                    ),
                });
            }
            frontiers.insert((rep.next_tid, rep.max_committed));
        }
        if frontiers.len() > 1 {
            out.push(Violation {
                prop: Prop::Liveness,
                detail: format!(
                    "live replicas diverged at the terminal state: \
                     (next_tid, max_committed) in {frontiers:?}"
                ),
            });
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
