//! The replica protocol as one state machine: SRCA-Rep (Fig. 4) with
//! adjustments 1–3 of §4 — every decision the paper's `wsmutex` keeps
//! atomic, and nothing else: [`ReplicaCore`] spawns nothing, reads no
//! clock, does no I/O and touches no database. It owns the certification
//! list ([`WsList`]), the hole tracker ([`HoleTracker`]: holes, set A's
//! waiting begins, set B's running locals), the tocommit queue
//! ([`TocommitQueue`]), the local transactions awaiting their verdict (with
//! whoever waits, `W`), the outcome log, the membership view and its
//! departed incarnations, the recovery markers and the progress-advert
//! cursor.
//!
//! Each transition method is one hold of the node lock in `node.rs`: it
//! reports its journal events to the caller's [`Report`] sink as it decides
//! them, keeps the stamps the sink answers where later stages start, and
//! returns its decision. The gates are queries the caller asks in the same
//! hold: [`ReplicaCore::passes`], [`ReplicaCore::holes_exist`] and
//! [`ReplicaCore::may_commit`]. `node.rs` drives the core from its session,
//! delivery and applier loops, with a database and a group member;
//! sirep-model explores every interleaving of a few cores and checks
//! DESIGN.md §17's P1–P7 on them.

use crate::audit::key_digest;
use crate::holes::HoleTracker;
use crate::msg::{Outcome, WsMsg, XactId};
use crate::outcomes::OutcomeLog;
use crate::tocommit::{QEntry, TocommitQueue};
use crate::validation::WsList;
use sirep_common::{EventKind, GlobalTid, MemberId, ReplicaId, Stage};
use sirep_gcs::View;
use sirep_storage::WriteSet;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// `ws_list` length above which an idle replica advertises its progress.
const PRUNE_THRESHOLD: usize = 64;

/// Where a transition reports each journal event `kind` as it is decided,
/// with the `(stage, since)`s it ends; the answer is its stamp. The node's
/// sink is `Auditor::reporter`; the model's, its trace (stamps 0).
pub trait Report {
    fn report(&mut self, kind: EventKind, ends: &[(Stage, u64)]) -> u64;
}

impl<F: FnMut(EventKind, &[(Stage, u64)]) -> u64> Report for F {
    fn report(&mut self, kind: EventKind, ends: &[(Stage, u64)]) -> u64 {
        self(kind, ends)
    }
}

/// The answer to an in-doubt inquiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InDoubt {
    /// The writeset was received; this is the validation outcome.
    Known(Outcome),
    /// The origin replica crashed and its writeset never arrived — by
    /// uniform delivery the transaction did not commit anywhere.
    NeverReceived,
    /// This replica could say neither within
    /// [`INQUIRE_DEADLINE`](crate::node::INQUIRE_DEADLINE) (no writeset yet
    /// and the origin's incarnation not seen to depart, or a committed
    /// writeset not yet applied here): ask another survivor.
    Unknown,
}

sirep_common::wire_codec!(enum InDoubt, "in-doubt tag" {
    0 => Known(outcome),
    1 => NeverReceived,
    2 => Unknown,
});

/// A claimed queue entry on its way to commit.
pub struct Claimed {
    pub tid: GlobalTid,
    pub xact: XactId,
    pub ws: Arc<WriteSet>,
    /// Journal stamp of the entry's last stage boundary.
    pub last_ns: u64,
}

impl Claimed {
    /// Claim `e`: its `ApplyStart` ends its `validate_queue`.
    fn start(e: &QEntry, sink: &mut impl Report) -> Claimed {
        let (tid, xact) = (e.tid, e.xact);
        let queued = [(Stage::ValidateQueue, e.last_ns)];
        let last_ns = sink.report(EventKind::ApplyStart { xact, tid }, &queued);
        Claimed { tid, xact, ws: Arc::clone(&e.ws), last_ns }
    }
}

/// What [`ReplicaCore::deliver`] decided.
pub struct Delivered<W> {
    /// The tid assigned; `None`: the writeset failed certification.
    pub tid: Option<GlobalTid>,
    /// Our own awaiting local transaction's waiter.
    pub local: Option<W>,
    /// The `TotalOrderDeliver` stamp, where `validate_queue` starts.
    pub at: u64,
    /// The ready set grew and nothing claimed the entry: wake an applier.
    pub ready: bool,
    /// The entry, claimed for the caller to apply itself.
    pub claimed: Option<Claimed>,
}

/// The core's sizes, for status and the gauges.
pub struct Sizes {
    pub ws_list: usize,
    pub cert_index_keys: usize,
    pub open_holes: usize,
    pub queued: usize,
    pub backlog: usize,
    pub ready: usize,
    pub pending_local: usize,
    pub running_locals: usize,
    pub waiting_to_start: usize,
}

/// [`ReplicaCore::key`]: the core without its stamps and without the
/// indexes rebuilt from the rest (`last_certifier`, `waiters`, `ready`,
/// the blocker counts). A writeset is named by its transaction.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoreKey {
    certified: Vec<(GlobalTid, XactId)>,
    last_validated: GlobalTid,
    progress: Vec<(ReplicaId, GlobalTid)>,
    watermark: GlobalTid,
    pending: Vec<GlobalTid>,
    max_committed: GlobalTid,
    begins: (usize, usize),
    queue: Vec<(GlobalTid, XactId, ReplicaId, bool, bool)>,
    locals: Vec<XactId>,
    outcomes: Vec<(XactId, Outcome)>,
    membership: (u64, Vec<MemberId>),
    departed: Vec<MemberId>,
    markers: Vec<u64>,
    progress_sent: GlobalTid,
}

/// One replica's protocol state (see the module header); `W` is whoever
/// waits for a local transaction's verdict.
#[derive(Clone)]
pub struct ReplicaCore<W = ()> {
    /// Adjustment 3 is on (SRCA-Rep); off is the SRCA-Opt ablation.
    gated: bool,
    ws_list: WsList,
    holes: HoleTracker,
    queue: TocommitQueue,
    /// Local transactions multicast and awaiting their verdict: the stamp
    /// of their writeset's extraction, and their waiter.
    locals: BTreeMap<XactId, (u64, W)>,
    outcomes: OutcomeLog,
    /// The last view processed here (so in-doubt inquiries see exactly the
    /// §5.4 guarantee); its member ids are the live
    /// `(replica, incarnation)`s.
    membership: View,
    /// The replicas of `membership`, sorted — what pruning iterates.
    view: Vec<ReplicaId>,
    /// Incarnations whose departure was processed here: in one view, not in
    /// the next. By uniform delivery, every writeset a departed incarnation
    /// multicast is already in `outcomes` — so its in-doubt transaction
    /// with no outcome was never received, full stop.
    departed: BTreeSet<MemberId>,
    /// Recovery markers processed (see `ReplMsg::Marker`).
    markers: BTreeSet<u64>,
    /// The `lastvalidated` last advertised when idle.
    progress_sent: GlobalTid,
}

impl<W> ReplicaCore<W> {
    /// A fresh replica's core; `gated`: run adjustment 3 (SRCA-Rep).
    ///
    /// The membership starts empty and only ever reflects views processed
    /// here. Seeding it with the expected full membership would make the
    /// one-by-one formation view changes look like departures, poisoning
    /// `departed` with `(replica, 0)` entries that later turn in-doubt
    /// inquiries into false `NeverReceived` answers — a committed
    /// transaction reported to its client as lost.
    pub fn new(gated: bool, outcome_cap: usize) -> ReplicaCore<W> {
        ReplicaCore {
            gated,
            ws_list: WsList::new(),
            holes: HoleTracker::new(),
            queue: TocommitQueue::default(),
            locals: BTreeMap::new(),
            outcomes: OutcomeLog::new(outcome_cap),
            membership: View { id: 0, members: Vec::new() },
            view: Vec::new(),
            departed: BTreeSet::new(),
            markers: BTreeSet::new(),
            progress_sent: GlobalTid::ZERO,
        }
    }

    // ---------------------------------------------------------------------
    // Queries
    // ---------------------------------------------------------------------

    /// Is a commit-order hole open? A gated begin waits until none is.
    pub fn holes_exist(&self) -> bool {
        self.holes.holes_exist()
    }

    /// The §4.3.3 commit rule for a remote `tid`; always true ungated. A
    /// local's commit passes it too: its session still counts as running.
    pub fn may_commit(&self, tid: GlobalTid) -> bool {
        !self.gated || self.holes.may_commit(tid, false)
    }

    /// Certification (step II.2): nothing validated after `cert` overlaps?
    pub fn passes(&self, cert: GlobalTid, ws: &WriteSet) -> bool {
        self.ws_list.passes(cert, ws)
    }

    /// `lastvalidated_tid`.
    pub fn last_validated(&self) -> GlobalTid {
        self.ws_list.last_tid()
    }

    /// The replicas of the last view processed here, sorted.
    pub fn view(&self) -> &[ReplicaId] {
        &self.view
    }

    /// The recorded verdict on `xact`, if it was delivered here.
    pub fn outcome(&self, xact: XactId) -> Option<Outcome> {
        self.outcomes.get(xact)
    }

    pub fn ws_list(&self) -> &WsList {
        &self.ws_list
    }

    pub fn holes(&self) -> &HoleTracker {
        &self.holes
    }

    pub fn sizes(&self) -> Sizes {
        Sizes {
            ws_list: self.ws_list.len(),
            cert_index_keys: self.ws_list.index_len(),
            open_holes: self.holes.open_holes(),
            queued: self.queue.len(),
            backlog: self.queue.backlog(),
            ready: self.queue.ready_len(),
            pending_local: self.locals.len(),
            running_locals: self.holes.running_locals(),
            waiting_to_start: self.holes.waiting_to_start(),
        }
    }

    /// Two cores with equal keys decide alike from here on.
    pub fn key(&self) -> CoreKey {
        CoreKey {
            certified: self
                .ws_list
                .entries_after(GlobalTid::ZERO)
                .map(|e| (e.tid, e.xact))
                .collect(),
            last_validated: self.ws_list.last_tid(),
            progress: self.ws_list.progress(),
            watermark: self.ws_list.watermark(),
            pending: self.holes.pending().collect(),
            max_committed: self.holes.max_committed(),
            begins: (self.holes.waiting_to_start(), self.holes.running_locals()),
            queue: self
                .queue
                .iter()
                .map(|e| (e.tid, e.xact, e.origin, e.running, e.handed_back))
                .collect(),
            locals: self.locals.keys().copied().collect(),
            outcomes: self.outcomes.iter().collect(),
            membership: (self.membership.id, self.membership.members.clone()),
            departed: self.departed.iter().copied().collect(),
            markers: self.markers.iter().copied().collect(),
            progress_sent: self.progress_sent,
        }
    }

    /// Resolve an in-doubt transaction (§5.4 case 3); `None`: not yet.
    pub fn inquire(&self, xact: XactId) -> Option<InDoubt> {
        match self.outcomes.get(xact) {
            // A committed verdict is recorded at *validation* time, but
            // answering then is a session-order bug sirep-model found (P7,
            // tests/model_replay.rs): the writeset may still sit in the
            // tocommit queue, so a failed-over client told "committed"
            // could begin its next transaction here and miss its own
            // write. Hold the answer until the entry has left the queue.
            Some(Outcome::Committed) if self.queue.contains_xact(xact) => None,
            Some(o) => Some(InDoubt::Known(o)),
            // The origin *incarnation* has departed: uniform delivery put
            // any writeset it multicast in front of the view change already
            // processed, so no outcome means no writeset — even if the
            // replica id has since re-joined. Absence from the view alone
            // proves nothing: before a view containing the origin was
            // processed it means "not seen yet", not "departed".
            None if self.has_departed(MemberId::of(xact.origin.raw(), xact.incarnation())) => {
                Some(InDoubt::NeverReceived)
            }
            None => None,
        }
    }

    /// Has `origin` left the group, as far as the views processed here say?
    /// Either its departure was witnessed, or the view holds a later
    /// incarnation of its replica and not `origin` itself (ids are minted
    /// in join order, so `origin`'s whole membership lies before that view).
    fn has_departed(&self, origin: MemberId) -> bool {
        let live = &self.membership;
        self.departed.contains(&origin)
            || (!live.contains(origin)
                && live.members.iter().any(|m| {
                    m.replica() == origin.replica() && m.incarnation() > origin.incarnation()
                }))
    }

    /// When idle: the `lastvalidated` to advertise (a promise that this
    /// replica's future certs are at least that), if `ws_list` is long and
    /// it moved since the last advert.
    pub fn progress_due(&self) -> Option<GlobalTid> {
        let lastvalidated = self.ws_list.last_tid();
        (self.ws_list.len() > PRUNE_THRESHOLD && lastvalidated > self.progress_sent)
            .then_some(lastvalidated)
    }

    // ---------------------------------------------------------------------
    // Transitions: one per node-lock hold
    // ---------------------------------------------------------------------

    /// A local begin found a hole and waits (joins set A).
    pub fn wait_begin(&mut self) {
        self.holes.start_waiting();
    }

    /// Step I.1.a, atomic with the caller's engine begin: the transaction
    /// joins set B (and leaves set A if it `waited`, since then). Returns the
    /// snapshot watermark — with no hole open, every tid up to it is
    /// committed here — and the `TxBegin` stamp.
    pub fn begin(
        &mut self,
        xact: XactId,
        waited: Option<u64>,
        sink: &mut impl Report,
    ) -> (GlobalTid, u64) {
        if waited.is_some() {
            self.holes.done_waiting();
        }
        self.holes.local_started();
        let waited = waited.map(|since| (Stage::BeginWait, since));
        let at = sink.report(EventKind::TxBegin { xact, gated: self.gated }, waited.as_slice());
        (self.holes.max_committed(), at)
    }

    /// A local transaction terminated — committed, aborted or rolled back —
    /// and holds no database locks any more (it leaves set B).
    pub fn local_finished(&mut self) {
        self.holes.local_finished();
    }

    /// Step I.2: local validation against the tocommit queue only
    /// (adjustment 1), then the cert capture, which journals the readset
    /// digest `reads`. On success the transaction awaits its verdict here
    /// with `waiter`, stamped `extracted` (its writeset's extraction).
    /// `None`: it aborted.
    pub fn submit(
        &mut self,
        xact: XactId,
        ws: &WriteSet,
        reads: Arc<[u64]>,
        extracted: u64,
        waiter: W,
        sink: &mut impl Report,
    ) -> Option<GlobalTid> {
        if self.queue.conflicts(ws) {
            sink.report(EventKind::Abort { xact }, &[]);
            return None;
        }
        let cert = self.ws_list.last_tid();
        sink.report(EventKind::CertCapture { xact, cert, reads }, &[]);
        self.locals.insert(xact, (extracted, waiter));
        Some(cert)
    }

    /// The replica crashed: drop the awaiting locals' waiters.
    pub fn forget_locals(&mut self) {
        self.locals.clear();
    }

    /// Step II for one totally-ordered writeset: its cert as a progress
    /// promise (prune), the verdict, and for a pass the tid and the queue
    /// push. `passed` is the caller's [`ReplicaCore::passes`] in the same
    /// hold. `TotalOrderDeliver` ends `gcs_deliver`, which started at an
    /// awaiting local's extraction or else at `sequenced`, the transport's
    /// sequencing stamp. With `inline`, a ready remote entry that nothing
    /// can make wait — no older entry is ready and the hole rule admits its
    /// commit — is claimed for the caller.
    ///
    /// `None`: already decided — only on a recovered replica whose delivery
    /// buffer overlaps the transferred state; skipped idempotently.
    pub fn deliver(
        &mut self,
        m: &WsMsg,
        passed: bool,
        sequenced: u64,
        inline: bool,
        sink: &mut impl Report,
    ) -> Option<Delivered<W>> {
        if self.outcomes.get(m.xact).is_some() {
            return None;
        }
        let (xact, cert) = (m.xact, m.cert);
        let local = self.locals.remove(&xact);
        let sent = [(Stage::GcsDeliver, local.as_ref().map_or(sequenced, |l| l.0))];
        let at = sink.report(EventKind::TotalOrderDeliver { xact, cert }, &sent);
        let local = local.map(|(_, waiter)| waiter);
        self.progress(m.origin, cert, sink);
        let tid = passed.then(|| self.ws_list.append(xact, Arc::clone(&m.ws)));
        let keys = if passed { key_digest(&m.ws) } else { Arc::default() };
        sink.report(EventKind::ValidationVerdict { xact, cert, tid, keys }, &[]);
        self.outcomes.record(xact, if passed { Outcome::Committed } else { Outcome::Aborted });
        let Some(tid) = tid else {
            if local.is_some() {
                sink.report(EventKind::Abort { xact }, &[]);
            }
            return Some(Delivered { tid, local, at, ready: false, claimed: None });
        };
        self.holes.on_validated(tid);
        // A local entry with a waiting session commits on the session
        // (adjustment 2): born running, so no applier picks it.
        let mut entry = QEntry::new(tid, xact, Arc::clone(&m.ws), m.origin, local.is_some());
        entry.last_ns = at;
        let ready = self.queue.push(entry);
        let claim = ready && inline && self.queue.ready_len() == 1 && self.may_commit(tid);
        let claimed =
            if claim { self.queue.pop_ready().map(|e| Claimed::start(e, sink)) } else { None };
        Some(Delivered { tid: Some(tid), local, at, ready: ready && !claim, claimed })
    }

    /// A progress advert from `from` (explicit, or a writeset's cert): its
    /// `last` validated tid. Prune `ws_list` below the group-wide promise,
    /// reporting every move of the watermark. `true`: it moved.
    pub fn progress(&mut self, from: ReplicaId, last: GlobalTid, sink: &mut impl Report) -> bool {
        let pruned = self.ws_list.advance_progress(from, last, &self.view);
        if let Some((watermark, removed)) = pruned {
            sink.report(EventKind::WsListPruned { watermark, removed }, &[]);
        }
        pruned.is_some()
    }

    /// The advert [`ReplicaCore::progress_due`] asked for went out.
    pub fn progress_sent(&mut self, lastvalidated: GlobalTid) {
        self.progress_sent = lastvalidated;
    }

    /// Install a view: whoever the previous view named and this one does
    /// not has departed. Views are self-describing (a member id is its
    /// `(replica, incarnation)`), so this reads two views and nothing else.
    /// `false`: not newer than the installed view — a recovered replica's
    /// stream starts at its own join view, which its transfer reflects.
    pub fn view_change(&mut self, v: View, sink: &mut impl Report) -> bool {
        if v.id <= self.membership.id {
            return false;
        }
        self.departed.extend(self.membership.members.iter().filter(|m| !v.contains(**m)));
        let mut replicas: Vec<ReplicaId> = v.members.iter().map(|m| m.replica()).collect();
        replicas.sort();
        replicas.dedup();
        self.view = replicas;
        self.membership = v;
        sink.report(EventKind::ViewChange { members: self.view.len() as u64 }, &[]);
        true
    }

    /// A recovery marker was delivered: everything sequenced before it was.
    pub fn marker(&mut self, token: u64) {
        self.markers.insert(token);
    }

    /// Was marker `token` delivered? Forgets it.
    pub fn marker_seen(&mut self, token: u64) -> bool {
        self.markers.remove(&token)
    }

    /// Step III's claim: up to `max` ready entries, smallest tid first,
    /// marked running. Each has zero blockers against *all* queued
    /// predecessors — including the others claimed here — so the batch is
    /// mutually non-conflicting and ascending. An entry given back for a
    /// held tuple lock is claimed alone: a batch sharing it would wait on
    /// that lock too. Each claim reports its `ApplyStart`.
    pub fn claim(&mut self, max: usize, sink: &mut impl Report) -> Vec<Claimed> {
        let mut claimed = Vec::new();
        while claimed.len() < max {
            let Some(e) = self.queue.pop_ready() else { break };
            let (tid, last_ns, alone) = (e.tid, e.last_ns, e.handed_back);
            if alone && !claimed.is_empty() {
                self.queue.unclaim(tid, last_ns);
                break;
            }
            claimed.push(Claimed::start(e, sink));
            if alone {
                break;
            }
        }
        claimed
    }

    /// Give claimed entries back to the ready set; each one's
    /// `validate_queue` restarts at its stamp.
    pub fn unclaim(&mut self, entries: impl IntoIterator<Item = (GlobalTid, u64)>) {
        for (tid, last_ns) in entries {
            self.queue.unclaim(tid, last_ns);
        }
    }

    /// The commit step's bookkeeping, atomic with begins: queued entries,
    /// ascending, leave the hole tracker's pending set and the queue. Per
    /// `(tid, xact, since)`: the hole-set transition its commit caused
    /// (empty ↔ nonempty), if any, then its `Commit`, which ends its
    /// `commit` stage (started at `since`: the hole-rule wait is part of
    /// perceived commit latency) and, with `begun` — a local, committed as
    /// a batch of one —, its `total`. `true`: successors became ready.
    pub fn commit(
        &mut self,
        batch: impl IntoIterator<Item = (GlobalTid, XactId, u64)>,
        begun: Option<u64>,
        sink: &mut impl Report,
    ) -> bool {
        let mut released = 0;
        for (tid, xact, since) in batch {
            let had_holes = self.holes.holes_exist();
            self.holes.on_committed(tid);
            match (had_holes, self.holes.holes_exist()) {
                (false, true) => sink.report(EventKind::HoleOpened { tid }, &[]),
                (true, false) => sink.report(EventKind::HoleClosed { tid }, &[]),
                _ => 0,
            };
            let commit = EventKind::Commit { xact, tid };
            match begun {
                Some(b) => sink.report(commit, &[(Stage::Commit, since), (Stage::Total, b)]),
                None => sink.report(commit, &[(Stage::Commit, since)]),
            };
            released += self.queue.remove(tid);
        }
        released > 0
    }

    /// State transfer (§8): the core a recovering replica starts from once
    /// [`ReplicaCore::reset`] has run on it.
    pub fn transfer(&self) -> ReplicaCore<W> {
        ReplicaCore {
            ws_list: self.ws_list.clone(),
            holes: self.holes.clone(),
            queue: self.queue.clone(),
            outcomes: self.outcomes.clone(),
            membership: self.membership.clone(),
            view: self.view.clone(),
            departed: self.departed.clone(),
            ..ReplicaCore::new(self.gated, 0)
        }
    }

    /// A transferred core's first transition, in its joiner: the
    /// `ReplicaReset`. The queue is rebuilt by pushes in tid order, exactly
    /// as delivery order built it; its entries lose their claims and
    /// sessions (the joiner applies them like remote ones) and restart their
    /// `validate_queue` at the reset. No begin waits or runs here yet.
    pub fn reset(&mut self, sink: &mut impl Report) {
        let max_committed = self.holes.max_committed();
        let reset =
            EventKind::ReplicaReset { last_validated: self.last_validated(), max_committed };
        let at = sink.report(reset, &[]);
        for e in std::mem::take(&mut self.queue).iter() {
            let mut entry = QEntry::new(e.tid, e.xact, Arc::clone(&e.ws), e.origin, false);
            entry.last_ns = at;
            self.queue.push(entry);
        }
        self.holes = HoleTracker::bootstrap(max_committed, self.queue.iter().map(|e| e.tid));
    }
}
